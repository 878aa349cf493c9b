package server

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"

	"xmlordb/internal/wire"
)

// TestUnknownVerbsShareOneStatsRow sends a retired verb and 500
// invented ones over a raw connection: each is answered bad_request,
// and STATS gains one row for all of them, not one per spelling. A
// server hosting no store answers the same, before store resolution.
func TestUnknownVerbsShareOneStatsRow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(t *testing.T) string
	}{
		{"one store", func(t *testing.T) string { _, addr := startServer(t, Config{}); return addr }},
		{"no store", func(t *testing.T) string { _, addr := serveOn(t, New(Config{})); return addr }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", tc.start(t))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(30 * time.Second))
			br := bufio.NewReader(conn)
			call := func(verb string) *wire.Response {
				t.Helper()
				if err := wire.WriteFrame(conn, &wire.Request{Verb: verb}); err != nil {
					t.Fatal(err)
				}
				line, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := wire.DecodeResponse(line)
				if err != nil {
					t.Fatal(err)
				}
				return resp
			}
			// The second STATS sees its own verb's row already present.
			call(wire.VerbStats)
			before := call(wire.VerbStats).Stats.Verbs

			verbs := []string{"SHARDMAP"}
			for i := 0; i < 500; i++ {
				verbs = append(verbs, fmt.Sprintf("BOGUS%d", i))
			}
			for _, v := range verbs {
				if resp := call(v); resp.OK || resp.Code != wire.CodeBadRequest {
					t.Fatalf("%s answered ok=%v code=%q, want %s", v, resp.OK, resp.Code, wire.CodeBadRequest)
				}
			}

			after := call(wire.VerbStats).Stats.Verbs
			if len(after) != len(before)+1 {
				t.Fatalf("STATS rows %d → %d after %d unknown verbs, want one new row", len(before), len(after), len(verbs))
			}
			for _, vs := range after {
				if vs.Verb == "UNKNOWN" {
					if vs.Count != int64(len(verbs)) || vs.Errors != int64(len(verbs)) {
						t.Fatalf("UNKNOWN row = %+v, want count and errors %d", vs, len(verbs))
					}
					return
				}
			}
			t.Fatalf("no UNKNOWN row in STATS %+v", after)
		})
	}
}
