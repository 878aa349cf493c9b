package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzWireDecode drives every wire-frame decoder — request, response,
// and the PR 5 replication stream frames — with arbitrary bytes. The
// decoders must never panic, and anything they accept must survive a
// re-encode/re-decode round trip (no lossy parse).
func FuzzWireDecode(f *testing.F) {
	seed := [][]byte{
		[]byte(`{"verb":"PING"}`),
		[]byte(`{"verb":"LOAD","name":"d.xml","xml":"<a>x</a>"}`),
		[]byte(`{"verb":"SQL","sql":"SELECT u.attrName FROM TabUniversity u"}`),
		[]byte(`{"verb":"REPLICATE","name":"uni","lsn":42}`),
		[]byte(`{"verb":"REPLICATE","name":"uni","lsn":42,"epoch":3}`),
		[]byte(`{"verb":"PROMOTE"}`),
		[]byte(`{"ok":true,"rows":[["x",2]],"cols":["A","B"]}`),
		[]byte(`{"ok":false,"code":"read_only","error":"replica","primary":"10.0.0.1:7788","role":"replica"}`),
		[]byte(`{"type":"hb","primary_lsn":7}`),
		[]byte(`{"type":"unit","lsn":9,"primary_lsn":9,"recs":[{"lsn":8,"type":1,"payload":"aGk="},{"lsn":9,"type":3,"commit":true,"payload":"eA=="}],"last":true}`),
		[]byte(`{"type":"unit","lsn":9,"primary_lsn":9,"recs":[{"lsn":8,"type":1,"partial":true,"payload":"aGk="}]}`),
		[]byte(`{"ok":true,"role":"primary","lsn":7,"epoch":2}`),
		[]byte(`{"type":"snap","lsn":5,"data":"c25hcA==","last":true}`),
		[]byte(`{"type":"resync"}`),
		[]byte(`{"type":"err","error":"boom"}`),
		[]byte(`{"lsn":12345}`),
		// Frames of a retired protocol extension. The request verb still
		// decodes and reaches the server's unknown-verb answer; the
		// request fields it added hit the unknown-field rejection; the
		// response fields it added are skipped by the lenient response
		// decoder.
		[]byte(`{"verb":"SHARDMAP"}`),
		[]byte(`{"verb":"RETRIEVE","docid":7,"shards":4,"shard":3}`),
		[]byte(`{"ok":true,"shard_map":{"count":4,"hash":"jump+fnv1a-64","addrs":["h0:1","h1:1","h2:1","h3:1"]}}`),
		[]byte(`{"ok":true,"shard_map":{"count":0}}`),
		[]byte(`{"ok":false,"code":"shard_mismatch","error":"this server is shard 2 of 4"}`),
		[]byte(`{"ok":false,"code":"shard_unavailable","error":"shard 1 unreachable","shard_errors":[{"shard":1,"addr":"h1:1","code":"shard_unavailable","error":"dial refused"}]}`),
		[]byte(`{"ok":false,"code":"cross_shard","error":"transaction bound to shard 0"}`),
		[]byte(`{"ok":true,"stats":{"sessions_open":1,"sessions_total":2,"shard_count":2,"shard_index":-1,"shards":[{"index":0,"addr":"h0:1","ok":true,"documents":3,"sessions":1},{"index":1,"addr":"h1:1","ok":false,"error":"dial refused"}]}}`),
		[]byte(`{"shard_errors":[{"shard":0}]}`),
		[]byte(`{"shard_map":{"count":-1,"addrs":[""]}}`),
		[]byte(`{`),
		[]byte(`null`),
		[]byte(`{"type":"unit","recs":[{}]}`),
		[]byte(`42 {"verb":"PING"}`),
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		if req, err := DecodeRequest(line); err == nil {
			reencode(t, req, func(b []byte) error { _, e := DecodeRequest(b); return e })
		}
		if resp, err := DecodeResponse(line); err == nil {
			reencode(t, resp, func(b []byte) error { _, e := DecodeResponse(b); return e })
		}
		if frame, err := DecodeReplFrame(line); err == nil {
			reencode(t, frame, func(b []byte) error { _, e := DecodeReplFrame(b); return e })
		}
		if ack, err := DecodeReplAck(line); err == nil {
			reencode(t, ack, func(b []byte) error { _, e := DecodeReplAck(b); return e })
		}
		// The frame reader must not panic on arbitrary input either.
		br := bufio.NewReader(bytes.NewReader(append(line, '\n')))
		_, _ = ReadFrame(br, 1<<16)
	})
}

// reencode marshals an accepted value and re-decodes it, catching
// decoders that accept frames WriteFrame could never have produced in a
// form that round-trips differently.
func reencode(t *testing.T, v any, decode func([]byte) error) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("re-encoding accepted frame %+v: %v", v, err)
	}
	if err := decode(data); err != nil {
		t.Fatalf("re-decoding %s: %v", data, err)
	}
}
