package main

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"testing"
	"time"

	"xmlordb/internal/wire"
)

// The serve flags that only a deployment sets — the HTTP stats listener
// and the advertised address — checked through a real subprocess.
func TestCLIServeFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := buildServerBinary(t)
	dtdFile := writeDTDFile(t)

	t.Run("stats-addr", func(t *testing.T) {
		cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0",
			"-dtd", dtdFile, "-name", "uni", "-root", "University",
			"-stats-addr", "127.0.0.1:0")
		statsAddr := startProcWithBanner(t, cmd, "stats on ").addr
		resp, err := (&http.Client{Timeout: 5 * time.Second}).Get("http://" + statsAddr + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st wire.Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding /stats: %v", err)
		}
		if len(st.StoreStats) != 1 || st.StoreStats[0].Name != "uni" {
			t.Fatalf("/stats stores = %+v, want the one store uni", st.StoreStats)
		}
	})

	t.Run("stats-addr occupied", func(t *testing.T) {
		taken, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer taken.Close()
		// Bounded: a server that shrugs the bind failure off serves on.
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		out, err := exec.CommandContext(ctx, bin, "serve", "-addr", "127.0.0.1:0",
			"-stats-addr", taken.Addr().String()).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("serve with an occupied -stats-addr: %v, want exit status 1\n%s", err, out)
		}
		if !strings.Contains(string(out), taken.Addr().String()) {
			t.Fatalf("startup error does not name %s:\n%s", taken.Addr(), out)
		}
	})

	t.Run("advertise", func(t *testing.T) {
		// Never dialled: nothing probes peers without -election-timeout.
		const advertised = "192.0.2.7:7788"
		proc := launchProc(t, bin, "serve", "-addr", "127.0.0.1:0", "-advertise", advertised)
		var sb strings.Builder
		if err := run([]string{"client", "-addr", proc.addr, "position"}, &sb); err != nil {
			t.Fatal(err)
		}
		out := sb.String()
		if !strings.Contains(out, "members ["+advertised+"]") || strings.Contains(out, proc.addr) {
			t.Fatalf("position = %q, want members [%s] and not the bound %s", out, advertised, proc.addr)
		}
	})
}
