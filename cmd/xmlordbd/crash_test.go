package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xmlordb/internal/client"
)

// The crash torture test runs a real xmlordbd subprocess against a
// durable store, SIGKILLs it mid-traffic, restarts it on the same data
// directory and checks the recovery contract:
//
//   - "always": every load the server acknowledged is present after the
//     restart — zero acked-commit loss — and at most one unacknowledged
//     in-flight load may additionally have survived.
//   - "interval": what survives is a prefix of the acknowledged history
//     (bounded loss, never a gap), since loads commit in DocID order.
//
// In both cases every surviving document must retrieve completely — no
// half-applied state.

// buildServerBinary compiles the command under test once per test run.
func buildServerBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "xmlordbd")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// serverProc is one running xmlordbd subprocess.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
}

// startServerProc launches `xmlordbd serve` on a random port with the
// given durability policy and waits for the "listening on" banner.
func startServerProc(t *testing.T, bin, dataDir, dtdFile, durability string) *serverProc {
	t.Helper()
	return launchProc(t, bin, "serve",
		"-addr", "127.0.0.1:0",
		"-dtd", dtdFile, "-name", "uni", "-root", "University",
		"-snapshot-dir", dataDir,
		"-snapshot-interval", "1h", // recovery must come from the WAL, not a lucky checkpoint
		"-durability", durability,
		"-wal-sync-interval", "25ms",
	)
}

// launchProc starts an xmlordbd subprocess with the given args and
// waits for its "listening on" banner.
func launchProc(t *testing.T, bin string, args ...string) *serverProc {
	t.Helper()
	return startProcWithBanner(t, exec.Command(bin, args...), "listening on ")
}

// startProcWithBanner starts cmd, kills it when the test ends, and
// waits up to 15 s for a stdout line beginning with banner; the first
// field after the banner is the process's address.
func startProcWithBanner(t *testing.T, cmd *exec.Cmd, banner string) *serverProc {
	t.Helper()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), banner); ok {
				addrCh <- strings.Fields(rest)[0]
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &serverProc{cmd: cmd, addr: addr}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("process did not print %q", banner)
		return nil
	}
}

func (p *serverProc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no checkpoint
		t.Fatal(err)
	}
	p.cmd.Wait()
}

func writeDTDFile(t *testing.T) string {
	t.Helper()
	f := filepath.Join(t.TempDir(), "uni.dtd")
	if err := os.WriteFile(f, []byte(uniDTD), 0o644); err != nil {
		t.Fatal(err)
	}
	return f
}

func crashDoc(i int) string {
	return fmt.Sprintf(`<University><StudyCourse>CS</StudyCourse><Student StudNr="%d"><LName>Doc%d</LName><FName>F</FName></Student></University>`, i, i)
}

// runCrashCycle loads documents until the server dies under it: a
// second goroutine SIGKILLs the process once minAcks loads have been
// acknowledged, so the kill races genuinely in-flight traffic. Returns
// the DocIDs the server acknowledged.
func runCrashCycle(t *testing.T, proc *serverProc, minAcks int) []int {
	t.Helper()
	c, err := client.Dial(proc.addr, client.WithTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	var acked []int
	var ackCount atomic.Int64
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.Now().Add(30 * time.Second)
		for ackCount.Load() < int64(minAcks) {
			if time.Now().After(deadline) {
				t.Error("server never reached the ack threshold")
				proc.kill(t)
				return
			}
			time.Sleep(time.Millisecond)
		}
		proc.kill(t)
	}()
	for i := 1; ; i++ {
		id, err := c.Load(ctx, fmt.Sprintf("doc%d.xml", i), crashDoc(i))
		if err != nil {
			break // the kill landed
		}
		acked = append(acked, id)
		ackCount.Add(1)
	}
	<-killed
	if len(acked) < minAcks {
		t.Fatalf("server died after only %d acks, want >= %d", len(acked), minAcks)
	}
	return acked
}

// recoveredDocIDs restarts nothing — it queries a live server for the
// set of DocIDs present and verifies each retrieves completely.
func recoveredDocIDs(t *testing.T, addr string) map[int]bool {
	t.Helper()
	c, err := client.Dial(addr, client.WithTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	res, err := c.Query(ctx, "SELECT DocID FROM TabUniversity")
	if err != nil {
		t.Fatalf("querying recovered store: %v", err)
	}
	got := map[int]bool{}
	for _, row := range res.Rows {
		var id int
		if _, err := fmt.Sscan(fmt.Sprint(row[0]), &id); err != nil {
			t.Fatalf("bad DocID %v: %v", row[0], err)
		}
		got[id] = true
		// No half-applied documents: every surviving DocID must
		// reconstruct with its student row intact.
		xml, err := c.Retrieve(ctx, id)
		if err != nil {
			t.Fatalf("doc %d present but not retrievable: %v", id, err)
		}
		if !strings.Contains(xml, fmt.Sprintf("<LName>Doc%d</LName>", id)) {
			t.Fatalf("doc %d recovered half-applied:\n%s", id, xml)
		}
	}
	return got
}

func TestCrashRecoveryNoAckedLossUnderAlways(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess torture test")
	}
	bin := buildServerBinary(t)
	dtdFile := writeDTDFile(t)
	dataDir := t.TempDir()

	proc := startServerProc(t, bin, dataDir, dtdFile, "always")
	acked := runCrashCycle(t, proc, 20)
	t.Logf("server acknowledged %d loads before SIGKILL", len(acked))

	proc2 := startServerProc(t, bin, dataDir, dtdFile, "always")
	got := recoveredDocIDs(t, proc2.addr)
	for _, id := range acked {
		if !got[id] {
			t.Errorf("acked doc %d lost after crash", id)
		}
	}
	// At most one unacked in-flight load may have become durable.
	if extra := len(got) - len(acked); extra > 1 {
		t.Errorf("%d unacked documents survived, want <= 1", extra)
	}
	// Recovery must keep accepting writes on the recovered store.
	c, err := client.Dial(proc2.addr, client.WithTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Load(context.Background(), "post.xml", crashDoc(9999)); err != nil {
		t.Fatalf("load after recovery: %v", err)
	}
}

func TestCrashRecoveryPrefixUnderInterval(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess torture test")
	}
	bin := buildServerBinary(t)
	dtdFile := writeDTDFile(t)
	dataDir := t.TempDir()

	proc := startServerProc(t, bin, dataDir, dtdFile, "interval")
	acked := runCrashCycle(t, proc, 20)
	t.Logf("server acknowledged %d loads before SIGKILL", len(acked))

	proc2 := startServerProc(t, bin, dataDir, dtdFile, "interval")
	got := recoveredDocIDs(t, proc2.addr)
	// Bounded loss: the survivors form a prefix of the load history —
	// DocIDs 1..K with no gaps (a gap would mean a LATER commit survived
	// an earlier one, which the sequential log cannot produce).
	max := 0
	for id := range got {
		if id > max {
			max = id
		}
	}
	for id := 1; id <= max; id++ {
		if !got[id] {
			t.Errorf("gap in recovered prefix: doc %d missing but doc %d present", id, max)
		}
	}
	t.Logf("recovered prefix 1..%d of %d acked loads", max, len(acked))
}
