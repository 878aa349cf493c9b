package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"xmlordb/internal/client"
)

// The replication torture test runs a real primary and two real replica
// subprocesses, SIGKILLs the primary under write traffic, promotes the
// most-advanced replica and checks the failover contract:
//
//   - every commit confirmed replicated before the kill window opened
//     survives promotion — zero acked-commit loss for replicated writes;
//   - the survivors form a gapless prefix of the acknowledged history
//     (commits ship in order, so a gap would mean a torn stream);
//   - the promoted server accepts writes;
//   - a stale replica pointed at the promoted primary re-seeds via
//     snapshot transfer and converges to the same row count and LSN.

// startPrimaryProc launches a durable primary hosting store "uni" with
// tiny WAL segments so checkpoints truncate aggressively.
func startPrimaryProc(t *testing.T, bin, dataDir, dtdFile string) *serverProc {
	t.Helper()
	return launchProc(t, bin, "serve",
		"-addr", "127.0.0.1:0",
		"-dtd", dtdFile, "-name", "uni", "-root", "University",
		"-snapshot-dir", dataDir,
		"-snapshot-interval", "1h", // failover must come from the stream, not a lucky checkpoint
		"-durability", "always",
		"-wal-segment-bytes", "256",
		"-repl-heartbeat", "100ms",
	)
}

// startReplicaProc launches a durable read replica of primaryAddr.
func startReplicaProc(t *testing.T, bin, dataDir, primaryAddr string) *serverProc {
	t.Helper()
	return launchProc(t, bin, "serve",
		"-addr", "127.0.0.1:0",
		"-replica-of", primaryAddr,
		"-snapshot-dir", dataDir,
		"-snapshot-interval", "1h",
		"-durability", "always", // acked units are fsynced before the ack
		"-wal-segment-bytes", "256",
		"-repl-retry", "50ms",
		"-repl-heartbeat", "100ms",
	)
}

// docCountAt counts documents on a live server, or -1 while the store
// is still syncing over.
func docCountAt(t *testing.T, addr string) int {
	t.Helper()
	c, err := client.Dial(addr, client.WithTimeout(5*time.Second))
	if err != nil {
		return -1
	}
	defer c.Close()
	res, err := c.Query(context.Background(), "SELECT DocID FROM TabUniversity")
	if err != nil {
		return -1
	}
	return len(res.Rows)
}

// replStateAt reads a replica's applied LSN and snapshot-transfer count
// for store "uni" from its STATS payload.
func replStateAt(t *testing.T, addr string) (applied uint64, snapshots int64) {
	t.Helper()
	c, err := client.Dial(addr, client.WithTimeout(5*time.Second))
	if err != nil {
		return 0, 0
	}
	defer c.Close()
	st, err := c.Stats(context.Background())
	if err != nil || st.Repl == nil {
		return 0, 0
	}
	for _, s := range st.Repl.Stores {
		if s.Store == "uni" {
			return s.AppliedLSN, s.Snapshots
		}
	}
	return 0, 0
}

// waitDocCount polls until addr serves exactly want documents.
func waitDocCount(t *testing.T, addr string, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if docCountAt(t, addr) == want {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("server %s never reached %d documents (has %d)", addr, want, docCountAt(t, addr))
}

func TestReplPromoteAfterPrimaryKill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess torture test")
	}
	bin := buildServerBinary(t)
	dtdFile := writeDTDFile(t)

	primary := startPrimaryProc(t, bin, t.TempDir(), dtdFile)
	r1dir, r2dir := t.TempDir(), t.TempDir()
	r1 := startReplicaProc(t, bin, r1dir, primary.addr)
	r2 := startReplicaProc(t, bin, r2dir, primary.addr)

	pc, err := client.Dial(primary.addr, client.WithTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	ctx := context.Background()

	// Phase A: writes confirmed replicated before the kill window opens.
	// These MUST survive promotion — zero acked-commit loss.
	const replicated = 10
	for i := 1; i <= replicated; i++ {
		if _, err := pc.Load(ctx, fmt.Sprintf("doc%d.xml", i), crashDoc(i)); err != nil {
			t.Fatalf("phase A load %d: %v", i, err)
		}
	}
	waitDocCount(t, r1.addr, replicated)
	waitDocCount(t, r2.addr, replicated)

	// Phase B: keep writing while a second goroutine SIGKILLs the
	// primary, so the kill races genuinely in-flight replication.
	acked := replicated
	var ackCount atomic.Int64
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.Now().Add(30 * time.Second)
		for ackCount.Load() < 10 {
			if time.Now().After(deadline) {
				t.Error("primary never reached the phase B ack threshold")
				break
			}
			time.Sleep(time.Millisecond)
		}
		primary.kill(t)
	}()
	for i := replicated + 1; ; i++ {
		if _, err := pc.Load(ctx, fmt.Sprintf("doc%d.xml", i), crashDoc(i)); err != nil {
			break // the kill landed
		}
		acked = i
		ackCount.Add(1)
	}
	<-killed
	t.Logf("primary acknowledged %d loads before SIGKILL", acked)

	// Promote whichever replica applied the most WAL.
	a1, _ := replStateAt(t, r1.addr)
	a2, _ := replStateAt(t, r2.addr)
	winner, loser, loserDir := r1, r2, r2dir
	if a2 > a1 {
		winner, loser, loserDir = r2, r1, r1dir
	}
	t.Logf("applied LSNs: r1=%d r2=%d; promoting %s", a1, a2, winner.addr)

	wc, err := client.Dial(winner.addr, client.WithTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	role, lsn, err := wc.Promote(ctx)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if role != "primary" || lsn == 0 {
		t.Fatalf("promote returned role %q lsn %d", role, lsn)
	}

	// Zero acked loss for replicated writes, gapless prefix overall,
	// every survivor fully retrievable (checked by recoveredDocIDs).
	got := recoveredDocIDs(t, winner.addr)
	for i := 1; i <= replicated; i++ {
		if !got[i] {
			t.Errorf("replicated doc %d lost after promotion", i)
		}
	}
	max := 0
	for id := range got {
		if id > max {
			max = id
		}
	}
	for id := 1; id <= max; id++ {
		if !got[id] {
			t.Errorf("gap in promoted replica: doc %d missing but doc %d present", id, max)
		}
	}
	if max > acked+1 {
		t.Errorf("promoted replica has doc %d, beyond the %d acked (+1 in-flight) loads", max, acked)
	}
	t.Logf("promoted replica holds gapless prefix 1..%d of %d acked loads", max, acked)

	// The promoted server is writable.
	if _, err := wc.Load(ctx, "post.xml", crashDoc(max+1)); err != nil {
		t.Fatalf("write after promote: %v", err)
	}

	// Stale-replica resync: the loser (still pointed at the dead
	// primary) is killed, the new primary advances and checkpoints —
	// truncating its WAL past the loser's position — then the loser's
	// data directory is restarted against the promoted primary. It must
	// re-seed via snapshot transfer and converge.
	loser.kill(t)
	for i := 0; i < 5; i++ {
		if _, err := wc.Load(ctx, fmt.Sprintf("extra%d.xml", i), crashDoc(max+2+i)); err != nil {
			t.Fatalf("post-promotion load: %v", err)
		}
	}
	if err := wc.Save(ctx); err != nil { // checkpoint: truncates the WAL
		t.Fatal(err)
	}

	loser2 := startReplicaProc(t, bin, loserDir, winner.addr)
	wantDocs := docCountAt(t, winner.addr)
	waitDocCount(t, loser2.addr, wantDocs)

	wst, err := wc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var wantLSN uint64
	for _, s := range wst.StoreStats {
		if s.Name == "uni" {
			wantLSN = s.WALLastLSN
		}
	}
	if wantLSN == 0 {
		t.Fatal("promoted primary reports no WAL position for uni")
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		applied, snaps := replStateAt(t, loser2.addr)
		if applied >= wantLSN && snaps > 0 {
			t.Logf("stale replica converged: applied LSN %d, %d snapshot transfer(s)", applied, snaps)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale replica did not converge via snapshot: applied %d (want >= %d), snapshots %d",
				applied, wantLSN, snaps)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
