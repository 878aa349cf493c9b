package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"xmlordb/internal/client"
	"xmlordb/internal/repl"
	"xmlordb/internal/wire"
)

// electCfg returns a Config with fast failover timings for tests.
func electCfg() Config {
	return Config{
		ElectionTimeout: 500 * time.Millisecond,
		LeaseInterval:   50 * time.Millisecond,
	}
}

// positionOf asks addr for its POSITION over a throwaway connection.
func positionOf(t *testing.T, addr string) (repl.PeerPosition, []string, error) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return repl.PeerPosition{}, nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if err := wire.WriteFrame(conn, &wire.Request{Verb: wire.VerbPosition}); err != nil {
		return repl.PeerPosition{}, nil, err
	}
	line, err := wire.ReadFrame(bufio.NewReader(conn), wire.DefaultMaxFrame)
	if err != nil {
		return repl.PeerPosition{}, nil, err
	}
	resp, err := wire.DecodeResponse(line)
	if err != nil {
		return repl.PeerPosition{}, nil, err
	}
	return repl.PeerPosition{Addr: addr, Role: resp.Role, Epoch: resp.Epoch,
		Durable: resp.LSN, Primary: resp.Primary}, resp.Peers, nil
}

// Replicas that join at once each save PEERS from their own handshake
// goroutine. The file must end up naming every member: a revived
// ex-primary finds the new primary only among the members it loads.
func TestPeersSavedConcurrentlyKeepEveryMember(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{SnapshotDir: dir})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.addMember(fmt.Sprintf("127.0.0.1:%d", 9000+i))
		}()
	}
	wg.Wait()
	loaded := New(Config{SnapshotDir: dir})
	loaded.loadPeers()
	if got := loaded.memberList(); len(got) != 16 {
		t.Fatalf("PEERS holds %d of 16 members: %v", len(got), got)
	}
}

// The tentpole scenario, in-process: the primary dies, the replicas
// notice the lease expiry, elect the deterministic winner with no
// operator involvement, the loser retargets to the winner, and writes
// flow again end to end.
func TestAutomaticFailoverElection(t *testing.T) {
	primary, paddr := startPrimary(t, electCfg())
	pc := mustDial(t, paddr)
	ctx := context.Background()
	if _, err := pc.Load(ctx, "a.xml", uniDoc("A", 1)); err != nil {
		t.Fatal(err)
	}

	r1, r1addr := startReplica(t, paddr, electCfg())
	r2, r2addr := startReplica(t, paddr, electCfg())
	rc1 := mustDial(t, r1addr)
	rc2 := mustDial(t, r2addr)
	replicaCaughtUp(t, primary, rc1)
	replicaCaughtUp(t, primary, rc2)

	// Heartbeat lease metadata must teach every replica the full member
	// list before the primary dies, or the survivors cannot see a quorum.
	waitFor(t, 10*time.Second, func() bool {
		for _, addr := range []string{r1addr, r2addr} {
			_, peers, err := positionOf(t, addr)
			if err != nil || len(peers) != 3 {
				return false
			}
		}
		return true
	})

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := primary.Shutdown(shutCtx); err != nil {
		t.Fatalf("killing primary: %v", err)
	}

	// Exactly one survivor promotes; the other follows it.
	var winner, loser *Server
	var winnerAddr string
	var loserC *client.Client
	waitFor(t, 15*time.Second, func() bool {
		p1, p2 := r1.Role() == RolePrimary, r2.Role() == RolePrimary
		if p1 == p2 {
			return false // nobody yet, or (transiently impossible) both
		}
		if p1 {
			winner, winnerAddr, loser, loserC = r1, r1addr, r2, rc2
		} else {
			winner, winnerAddr, loser, loserC = r2, r2addr, r1, rc1
		}
		pos, _, err := positionOf(t, loser.Addr().String())
		return err == nil && pos.Role == RoleReplica && pos.Primary == winnerAddr
	})

	// The new primary accepts writes on a bumped epoch and the loser
	// replicates them.
	wpos, _, err := positionOf(t, winnerAddr)
	if err != nil {
		t.Fatal(err)
	}
	if wpos.Epoch < 2 {
		t.Errorf("new primary still on epoch %d; promotion must fork the timeline", wpos.Epoch)
	}
	wc := mustDial(t, winnerAddr)
	if _, err := wc.Load(ctx, "after.xml", uniDoc("After", 2)); err != nil {
		t.Fatalf("write on elected primary: %v", err)
	}
	replicaCaughtUp(t, winner, loserC)
	if got, want := studentCount(t, loserC), studentCount(t, wc); got != want {
		t.Errorf("election loser has %d students, new primary %d", got, want)
	}
}

// A revived ex-primary — booted from its old data directory, still
// believing it is a primary of the old timeline — finds the new primary
// through its persisted peer list and demotes itself to a replica, with
// zero operator commands.
func TestExPrimaryRejoinsAsReplica(t *testing.T) {
	pdir := t.TempDir()
	cfg := electCfg()
	cfg.SnapshotDir = pdir
	primary, paddr := startPrimary(t, cfg)
	pc := mustDial(t, paddr)
	ctx := context.Background()
	if _, err := pc.Load(ctx, "a.xml", uniDoc("A", 1)); err != nil {
		t.Fatal(err)
	}

	r1, r1addr := startReplica(t, paddr, electCfg())
	rc1 := mustDial(t, r1addr)
	_, r2addr := startReplica(t, paddr, electCfg())
	rc2 := mustDial(t, r2addr)
	replicaCaughtUp(t, primary, rc1)
	replicaCaughtUp(t, primary, rc2)
	waitFor(t, 10*time.Second, func() bool {
		_, peers, err := positionOf(t, r1addr)
		return err == nil && len(peers) == 3
	})

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := primary.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, func() bool {
		p1, _, err1 := positionOf(t, r1addr)
		p2, _, err2 := positionOf(t, r2addr)
		return err1 == nil && err2 == nil &&
			(p1.Role == RolePrimary) != (p2.Role == RolePrimary)
	})
	newPrimaryAddr := r1addr
	if p, _, _ := positionOf(t, r2addr); p.Role == RolePrimary {
		newPrimaryAddr = r2addr
	}
	npc := mustDial(t, newPrimaryAddr)
	if _, err := npc.Load(ctx, "b.xml", uniDoc("B", 2)); err != nil {
		t.Fatal(err)
	}

	// Revive the dead primary from its directory. It boots as a primary
	// of epoch 1, loads its persisted PEERS, and its demotion guard must
	// find the epoch-2 primary and follow it — no operator commands.
	rcfg := electCfg()
	rcfg.SnapshotDir = pdir
	rcfg.Durability = "never"
	rcfg.ReplRetry = 20 * time.Millisecond
	revived := New(rcfg)
	if _, err := revived.RestoreDir(); err != nil {
		t.Fatal(err)
	}
	revived, raddr := serveOn(t, revived)
	if revived.Role() != RolePrimary {
		t.Fatalf("revived ex-primary booted as %s, want primary (the demotion is the test)", revived.Role())
	}

	waitFor(t, 15*time.Second, func() bool {
		pos, _, err := positionOf(t, raddr)
		return err == nil && pos.Role == RoleReplica && pos.Primary == newPrimaryAddr
	})
	// And it converges onto the new timeline.
	rvc := mustDial(t, raddr)
	replicaCaughtUp(t, r1, rvc)
	if r1addr != newPrimaryAddr {
		replicaCaughtUp(t, r1, rvc) // r1 is the loser; counts still match below
	}
	waitFor(t, 10*time.Second, func() bool {
		return studentCount(t, rvc) == studentCount(t, npc)
	})
}

// Read-your-writes: an RW client's read immediately after its own write
// is never stale, no matter which replica serves it — the write's LSN
// rides the read as WAIT_LSN and the replica either waits it out or
// turns the read away.
func TestReadYourWritesNeverStale(t *testing.T) {
	primary, paddr := startPrimary(t, Config{})
	_, raddr := startReplica(t, paddr, Config{})
	rc := mustDial(t, raddr)
	ctx := context.Background()

	rw, err := client.DialRW(paddr, []string{raddr}, client.WithTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()

	// Warm the replica so reads actually route to it.
	if _, err := rw.Load(ctx, "warm.xml", uniDoc("Warm", 0)); err != nil {
		t.Fatal(err)
	}
	replicaCaughtUp(t, primary, rc)

	// Write → read, back to back, many times. Without WAIT_LSN routing
	// this races the replication stream and reads stale counts.
	for i := 1; i <= 10; i++ {
		if _, err := rw.Load(ctx, fmt.Sprintf("d%d.xml", i), uniDoc(fmt.Sprintf("D%d", i), i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		res, err := rw.Query(ctx, countStudentsSQL)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got := len(res.Rows); got != i+1 {
			t.Fatalf("read %d saw %d students, want %d — read-your-writes violated", i, got, i+1)
		}
	}
	if rw.LastLSN() == 0 {
		t.Error("RW client never recorded a write LSN")
	}
}

// A replica asked to wait for an LSN it will never reach answers
// CodeLagging within the read-wait budget instead of hanging.
func TestWaitLSNLaggingBudget(t *testing.T) {
	primary, paddr := startPrimary(t, Config{})
	cfg := Config{ReadWait: 50 * time.Millisecond}
	_, raddr := startReplica(t, paddr, cfg)
	rc := mustDial(t, raddr)
	replicaCaughtUp(t, primary, rc)

	conn, err := net.DialTimeout("tcp", raddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if err := wire.WriteFrame(conn, &wire.Request{Verb: wire.VerbSQL, SQL: countStudentsSQL, WaitLSN: 1 << 40}); err != nil {
		t.Fatal(err)
	}
	line, err := wire.ReadFrame(bufio.NewReader(conn), wire.DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeResponse(line)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != wire.CodeLagging {
		t.Fatalf("unreachable WAIT_LSN answered %+v, want code %q", resp, wire.CodeLagging)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("lagging answer took %v, want ~the 50ms budget", waited)
	}
}

// A replica attached to another replica — what an election loser does
// when it retargets onto the presumptive winner before that winner has
// promoted — is served a feed by it, learns the primary's address from
// its relayed heartbeats, and, when its upstream promotes mid-stream,
// adopts the bumped epoch from heartbeat metadata. Its feed survives the
// promotion, so without the mid-stream adopt it would keep the old epoch
// label and be forced through a pointless snapshot re-seed at its next
// handshake. The primary dies before the follower attaches: otherwise
// the follower's retarget probe would find it alive and move the
// follower there.
func TestReplicaOfReplicaAdoptsEpochMidStream(t *testing.T) {
	primary, paddr := startPrimary(t, Config{})
	pc := mustDial(t, paddr)
	ctx := context.Background()
	if _, err := pc.Load(ctx, "a.xml", uniDoc("A", 1)); err != nil {
		t.Fatal(err)
	}

	middle, maddr := startReplica(t, paddr, Config{})
	mc := mustDial(t, maddr)
	replicaCaughtUp(t, primary, mc)

	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	primary.Shutdown(sctx)
	cancel()

	follower, faddr := startReplica(t, maddr, Config{})
	fc := mustDial(t, faddr)
	replicaCaughtUp(t, middle, fc)
	if got, want := studentCount(t, fc), studentCount(t, mc); got != want {
		t.Errorf("follower has %d students, middle %d", got, want)
	}
	// The middle relays the primary's address: the follower redirects
	// writes there, and its retarget probe failed, so it is still
	// attached to the middle.
	waitFor(t, 10*time.Second, func() bool {
		_, err := fc.Load(ctx, "x.xml", uniDoc("X", 9))
		var ro *repl.ReadOnlyError
		return errors.As(err, &ro) && ro.Primary == paddr
	})
	if up := follower.currentUpstream(); up != maddr {
		t.Fatalf("follower replicates from %s, want the middle %s", up, maddr)
	}

	// Promote the middle. The follower stays attached across the
	// promotion — same stream, same WAL.
	if _, _, err := mc.Promote(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Load(ctx, "b.xml", uniDoc("B", 2)); err != nil {
		t.Fatal(err)
	}

	// The follower converges on the post-promotion write AND on the
	// bumped epoch, without reconnecting.
	replicaCaughtUp(t, middle, fc)
	if got, want := studentCount(t, fc), studentCount(t, mc); got != want {
		t.Errorf("follower has %d students after promotion, middle %d", got, want)
	}
	waitFor(t, 10*time.Second, func() bool {
		resp, err := fc.Position(ctx)
		return err == nil && resp.Epoch == 2
	})
}

// Semi-synchronous acks: with -repl-sync-acks 1 and no replica attached
// a commit times out with a distinct error (while remaining locally
// durable — at-least-once, not rollback); once a replica attaches and
// acks, the same write path succeeds.
func TestSemiSyncAcks(t *testing.T) {
	cfg := Config{ReplSyncAcks: 1, ReplSyncTimeout: 300 * time.Millisecond}
	primary, paddr := startPrimary(t, cfg)
	pc := mustDial(t, paddr)
	ctx := context.Background()

	_, err := pc.Load(ctx, "a.xml", uniDoc("A", 1))
	if err == nil || !strings.Contains(err.Error(), "semi-sync") {
		t.Fatalf("unreplicated semi-sync write returned %v, want semi-sync timeout", err)
	}
	// The write is locally durable: it applied and survives.
	if got := studentCount(t, pc); got != 1 {
		t.Fatalf("semi-sync timeout rolled back a locally-durable write: %d students", got)
	}

	_, raddr := startReplica(t, paddr, Config{})
	rc := mustDial(t, raddr)
	replicaCaughtUp(t, primary, rc)
	if _, err := pc.Load(ctx, "b.xml", uniDoc("B", 2)); err != nil {
		t.Fatalf("semi-sync write with an acking replica: %v", err)
	}
	replicaCaughtUp(t, primary, rc)
	if got := studentCount(t, rc); got != 2 {
		t.Errorf("replica has %d students after acked writes, want 2", got)
	}
}

// The RW client evicts an unreachable replica from the read rotation
// (reads keep working off the fallback) and re-probes it back in once
// it returns — proven by killing the primary afterwards: reads can then
// only succeed if the revived replica is back in rotation.
func TestRWClientEvictsAndReprobes(t *testing.T) {
	primary, paddr := startPrimary(t, Config{})
	rdir := t.TempDir()
	replica, raddr := startReplica(t, paddr, Config{SnapshotDir: rdir})
	rc := mustDial(t, raddr)
	ctx := context.Background()

	rw, err := client.DialRW(paddr, []string{raddr}, client.WithTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	rw.SetProbeInterval(20 * time.Millisecond)

	if _, err := rw.Load(ctx, "a.xml", uniDoc("A", 1)); err != nil {
		t.Fatal(err)
	}
	replicaCaughtUp(t, primary, rc)
	if _, err := rw.Query(ctx, countStudentsSQL); err != nil {
		t.Fatal(err)
	}

	// Kill the replica: reads must keep succeeding (primary fallback),
	// repeatedly — the dead replica is evicted, not retried to death.
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := replica.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := rw.Query(ctx, countStudentsSQL); err != nil {
			t.Fatalf("read %d with dead replica: %v", i, err)
		}
	}

	// Revive the replica on the same address from the same directory.
	ln, err := net.Listen("tcp", raddr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", raddr, err)
	}
	rcfg := Config{SnapshotDir: rdir, Durability: "never", ReplicaOf: paddr,
		ReplRetry: 20 * time.Millisecond, ReplHeartbeat: 50 * time.Millisecond}
	revived := New(rcfg)
	if _, err := revived.RestoreDir(); err != nil {
		t.Fatal(err)
	}
	if err := revived.StartReplication(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- revived.Serve(ln) }()
	t.Cleanup(func() {
		sc, c2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer c2()
		revived.Shutdown(sc)
		<-done
	})
	rc2 := mustDial(t, raddr)
	replicaCaughtUp(t, primary, rc2)

	// Let the re-probe window pass, then kill the primary: subsequent
	// reads can only be served by the revived replica.
	time.Sleep(100 * time.Millisecond)
	sc, c3 := context.WithTimeout(context.Background(), 5*time.Second)
	defer c3()
	if err := primary.Shutdown(sc); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		rctx, rcancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer rcancel()
		res, err := rw.Query(rctx, countStudentsSQL)
		return err == nil && len(res.Rows) == 1
	})
}
