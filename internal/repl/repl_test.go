package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"xmlordb/internal/wal"
	"xmlordb/internal/wire"
)

// memApplier is an in-memory Applier that records everything it is
// given and enforces the same contiguity contract the store does.
type memApplier struct {
	mu    sync.Mutex
	lsn   uint64
	epoch uint64
	units []wal.Unit
	snap  []byte
	fail  error // next ApplyUnit returns this once
	// trackDurable decouples DurableLSN from the applied position (it
	// then reports the manually-set durable field); false mimics a
	// sync-on-apply store where durable == applied.
	trackDurable bool
	durable      uint64
	history      []wire.EpochStart
	adopted      int // AdoptEpoch calls (epoch fast-forwards)
}

func (m *memApplier) ApplyUnit(recs []wal.Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail != nil {
		err := m.fail
		m.fail = nil
		return err
	}
	if recs[0].LSN != m.lsn+1 {
		return fmt.Errorf("gap: unit at %d, applied %d", recs[0].LSN, m.lsn)
	}
	m.units = append(m.units, append(wal.Unit(nil), recs...))
	m.lsn = recs[len(recs)-1].LSN
	return nil
}

func (m *memApplier) ResetFromSnapshot(lsn, epoch uint64, history []wire.EpochStart, snapshot []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snap = append([]byte(nil), snapshot...)
	m.units = nil
	m.lsn = lsn
	m.epoch = epoch
	m.history = append([]wire.EpochStart(nil), history...)
	m.durable = lsn
	return nil
}

func (m *memApplier) AdoptEpoch(epoch uint64, history []wire.EpochStart) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epoch = epoch
	m.history = append([]wire.EpochStart(nil), history...)
	m.adopted++
	return nil
}

func (m *memApplier) AppliedLSN() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lsn
}

func (m *memApplier) DurableLSN() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.trackDurable {
		return m.durable
	}
	return m.lsn
}

func (m *memApplier) setDurable(lsn uint64) {
	m.mu.Lock()
	m.durable = lsn
	m.mu.Unlock()
}

func (m *memApplier) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

func (m *memApplier) waitLSN(t *testing.T, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m.AppliedLSN() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("applier stuck at lsn %d, want %d", m.AppliedLSN(), want)
}

// feedServer accepts replication handshakes on a loopback listener and
// runs ServeFeed for each, standing in for the real server.
func feedServer(t *testing.T, cfg FeederConfig) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				br := bufio.NewReader(conn)
				line, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
				if err != nil {
					return
				}
				req, err := wire.DecodeRequest(line)
				if err != nil || req.Verb != wire.VerbReplicate {
					return
				}
				if err := wire.WriteFrame(conn, &wire.Response{OK: true, Role: "primary", Epoch: cfg.Epoch}); err != nil {
					return
				}
				go func() { // kill the stream when the test stops
					<-stopCh
					conn.Close()
				}()
				_ = ServeFeed(conn, br, req.LSN, req.Epoch, stopCh, cfg)
			}()
		}
	}()
	return ln.Addr().String(), func() {
		close(stopCh)
		ln.Close()
		wg.Wait()
	}
}

func appendUnit(t *testing.T, log *wal.Log, n int) uint64 {
	t.Helper()
	entries := make([]wal.Entry, n)
	for i := range entries {
		entries[i] = wal.Entry{Type: 1, Payload: []byte(fmt.Sprintf("rec-%d", i))}
	}
	last, err := log.AppendBatch(entries)
	if err != nil {
		t.Fatal(err)
	}
	return last
}

func openLog(t *testing.T) *wal.Log {
	t.Helper()
	// Tiny segments so TruncateBefore has prune candidates in tests.
	log, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	return log
}

// An empty replica (handshake LSN 0) gets a snapshot transfer, then the
// backlog, then live units as they commit.
func TestSnapshotThenTail(t *testing.T) {
	log := openLog(t)
	appendUnit(t, log, 2) // 1..2 covered by the "snapshot"
	appendUnit(t, log, 3) // 3..5 backlog after the snapshot position

	// A multi-chunk snapshot: 2.5 chunks exercises the reassembly path.
	snapData := make([]byte, wire.ReplSnapChunk*2+wire.ReplSnapChunk/2)
	for i := range snapData {
		snapData[i] = byte(i)
	}
	cfg := FeederConfig{
		Log:       log,
		Snapshot:  func() (uint64, []byte, error) { return 2, snapData, nil },
		Heartbeat: 20 * time.Millisecond,
	}
	addr, stopFeed := feedServer(t, cfg)
	defer stopFeed()

	app := &memApplier{}
	st := &Status{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		Run(stop, ReplicaConfig{Addr: addr, Store: "uni", Applier: app, Status: st, Retry: 10 * time.Millisecond})
	}()
	defer func() { close(stop); wg.Wait() }()

	app.waitLSN(t, 5)
	app.mu.Lock()
	if len(app.snap) != len(snapData) {
		t.Errorf("snapshot reassembled to %d bytes, want %d", len(app.snap), len(snapData))
	}
	if len(app.units) != 1 || app.units[0][0].LSN != 3 || app.units[0][2].LSN != 5 {
		t.Errorf("backlog units wrong: %+v", app.units)
	}
	app.mu.Unlock()

	// Live tail: a commit on the primary reaches the replica.
	appendUnit(t, log, 2) // 6..7
	app.waitLSN(t, 7)

	rep := st.Report("uni", app.AppliedLSN())
	if !rep.Connected || rep.AppliedLSN != 7 || rep.PrimaryLSN != 7 || rep.Snapshots != 1 {
		t.Errorf("status: %+v", rep)
	}
}

// A replica whose handshake position is inside the retained log gets
// only the tail — no snapshot transfer.
func TestTailOnlyCatchUp(t *testing.T) {
	log := openLog(t)
	appendUnit(t, log, 2) // 1..2
	appendUnit(t, log, 2) // 3..4

	snapCalls := 0
	cfg := FeederConfig{
		Log:      log,
		Snapshot: func() (uint64, []byte, error) { snapCalls++; return 0, nil, nil },
	}
	addr, stopFeed := feedServer(t, cfg)
	defer stopFeed()

	app := &memApplier{lsn: 2} // already has unit 1..2
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		Run(stop, ReplicaConfig{Addr: addr, Store: "uni", Applier: app, Retry: 10 * time.Millisecond})
	}()
	defer func() { close(stop); wg.Wait() }()

	app.waitLSN(t, 4)
	if snapCalls != 0 {
		t.Errorf("snapshot transferred for an in-range replica (%d calls)", snapCalls)
	}
	app.mu.Lock()
	if len(app.units) != 1 || app.units[0][0].LSN != 3 {
		t.Errorf("units: %+v", app.units)
	}
	app.mu.Unlock()
}

// The feeder pins retention at the replica's acked position: a
// checkpoint-driven TruncateBefore cannot delete the backlog a
// connected replica still needs.
func TestFeederPinsRetention(t *testing.T) {
	log := openLog(t)
	appendUnit(t, log, 2) // 1..2

	// Handshake at lsn 2, then never ack: the pin sits at 3. The
	// feeder's first heartbeat is sent after pinning, so reading it
	// guarantees the pin exists.
	conn := dialHandshake(t, log, 2)
	defer conn.Close()
	br := bufio.NewReader(conn)
	if _, err := wire.ReadFrame(br, wire.ReplMaxFrame); err != nil {
		t.Fatal(err)
	}

	// Append past the replica and truncate aggressively: the pin at
	// lsn 3 must keep every segment holding lsn >= 3 alive.
	appendUnit(t, log, 2) // 3..4
	appendUnit(t, log, 2) // 5..6
	log.TruncateBefore(log.LastLSN() + 1)
	if first := log.FirstLSN(); first > 3 {
		t.Fatalf("retention passed the pinned replica: FirstLSN %d, pin 3", first)
	}
	units, _, err := log.ReadUnits(3, 0)
	if err != nil || len(units) == 0 || units[0][0].LSN != 3 {
		t.Fatalf("pinned backlog unreadable: units=%d err=%v", len(units), err)
	}

	// The pin lives only as long as the stream: once the replica
	// disconnects, truncation passes its position.
	conn.Close()
	waitCond(t, "disconnected replica releases its pin", func() bool {
		log.TruncateBefore(log.LastLSN() + 1)
		return log.FirstLSN() > 3
	})
}

// An apply failure forces the next handshake to LSN 0 — a snapshot
// transfer — instead of retrying a stream the store cannot continue.
func TestApplyErrorForcesResync(t *testing.T) {
	log := openLog(t)
	appendUnit(t, log, 1) // 1

	var mu sync.Mutex
	handshakes := []uint64{}
	cfg := FeederConfig{
		Log:      log,
		Snapshot: func() (uint64, []byte, error) { return log.LastLSN(), []byte("snap"), nil },
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stopCh := make(chan struct{})
	defer close(stopCh)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				line, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
				if err != nil {
					return
				}
				req, _ := wire.DecodeRequest(line)
				mu.Lock()
				handshakes = append(handshakes, req.LSN)
				mu.Unlock()
				_ = wire.WriteFrame(conn, &wire.Response{OK: true, Epoch: cfg.Epoch})
				_ = ServeFeed(conn, br, req.LSN, req.Epoch, stopCh, cfg)
			}()
		}
	}()

	app := &memApplier{fail: errors.New("poisoned store")}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		Run(stop, ReplicaConfig{Addr: ln.Addr().String(), Store: "uni", Applier: app, Retry: 5 * time.Millisecond})
	}()
	defer func() { close(stop); wg.Wait() }()

	// First connection: handshake 0 (fresh applier) → snapshot. Wait for
	// it, then commit a unit; applying it fails once, so the reconnect
	// MUST be at LSN 0 again (forced snapshot), not at the position the
	// broken store claims.
	waitCond(t, "first snapshot applied", func() bool { return app.AppliedLSN() >= 1 })
	appendUnit(t, log, 2) // 2..3
	waitCond(t, "second handshake", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(handshakes) >= 2
	})
	mu.Lock()
	second := handshakes[1]
	mu.Unlock()
	if second != 0 {
		t.Fatalf("reconnect after apply failure handshook at %d, want 0 (forced snapshot)", second)
	}
	app.waitLSN(t, log.LastLSN()) // and it converges
}

// A commit unit whose payload exceeds the feeder's per-read budget (one
// segment's worth: 64 bytes here) must still stream — the old ReadUnits
// broke mid-unit, returned "caught up" and livelocked replication on
// that unit forever.
func TestOversizedUnitStreams(t *testing.T) {
	log := openLog(t) // SegmentBytes 64 = the ReadUnits default budget
	appendUnit(t, log, 2) // 1..2
	appendUnit(t, log, 6) // 3..8: ~23 bytes/record = 138 bytes, over budget

	addr, stopFeed := feedServer(t, FeederConfig{Log: log})
	defer stopFeed()

	app := &memApplier{lsn: 2}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		Run(stop, ReplicaConfig{Addr: addr, Store: "uni", Applier: app, Retry: 10 * time.Millisecond})
	}()
	defer func() { close(stop); wg.Wait() }()

	app.waitLSN(t, 8)
	app.mu.Lock()
	defer app.mu.Unlock()
	if len(app.units) != 1 || len(app.units[0]) != 6 || app.units[0][0].LSN != 3 {
		t.Fatalf("oversized unit arrived wrong: %d units, first %+v", len(app.units), app.units)
	}
}

// A replica whose epoch differs from the primary's is snapshot
// re-seeded even when its LSN position looks continuable — that is the
// stale-ex-primary case where LSN arithmetic alone would silently graft
// histories.
func TestEpochMismatchForcesSnapshot(t *testing.T) {
	log := openLog(t)
	appendUnit(t, log, 2) // 1..2
	appendUnit(t, log, 2) // 3..4

	snapCalls := 0
	var mu sync.Mutex
	cfg := FeederConfig{
		Log:   log,
		Epoch: 2,
		Snapshot: func() (uint64, []byte, error) {
			mu.Lock()
			snapCalls++
			mu.Unlock()
			return log.LastLSN(), []byte("snap"), nil
		},
	}
	addr, stopFeed := feedServer(t, cfg)
	defer stopFeed()

	// In-range position (lsn 2 < last 4) but old timeline (epoch 1).
	app := &memApplier{lsn: 2, epoch: 1}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		Run(stop, ReplicaConfig{Addr: addr, Store: "uni", Applier: app, Retry: 10 * time.Millisecond})
	}()
	defer func() { close(stop); wg.Wait() }()

	app.waitLSN(t, 4)
	mu.Lock()
	calls := snapCalls
	mu.Unlock()
	if calls == 0 {
		t.Fatal("epoch mismatch did not force a snapshot re-seed")
	}
	app.mu.Lock()
	defer app.mu.Unlock()
	if string(app.snap) != "snap" || app.epoch != 2 {
		t.Fatalf("replica not re-seeded onto the new timeline: snap=%q epoch=%d", app.snap, app.epoch)
	}
}

// A unit bigger than the feeder's frame budget is split across frames
// (including mid-payload) and reassembled byte-identically by the
// replica.
func TestChunkedUnitReassembly(t *testing.T) {
	log := openLog(t)
	appendUnit(t, log, 1) // 1

	payloads := make([][]byte, 3)
	entries := make([]wal.Entry, 3)
	for i := range entries {
		p := make([]byte, 40+i)
		for j := range p {
			p[j] = byte(i*64 + j)
		}
		payloads[i] = p
		entries[i] = wal.Entry{Type: 1, Payload: p}
	}
	if _, err := log.AppendBatch(entries); err != nil { // 2..4
		t.Fatal(err)
	}

	// 16-byte frames force every record to split mid-payload.
	addr, stopFeed := feedServer(t, FeederConfig{Log: log, UnitChunkBytes: 16})
	defer stopFeed()

	app := &memApplier{lsn: 1}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		Run(stop, ReplicaConfig{Addr: addr, Store: "uni", Applier: app, Retry: 10 * time.Millisecond})
	}()
	defer func() { close(stop); wg.Wait() }()

	app.waitLSN(t, 4)
	app.mu.Lock()
	defer app.mu.Unlock()
	if len(app.units) != 1 || len(app.units[0]) != 3 {
		t.Fatalf("chunked unit arrived wrong: %+v", app.units)
	}
	for i, rec := range app.units[0] {
		if rec.LSN != uint64(2+i) || string(rec.Payload) != string(payloads[i]) {
			t.Fatalf("record %d reassembled wrong: lsn=%d payload %d bytes, want %d",
				i, rec.LSN, len(rec.Payload), len(payloads[i]))
		}
		if wantCommit := i == 2; rec.Commit != wantCommit {
			t.Fatalf("record %d commit=%v, want %v", i, rec.Commit, wantCommit)
		}
	}
}

// Acks carry the durable position, not the applied one: the primary
// must never truncate past what a replica crash could lose. Heartbeats
// catch the ack up once the replica's sync advances.
func TestDurableAckGating(t *testing.T) {
	log := openLog(t)
	appendUnit(t, log, 2) // 1..2

	fs := &FeedStatus{}
	addr, stopFeed := feedServer(t, FeederConfig{Log: log, Status: fs, Heartbeat: 10 * time.Millisecond})
	defer stopFeed()

	app := &memApplier{lsn: 2, trackDurable: true, durable: 2}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		Run(stop, ReplicaConfig{Addr: addr, Store: "uni", Applier: app, Retry: 10 * time.Millisecond})
	}()
	defer func() { close(stop); wg.Wait() }()

	appendUnit(t, log, 2) // 3..4
	app.waitLSN(t, 4)
	// Applied is 4 but durable is still 2: the ack must not advance.
	time.Sleep(50 * time.Millisecond) // a few heartbeats' worth
	if acked := fs.AckedLSN(); acked > 2 {
		t.Fatalf("ack ran ahead of the durable position: acked %d, durable 2", acked)
	}
	// The replica syncs; the next heartbeat-driven ack catches up.
	app.setDurable(4)
	waitCond(t, "ack catches up to durable", func() bool { return fs.AckedLSN() == 4 })
}

// dialHandshake connects to a throwaway feeder for log and completes
// the handshake at lastApplied, returning the raw conn.
func dialHandshake(t *testing.T, log *wal.Log, lastApplied uint64) net.Conn {
	t.Helper()
	cfg := FeederConfig{
		Log:      log,
		Snapshot: func() (uint64, []byte, error) { return 0, nil, errors.New("no snapshot in this test") },
	}
	addr, stopFeed := feedServer(t, cfg)
	t.Cleanup(stopFeed)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, &wire.Request{Verb: wire.VerbReplicate, Name: "uni", LSN: lastApplied}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeResponse(line)
	if err != nil || !resp.OK {
		t.Fatalf("handshake: %v %+v", err, resp)
	}
	return conn
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
