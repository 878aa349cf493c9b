package repl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"xmlordb/internal/wal"
	"xmlordb/internal/wire"
)

// DefaultHeartbeat is the feeder's idle heartbeat interval.
const DefaultHeartbeat = time.Second

// FeederConfig wires ServeFeed to one store on the primary.
type FeederConfig struct {
	// Log is the store's write-ahead log.
	Log *wal.Log
	// Snapshot returns the store's current checkpoint snapshot and the
	// WAL position it covers. The callback is responsible for whatever
	// locking the store requires.
	Snapshot func() (lsn uint64, data []byte, err error)
	// Epoch is the primary's current timeline for this store. A replica
	// whose handshake epoch differs is snapshot re-seeded — unless the
	// Epochs history proves its position predates the fork, in which
	// case the stream fast-forwards it onto the new timeline.
	Epoch uint64
	// Epochs is the store's epoch history (where each timeline began).
	// Empty = no history known: every cross-epoch handshake re-seeds.
	Epochs []wire.EpochStart
	// EpochNow, when non-nil, returns the store's epoch and history at
	// call time rather than the handshake-time Epoch/Epochs above.
	// Heartbeats carry it so a feed that crosses a promotion (this node
	// elected itself mid-stream) moves its downstream replicas onto the
	// new timeline without a reconnect.
	EpochNow func() (uint64, []wire.EpochStart)
	// Primary, when non-nil, returns the writable primary's advertised
	// address for heartbeat lease metadata. On a feeding replica this is
	// the primary it knows of, not the feeder itself.
	Primary func() string
	// Peers, when non-nil, returns the cluster member list for
	// heartbeat lease metadata.
	Peers func() []string
	// LeaseFresh, when non-nil, reports whether this feeder's node is
	// rooted at a live primary: true on the primary itself, and on a
	// relaying replica only while its own lease is rooted-fresh. Frames
	// are marked lease-bearing only when it returns true, so election
	// leases can never be kept alive by a cycle of headless replicas
	// feeding each other. nil = always lease-bearing (plain replication
	// without automatic failover).
	LeaseFresh func() bool
	// OnAck, when non-nil, observes every replica ack (the replica's
	// durable LSN). The server uses it to release semi-synchronous
	// commit waits.
	OnAck func(lsn uint64)
	// UnitChunkBytes bounds the raw record payload per unit frame; a
	// larger unit is split across frames and reassembled by the
	// replica. 0 = wire.ReplUnitChunk. Tests use tiny values to
	// exercise the chunk path.
	UnitChunkBytes int
	// Heartbeat is the idle heartbeat interval (DefaultHeartbeat if 0).
	Heartbeat time.Duration
	// Status, when non-nil, is updated live for the STATS registry.
	Status *FeedStatus
	// Logf receives feeder diagnostics (nil = discard).
	Logf func(string, ...any)
}

// FeedStatus is one connected replica's live state as the primary sees
// it. Safe for concurrent use; the server keeps one per replication
// session in its registry.
type FeedStatus struct {
	// Addr is the replica's remote address (set by the server).
	Addr string

	acked        atomic.Uint64
	sentUnits    atomic.Int64
	sentBytes    atomic.Int64
	snapshotSent atomic.Bool
	lastAckNanos atomic.Int64 // UnixNano of last ack, 0 = never
}

// Stat renders the registry entry for STATS.
func (fs *FeedStatus) Stat(primaryLSN uint64) wire.ReplicaStat {
	acked := fs.acked.Load()
	lag := int64(0)
	if primaryLSN > acked {
		lag = int64(primaryLSN - acked)
	}
	lastMS := int64(-1)
	if ns := fs.lastAckNanos.Load(); ns != 0 {
		lastMS = time.Since(time.Unix(0, ns)).Milliseconds()
	}
	return wire.ReplicaStat{
		Addr:         fs.Addr,
		AckedLSN:     acked,
		LagRecords:   lag,
		SentUnits:    fs.sentUnits.Load(),
		SentBytes:    fs.sentBytes.Load(),
		SnapshotSent: fs.snapshotSent.Load(),
		LastAckMS:    lastMS,
	}
}

// AckedLSN reports the replica's last acked position.
func (fs *FeedStatus) AckedLSN() uint64 { return fs.acked.Load() }

// ServeFeed runs the primary side of one replication stream after the
// REPLICATE handshake: w/br are the connection (the OK response is
// already sent), lastApplied and lastEpoch are the replica's handshake
// position and timeline. The feeder pins WAL retention at the replica's
// position, serves a checkpoint snapshot transfer when the replica is
// empty, diverged (by LSN or by epoch), or behind the retention
// horizon, then streams commit units and heartbeats until the stream
// fails or stop closes. The retention pin lives exactly as long as the
// stream: a replica that disconnects releases it. The returned error
// describes why the stream ended (nil = stop requested).
func ServeFeed(w io.Writer, br *bufio.Reader, lastApplied, lastEpoch uint64, stop <-chan struct{}, cfg FeederConfig) error {
	lg := logf(cfg.Logf)
	fs := cfg.Status
	if fs == nil {
		fs = &FeedStatus{}
	}
	heartbeat := cfg.Heartbeat
	if heartbeat <= 0 {
		heartbeat = DefaultHeartbeat
	}
	leaseFresh := func() bool { return cfg.LeaseFresh == nil || cfg.LeaseFresh() }

	// Pin retention at the replica's position before looking at the
	// log's horizon: once the pin is in place TruncateBefore cannot pass
	// it, so the horizon check below cannot be raced stale.
	from := lastApplied + 1
	pin := cfg.Log.Pin(from)
	defer pin.Release()
	fs.acked.Store(lastApplied)

	if lastEpoch > cfg.Epoch {
		// The replica lives on a newer timeline than this feeder: WE are
		// the stale side. Serving our history would roll the replica
		// backwards; refuse and let it retarget (or let our own demotion
		// guard catch up).
		sendErr(w, fmt.Sprintf("replica epoch %d is newer than feeder epoch %d", lastEpoch, cfg.Epoch))
		return fmt.Errorf("repl: replica on newer epoch %d (feeder at %d)", lastEpoch, cfg.Epoch)
	}
	last := cfg.Log.LastLSN()
	needSnap := lastApplied == 0 || // empty replica: needs schema + state
		lastApplied > last || // replica ahead of this log: diverged
		from < cfg.Log.FirstLSN() // behind retention: backlog is gone
	if !needSnap && lastEpoch != cfg.Epoch {
		// Cross-epoch handshake: stream only if the epoch history proves
		// the replica stopped before the fork off its timeline — then its
		// prefix is ours too and the tail fast-forwards it. Otherwise its
		// history may have diverged (stale ex-primary): re-seed.
		needSnap = !CanFastForward(lastEpoch, lastApplied, cfg.Epochs)
		if !needSnap {
			lg("repl feed %s: fast-forwarding replica from epoch %d @%d onto epoch %d",
				fs.Addr, lastEpoch, lastApplied, cfg.Epoch)
		}
	}
	if needSnap {
		snapLSN, data, err := cfg.Snapshot()
		if err != nil {
			sendErr(w, fmt.Sprintf("snapshot transfer: %v", err))
			return fmt.Errorf("repl: reading snapshot for transfer: %w", err)
		}
		fs.snapshotSent.Store(true)
		lg("repl feed %s: snapshot transfer @%d (%d bytes, replica was at %d)",
			fs.Addr, snapLSN, len(data), lastApplied)
		for off := 0; ; off += wire.ReplSnapChunk {
			end := off + wire.ReplSnapChunk
			if end > len(data) {
				end = len(data)
			}
			f := wire.ReplFrame{Type: wire.ReplSnap, LSN: snapLSN, Data: data[off:end],
				Last: end == len(data), Lease: leaseFresh()}
			if err := wire.WriteFrame(w, &f); err != nil {
				return fmt.Errorf("repl: sending snapshot chunk: %w", err)
			}
			fs.sentBytes.Add(int64(end - off))
			if f.Last {
				break
			}
		}
		from = snapLSN + 1
		pin.Move(from)
		fs.acked.Store(snapLSN)
	}

	// Ack reader: the replica reports its durably-applied position after
	// every unit (and after the snapshot reset). Each ack advances the
	// retention pin — segments at or above acked+1 stay on disk until
	// this replica has them.
	ackErr := make(chan error, 1)
	go func() {
		for {
			line, err := wire.ReadFrame(br, wire.ReplMaxFrame)
			if err != nil {
				ackErr <- err
				return
			}
			ack, err := wire.DecodeReplAck(line)
			if err != nil {
				ackErr <- err
				return
			}
			fs.acked.Store(ack.LSN)
			fs.lastAckNanos.Store(time.Now().UnixNano())
			pin.Move(ack.LSN + 1)
			if cfg.OnAck != nil {
				cfg.OnAck(ack.LSN)
			}
		}
	}()

	heartbeatFrame := func() *wire.ReplFrame {
		f := &wire.ReplFrame{Type: wire.ReplHeartbeat, PrimaryLSN: cfg.Log.LastLSN(), Lease: leaseFresh()}
		if cfg.Primary != nil {
			f.Primary = cfg.Primary()
		}
		if cfg.Peers != nil {
			f.Peers = cfg.Peers()
		}
		if cfg.EpochNow != nil {
			f.Epoch, f.Epochs = cfg.EpochNow()
		} else {
			f.Epoch, f.Epochs = cfg.Epoch, cfg.Epochs
		}
		return f
	}

	// Tell the replica where the primary stands before the first unit.
	// This first heartbeat also signals a fast-forwarded replica that no
	// snapshot is coming, so it can adopt the new epoch.
	if err := wire.WriteFrame(w, heartbeatFrame()); err != nil {
		return fmt.Errorf("repl: sending heartbeat: %w", err)
	}

	notify := cfg.Log.Subscribe()
	defer cfg.Log.Unsubscribe(notify)
	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()

	for {
		units, next, err := cfg.Log.ReadUnits(from, 0)
		if errors.Is(err, wal.ErrTruncated) {
			// Should be unreachable while our pin holds, but a resync
			// beats serving a gap if retention logic ever regresses.
			sendErr(w, "backlog truncated")
			return fmt.Errorf("repl: backlog truncated under feeder: %w", err)
		}
		if err != nil {
			sendErr(w, err.Error())
			return fmt.Errorf("repl: reading commit units: %w", err)
		}
		primaryLSN := cfg.Log.LastLSN()
		chunk := cfg.UnitChunkBytes
		if chunk <= 0 {
			chunk = wire.ReplUnitChunk
		}
		for _, unit := range units {
			bytes, err := writeUnit(w, unit, primaryLSN, chunk, leaseFresh())
			if err != nil {
				return err
			}
			fs.sentUnits.Add(1)
			fs.sentBytes.Add(int64(bytes))
		}
		from = next
		if len(units) > 0 {
			continue // drain the backlog before parking
		}

		select {
		case <-notify:
		case <-ticker.C:
			if err := wire.WriteFrame(w, heartbeatFrame()); err != nil {
				return fmt.Errorf("repl: sending heartbeat: %w", err)
			}
		case err := <-ackErr:
			if errors.Is(err, io.EOF) {
				return fmt.Errorf("repl: replica disconnected")
			}
			return fmt.Errorf("repl: ack stream: %w", err)
		case <-stop:
			return nil
		}
	}
}

// writeUnit ships one commit unit as one or more unit frames, keeping
// each frame's raw record payload within chunk bytes so no frame can
// exceed the stream's size limit no matter how large the unit is. A
// record is split mid-payload when necessary: each non-final piece has
// Partial set (payload continues in the next frame's first record) and
// only the final frame of the unit carries Last. It returns the unit's
// total payload bytes.
func writeUnit(w io.Writer, unit wal.Unit, primaryLSN uint64, chunk int, lease bool) (int, error) {
	lastLSN := unit[len(unit)-1].LSN
	total := 0
	var recs []wire.ReplRecord
	budget := chunk
	flush := func(last bool) error {
		f := wire.ReplFrame{Type: wire.ReplUnit, LSN: lastLSN, PrimaryLSN: primaryLSN, Recs: recs, Last: last, Lease: lease}
		if err := wire.WriteFrame(w, &f); err != nil {
			return fmt.Errorf("repl: sending unit @%d: %w", lastLSN, err)
		}
		recs = nil
		budget = chunk
		return nil
	}
	for _, rec := range unit {
		total += len(rec.Payload)
		payload := rec.Payload
		for {
			if budget <= 0 {
				if err := flush(false); err != nil {
					return total, err
				}
			}
			if len(payload) <= budget {
				// Flags ride on the record's final piece only.
				recs = append(recs, wire.ReplRecord{LSN: rec.LSN, Type: rec.Type, Commit: rec.Commit, Payload: payload})
				budget -= len(payload)
				break
			}
			recs = append(recs, wire.ReplRecord{LSN: rec.LSN, Type: rec.Type, Partial: true, Payload: payload[:budget]})
			payload = payload[budget:]
			budget = 0
		}
	}
	return total, flush(true)
}

// sendErr best-effort ships a fatal error frame before the feeder
// closes the stream.
func sendErr(w io.Writer, msg string) {
	_ = wire.WriteFrame(w, &wire.ReplFrame{Type: wire.ReplError, Error: msg})
}

// CanFastForward reports whether a replica on an older timeline may be
// streamed forward instead of snapshot re-seeded: true iff the epoch
// history contains the first timeline newer than the replica's and the
// replica's applied position stops before that fork (StartLSN-1). A
// replica that applied anything at or past the fork may hold records
// the new timeline rewrote — only a re-seed is safe. An unknown fork
// (StartLSN 0, from pre-history EPOCH files) always re-seeds.
func CanFastForward(replicaEpoch, replicaApplied uint64, history []wire.EpochStart) bool {
	var fork *wire.EpochStart
	for i := range history {
		e := &history[i]
		if e.Epoch > replicaEpoch && (fork == nil || e.Epoch < fork.Epoch) {
			fork = e
		}
	}
	if fork == nil || fork.StartLSN == 0 {
		return false
	}
	return replicaApplied < fork.StartLSN
}
