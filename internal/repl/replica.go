package repl

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"xmlordb/internal/wal"
	"xmlordb/internal/wire"
)

// DefaultRetry is the base reconnect backoff between failed attempts
// to reach the primary; consecutive failures double it (with jitter)
// up to DefaultRetryCap.
const DefaultRetry = 500 * time.Millisecond

// DefaultRetryCap bounds the exponential reconnect backoff so a
// long-dead primary is still re-probed often enough for failback.
const DefaultRetryCap = 10 * time.Second

// ReplicaConfig wires Run to one store's upstream.
type ReplicaConfig struct {
	// Addr is the primary's address.
	Addr string
	// Store is the hosted store name sent in the REPLICATE handshake.
	Store string
	// Applier applies the stream to the local store.
	Applier Applier
	// Status, when non-nil, is updated live for STATS and promotion.
	Status *Status
	// Dial overrides the transport (nil = net.Dial "tcp").
	Dial func(addr string) (net.Conn, error)
	// Retry is the base reconnect backoff (DefaultRetry if 0); each
	// consecutive failure doubles it with ±25% jitter, capped at
	// RetryCap.
	Retry time.Duration
	// RetryCap is the backoff ceiling (DefaultRetryCap if 0, but never
	// below Retry).
	RetryCap time.Duration
	// Advertise, when non-nil, returns the address peers should dial to
	// reach this replica; it is sent in the handshake so the primary
	// can include us in the cluster member list. It is a callback
	// because the replica's listener may not be bound yet when
	// replication starts.
	Advertise func() string
	// OnLeaseMeta, when non-nil, receives the lease metadata carried by
	// upstream heartbeats: the writable primary's address and the
	// cluster member list. The server uses it to persist membership and
	// to retarget when the primary moves.
	OnLeaseMeta func(primary string, peers []string)
	// Logf receives applier diagnostics (nil = discard).
	Logf func(string, ...any)
}

// Status is one store's replica-side health: connection state, the
// primary's position versus ours, apply counters, and stream liveness.
// Safe for concurrent use.
type Status struct {
	mu           sync.Mutex
	connected    bool
	primaryLSN   uint64
	unitsApplied int64
	bytesApplied int64
	snapshots    int64
	lastFrame    time.Time
	lastLease    time.Time
}

func (st *Status) setConnected(v bool) {
	st.mu.Lock()
	st.connected = v
	st.mu.Unlock()
}

func (st *Status) observeFrame(primaryLSN uint64, lease bool) {
	st.mu.Lock()
	if primaryLSN > st.primaryLSN {
		st.primaryLSN = primaryLSN
	}
	st.lastFrame = time.Now()
	if lease {
		st.lastLease = st.lastFrame
	}
	st.mu.Unlock()
}

func (st *Status) observeUnit(bytes int) {
	st.mu.Lock()
	st.unitsApplied++
	st.bytesApplied += int64(bytes)
	st.mu.Unlock()
}

func (st *Status) observeSnapshot() {
	st.mu.Lock()
	st.snapshots++
	st.mu.Unlock()
}

// LastContact reports when the last frame arrived from the upstream
// (zero = never), whatever its kind — the stream-health signal.
func (st *Status) LastContact() time.Time {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastFrame
}

// LastLease reports when the last lease-bearing frame arrived (zero =
// never): a frame whose sender's chain roots at a live primary. The
// failover loop reads THIS — not LastContact — as the lease renewal
// time, so frames relayed by headless replicas cannot postpone an
// election.
func (st *Status) LastLease() time.Time {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastLease
}

// Connected reports whether the stream is currently established.
func (st *Status) Connected() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.connected
}

// Report renders the store's replica-side STATS entry. applied is the
// store's current applied LSN (from the Applier, which owns it).
func (st *Status) Report(store string, applied uint64) wire.ReplStoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	lag := int64(0)
	if st.primaryLSN > applied {
		lag = int64(st.primaryLSN - applied)
	}
	lastMS := int64(-1)
	if !st.lastFrame.IsZero() {
		lastMS = time.Since(st.lastFrame).Milliseconds()
	}
	return wire.ReplStoreStats{
		Store:           store,
		Connected:       st.connected,
		PrimaryLSN:      st.primaryLSN,
		AppliedLSN:      applied,
		LagRecords:      lag,
		UnitsApplied:    st.unitsApplied,
		BytesApplied:    st.bytesApplied,
		Snapshots:       st.snapshots,
		LastHeartbeatMS: lastMS,
	}
}

// Run is the replica-side loop for one store: dial the primary, send
// the REPLICATE handshake with our applied position, then apply the
// stream — snapshot transfers reset the store, commit units append and
// apply, every durable step is acked. Connection failures back off
// exponentially (with jitter, so a flapping primary is not hammered in
// lockstep by every replica) and reconnect; an apply error or
// divergence reconnects with LSN 0 to force a snapshot transfer. Run
// returns when stop closes.
func Run(stop <-chan struct{}, cfg ReplicaConfig) {
	lg := logf(cfg.Logf)
	st := cfg.Status
	if st == nil {
		st = &Status{}
	}
	dial := cfg.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	base := cfg.Retry
	if base <= 0 {
		base = DefaultRetry
	}
	ceil := cfg.RetryCap
	if ceil <= 0 {
		ceil = DefaultRetryCap
	}
	if ceil < base {
		ceil = base
	}

	forceSnap := false
	retry := base
	for {
		select {
		case <-stop:
			return
		default:
		}
		resync, streamed, err := streamOnce(stop, cfg, st, dial, forceSnap, lg)
		st.setConnected(false)
		select {
		case <-stop:
			return
		default:
		}
		if streamed {
			// The connection was healthy before it broke: restart the
			// backoff ladder instead of punishing the next attempt for
			// failures long since recovered from.
			retry = base
		}
		wait := jitter(retry)
		if err != nil {
			lg("repl %s<-%s: %v (retrying in %v)", cfg.Store, cfg.Addr, err, wait.Round(time.Millisecond))
		}
		if retry *= 2; retry > ceil {
			retry = ceil
		}
		forceSnap = resync
		select {
		case <-stop:
			return
		case <-time.After(wait):
		}
	}
}

// jitter spreads a backoff delay over ±25% so replicas that lost the
// same primary at the same moment do not reconnect in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	spread := int64(d) / 2 // total jitter window: half of d, centred
	return time.Duration(int64(d) - spread/2 + rand.Int63n(spread+1))
}

// streamOnce runs one connection lifetime. resync=true means the next
// attempt must request a snapshot transfer (handshake LSN 0);
// streamed=true means the handshake succeeded and at least one frame
// arrived, so the reconnect backoff restarts from its base.
func streamOnce(stop <-chan struct{}, cfg ReplicaConfig, st *Status,
	dial func(string) (net.Conn, error), forceSnap bool, lg func(string, ...any)) (resync, streamed bool, err error) {

	conn, err := dial(cfg.Addr)
	if err != nil {
		return false, false, fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	// Unblock the stream reads when stop closes mid-connection.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-stop:
			conn.Close()
		case <-done:
		}
	}()

	lsn := cfg.Applier.AppliedLSN()
	epoch := cfg.Applier.Epoch()
	if forceSnap {
		lsn, epoch = 0, 0
	}
	advertise := ""
	if cfg.Advertise != nil {
		advertise = cfg.Advertise()
	}
	req := &wire.Request{Verb: wire.VerbReplicate, Name: cfg.Store, LSN: lsn, Epoch: epoch, Addr: advertise}
	if err := wire.WriteFrame(conn, req); err != nil {
		return false, false, fmt.Errorf("handshake: %w", err)
	}
	br := bufio.NewReader(conn)
	line, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
	if err != nil {
		return false, false, fmt.Errorf("handshake: %w", err)
	}
	resp, err := wire.DecodeResponse(line)
	if err != nil {
		return false, false, fmt.Errorf("handshake: %w", err)
	}
	if !resp.OK {
		return false, false, fmt.Errorf("handshake refused: %w", resp.Err())
	}
	primaryEpoch := resp.Epoch
	primaryEpochs := resp.Epochs
	// When the feeder is on a newer timeline but chose to stream (no
	// snapshot first), its epoch history proved our prefix predates the
	// fork: adopt the new epoch before the first frame applies, pending
	// until we know the first frame is not a snapshot chunk.
	pendingEpoch := primaryEpoch != 0 && !forceSnap && primaryEpoch != cfg.Applier.Epoch()
	st.setConnected(true)
	lg("repl %s<-%s: streaming from lsn %d (epoch %d)", cfg.Store, cfg.Addr, lsn+1, primaryEpoch)

	var snap []byte // accumulating snapshot transfer, nil when idle
	var snapLSN uint64
	var urecs []wal.Record // accumulating chunked commit unit
	var upartial bool      // last accumulated record awaits a payload continuation
	var ubytes int
	lastAcked := lsn
	sendAck := func(ack uint64) error {
		if err := wire.WriteFrame(conn, &wire.ReplAck{LSN: ack}); err != nil {
			return fmt.Errorf("ack: %w", err)
		}
		lastAcked = ack
		return nil
	}
	// adoptPending moves the store onto the feeder's timeline the moment
	// we know this stream fast-forwards (first frame is not a snapshot
	// chunk) — the applied prefix is valid on the new epoch as-is.
	adoptPending := func() error {
		if !pendingEpoch {
			return nil
		}
		pendingEpoch = false
		if cur := cfg.Applier.Epoch(); primaryEpoch < cur {
			// The upstream streams from an older timeline than ours: it is
			// the stale one. Re-seeding from it would roll us backwards.
			return fmt.Errorf("upstream on older epoch %d (local %d)", primaryEpoch, cur)
		}
		if err := cfg.Applier.AdoptEpoch(primaryEpoch, primaryEpochs); err != nil {
			return fmt.Errorf("adopting epoch %d: %w", primaryEpoch, err)
		}
		lg("repl %s<-%s: fast-forwarded onto epoch %d", cfg.Store, cfg.Addr, primaryEpoch)
		return nil
	}
	for {
		line, err := wire.ReadFrame(br, wire.ReplMaxFrame)
		if err != nil {
			return false, streamed, fmt.Errorf("stream: %w", err)
		}
		f, err := wire.DecodeReplFrame(line)
		if err != nil {
			return false, streamed, fmt.Errorf("stream: %w", err)
		}
		streamed = true
		switch f.Type {
		case wire.ReplSnap:
			pendingEpoch = false // the reset below adopts the epoch itself
			if snap == nil {
				snap = []byte{}
				snapLSN = f.LSN
			} else if f.LSN != snapLSN {
				return true, streamed, fmt.Errorf("snapshot transfer changed position %d -> %d", snapLSN, f.LSN)
			}
			snap = append(snap, f.Data...)
			st.observeFrame(f.LSN, f.Lease)
			if !f.Last {
				continue
			}
			// Count the transfer before applying it: the reset moves the
			// store's applied position in one atomic swap, and a stats
			// reader that already sees the post-snapshot position must
			// also see the transfer counted.
			st.observeSnapshot()
			if err := cfg.Applier.ResetFromSnapshot(snapLSN, primaryEpoch, primaryEpochs, snap); err != nil {
				return true, streamed, fmt.Errorf("applying snapshot @%d: %w", snapLSN, err)
			}
			lg("repl %s<-%s: re-seeded from snapshot @%d (%d bytes)", cfg.Store, cfg.Addr, snapLSN, len(snap))
			snap = nil
			urecs, upartial, ubytes = nil, false, 0
			if err := sendAck(cfg.Applier.DurableLSN()); err != nil {
				return false, streamed, err
			}
		case wire.ReplUnit:
			// A failed adoption must NOT force a snapshot: re-seeding from
			// an upstream we just refused to follow would roll state back.
			if err := adoptPending(); err != nil {
				return false, streamed, err
			}
			// A unit larger than the feeder's frame budget arrives as
			// several frames; accumulate until Last. A record split
			// mid-payload (Partial) continues as the next frame's first
			// record.
			for _, r := range f.Recs {
				if upartial {
					cont := &urecs[len(urecs)-1]
					if r.LSN != cont.LSN || r.Type != cont.Type {
						return true, streamed, fmt.Errorf("unit @%d: continuation record %d does not match split record %d", f.LSN, r.LSN, cont.LSN)
					}
					cont.Payload = append(cont.Payload, r.Payload...)
					cont.Commit = r.Commit
				} else {
					urecs = append(urecs, wal.Record{LSN: r.LSN, Type: r.Type, Commit: r.Commit, Payload: r.Payload})
				}
				upartial = r.Partial
				ubytes += len(r.Payload)
			}
			if !f.Last {
				continue
			}
			if upartial || len(urecs) == 0 {
				return true, streamed, fmt.Errorf("unit @%d: stream ended the unit mid-record", f.LSN)
			}
			recs := urecs
			bytes := ubytes
			urecs, upartial, ubytes = nil, false, 0
			if err := cfg.Applier.ApplyUnit(recs); err != nil {
				// Divergence or a broken apply: the local state cannot be
				// trusted to continue the stream — re-seed from a snapshot.
				return true, streamed, fmt.Errorf("applying unit @%d: %w", f.LSN, err)
			}
			st.observeFrame(f.PrimaryLSN, f.Lease)
			st.observeUnit(bytes)
			// Ack the durable position, not the applied one: an acked LSN
			// licenses the primary to truncate backlog, so it must never
			// name state a crash could lose. Under deferred sync policies
			// it trails the applied position; heartbeats below catch it up.
			if ack := cfg.Applier.DurableLSN(); ack > lastAcked {
				if err := sendAck(ack); err != nil {
					return false, streamed, err
				}
			}
		case wire.ReplHeartbeat:
			if err := adoptPending(); err != nil {
				return false, streamed, err
			}
			// The feeder promoted mid-stream (it won an election while we
			// were attached): the WAL it streams is continuous across the
			// bump, so everything applied here is already a prefix of the
			// new timeline — adopt it in place instead of discovering the
			// mismatch at the next handshake and re-seeding for nothing.
			if f.Epoch != 0 {
				if cur := cfg.Applier.Epoch(); f.Epoch > cur {
					if err := cfg.Applier.AdoptEpoch(f.Epoch, f.Epochs); err != nil {
						return false, streamed, fmt.Errorf("adopting epoch %d mid-stream: %w", f.Epoch, err)
					}
					lg("repl %s<-%s: upstream promoted mid-stream, adopted epoch %d", cfg.Store, cfg.Addr, f.Epoch)
				}
			}
			st.observeFrame(f.PrimaryLSN, f.Lease)
			if cfg.OnLeaseMeta != nil && (f.Primary != "" || len(f.Peers) > 0) {
				cfg.OnLeaseMeta(f.Primary, f.Peers)
			}
			if ack := cfg.Applier.DurableLSN(); ack > lastAcked {
				if err := sendAck(ack); err != nil {
					return false, streamed, err
				}
			}
		case wire.ReplError:
			return false, streamed, fmt.Errorf("primary error: %s", f.Error)
		}
	}
}
