// Server-side replication: role state, the primary's feed registry and
// REPLICATE handling, the replica's per-store appliers and upstream
// runners, retention pinning via the feeders, and PROMOTE.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"xmlordb"
	"xmlordb/internal/repl"
	"xmlordb/internal/wal"
	"xmlordb/internal/wire"
)

// Role names for wire responses and stats.
const (
	RolePrimary = "primary"
	RoleReplica = "replica"
)

// Role reports the server's current replication role.
func (s *Server) Role() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replica {
		return RoleReplica
	}
	return RolePrimary
}

// isReadOnly reports whether writes must be rejected (replica role).
func (s *Server) isReadOnly() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replica
}

// currentUpstream is the address this replica is pulling from. It starts
// as ReplicaOf and changes when failover retargets the node.
func (s *Server) currentUpstream() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.upstream
}

// currentPrimaryAddr is the writable primary as this node knows it: its
// own advertised address when primary, otherwise the primary learned
// from lease heartbeats (falling back to the upstream address).
func (s *Server) currentPrimaryAddr() string {
	s.mu.Lock()
	replica := s.replica
	known := s.knownPrimary
	up := s.upstream
	s.mu.Unlock()
	if !replica {
		return s.advertiseAddr()
	}
	if known != "" {
		return known
	}
	return up
}

// readOnlyResp is the typed rejection every write verb gets on a
// replica: CodeReadOnly plus the primary's address, so clients can
// redirect instead of guessing.
func (s *Server) readOnlyResp() *wire.Response {
	primary := s.currentPrimaryAddr()
	err := &repl.ReadOnlyError{Primary: primary}
	return &wire.Response{OK: false, Code: wire.CodeReadOnly, Error: err.Error(),
		Role: RoleReplica, Primary: primary}
}

// feedEntry is one connected replica in the primary's registry.
type feedEntry struct {
	store  string
	status *repl.FeedStatus
}

func (s *Server) registerFeed(store string, fs *repl.FeedStatus) *feedEntry {
	e := &feedEntry{store: store, status: fs}
	s.mu.Lock()
	if s.feeds == nil {
		s.feeds = map[*feedEntry]struct{}{}
	}
	s.feeds[e] = struct{}{}
	s.mu.Unlock()
	return e
}

func (s *Server) unregisterFeed(e *feedEntry) {
	s.mu.Lock()
	delete(s.feeds, e)
	s.mu.Unlock()
}

// replicate handles the REPLICATE verb: validate, register the replica,
// and hand the connection over to the feeder. The OK response goes out
// through the normal session write path; the returned takeover closure
// then owns the socket until the stream ends. Replicas serve feeds too:
// during an election interregnum a loser retargets onto the presumptive
// winner before that winner has promoted, and keeps its stream across
// the promotion. A replica's heartbeats relay the primary and peer list
// it knows.
func (ss *session) replicate(req *wire.Request) *wire.Response {
	s := ss.srv
	if req.Name == "" {
		return fail(wire.CodeBadRequest, "REPLICATE requires name")
	}
	hs := s.lookupStore(req.Name)
	if hs == nil {
		return fail(wire.CodeNoStore, "unknown store %q", req.Name)
	}
	// Lock-free handshake reads via the published ref: a replica can
	// serve REPLICATE while its own store is being re-seeded. A stale
	// view is fine — the swap closes the old store, this feed dies with
	// it, and the downstream replica reconnects fresh.
	store := hs.current()
	log := store.WAL()
	if log == nil {
		return fail(wire.CodeRepl, "store %q is not durable; replication needs a data directory (-snapshot-dir)", hs.name)
	}
	// An election-eligible replica announces its advertised address in
	// the handshake; the serving node adds it to the member list it ships
	// in heartbeats, so every replica learns who may vote. Replicas track
	// handshake members too: during an interregnum an election loser
	// retargets onto the presumptive winner before it has promoted, and
	// that handshake is how the winner learns enough members to see a
	// quorum.
	if req.Addr != "" {
		s.addMember(req.Addr)
	}
	fs := &repl.FeedStatus{Addr: ss.conn.RemoteAddr().String()}
	lastApplied := req.LSN
	lastEpoch := req.Epoch
	epoch := store.Epoch()
	history := toWireEpochs(store.EpochHistory())
	ss.takeover = func() {
		entry := s.registerFeed(hs.name, fs)
		defer s.unregisterFeed(entry)
		cfg := repl.FeederConfig{
			Log: log,
			Snapshot: func() (uint64, []byte, error) {
				hs.mu.RLock()
				defer hs.mu.RUnlock()
				return hs.store.ReadCheckpointSnapshot()
			},
			Epoch:  epoch,
			Epochs: history,
			EpochNow: func() (uint64, []wire.EpochStart) {
				st := hs.current()
				return st.Epoch(), toWireEpochs(st.EpochHistory())
			},
			Heartbeat:  s.cfg.replHeartbeat(),
			Primary:    s.currentPrimaryAddr,
			Peers:      s.memberList,
			LeaseFresh: s.leaseRooted,
			OnAck:      func(uint64) { s.broadcastAck() },
			Status:     fs,
			Logf:       s.cfg.Logf,
		}
		if err := repl.ServeFeed(ss.conn, ss.br, lastApplied, lastEpoch, s.feedStop, cfg); err != nil {
			s.cfg.logf("repl feed %s -> %s: %v", hs.name, fs.Addr, err)
		}
	}
	return &wire.Response{OK: true, Role: s.Role(), LSN: log.LastLSN(), Epoch: epoch, Epochs: history}
}

// toWireEpochs converts a store's epoch timeline to its wire form.
func toWireEpochs(hist []xmlordb.EpochStart) []wire.EpochStart {
	out := make([]wire.EpochStart, len(hist))
	for i, e := range hist {
		out[i] = wire.EpochStart{Epoch: e.Epoch, StartLSN: e.StartLSN}
	}
	return out
}

func fromWireEpochs(hist []wire.EpochStart) []xmlordb.EpochStart {
	out := make([]xmlordb.EpochStart, len(hist))
	for i, e := range hist {
		out[i] = xmlordb.EpochStart{Epoch: e.Epoch, StartLSN: e.StartLSN}
	}
	return out
}

// storeApplier implements repl.Applier on a hosted store: units apply
// under the store's write lock through the recovery replay path, and a
// snapshot transfer swaps the whole store for a freshly bootstrapped
// directory.
type storeApplier struct {
	s      *Server
	name   string
	dir    string
	opts   xmlordb.DurableOptions
	status *repl.Status
}

func (a *storeApplier) AppliedLSN() uint64 {
	hs := a.s.lookupStore(a.name)
	if hs == nil {
		return 0
	}
	hs.mu.RLock()
	defer hs.mu.RUnlock()
	log := hs.store.WAL()
	if log == nil {
		return 0
	}
	return log.LastLSN()
}

// DurableLSN is the ack position: the highest LSN the local WAL has
// fsynced, which is what the primary may safely truncate up to. Under
// SyncNever nothing is ever fsynced by policy, so the appended position
// is acked instead — that policy explicitly trades crash durability
// away, and an ack contract stricter than the store's own would stall
// retention forever.
func (a *storeApplier) DurableLSN() uint64 {
	hs := a.s.lookupStore(a.name)
	if hs == nil {
		return 0
	}
	hs.mu.RLock()
	defer hs.mu.RUnlock()
	log := hs.store.WAL()
	if log == nil {
		return 0
	}
	if a.opts.Sync == wal.SyncNever {
		return log.LastLSN()
	}
	return log.SyncedLSN()
}

func (a *storeApplier) Epoch() uint64 {
	hs := a.s.lookupStore(a.name)
	if hs == nil {
		return 0
	}
	hs.mu.RLock()
	defer hs.mu.RUnlock()
	return hs.store.Epoch()
}

func (a *storeApplier) ApplyUnit(recs []wal.Record) error {
	hs := a.s.lookupStore(a.name)
	if hs == nil {
		return fmt.Errorf("store %q not hosted yet; snapshot required", a.name)
	}
	hs.mu.Lock()
	defer hs.mu.Unlock()
	if err := hs.store.ApplyReplicatedUnit(recs); err != nil {
		return err
	}
	hs.markDirty() // the periodic loop checkpoints replicas too
	return nil
}

func (a *storeApplier) ResetFromSnapshot(lsn, epoch uint64, history []wire.EpochStart, snapshot []byte) error {
	if err := xmlordb.VerifySnapshot(snapshot); err != nil {
		return fmt.Errorf("snapshot transfer rejected: %w", err)
	}
	hist := fromWireEpochs(history)
	if hs := a.s.lookupStore(a.name); hs != nil {
		hs.mu.Lock()
		defer hs.mu.Unlock()
		// Close first: the bootstrap wipes the directory the old store's
		// log still has open. A downstream replica feeding off the old
		// store's WAL loses its stream here and reconnects against the
		// fresh one — self-healing, at the cost of one resync.
		hs.store.Close()
		st, err := xmlordb.BootstrapDirFromSnapshot(a.dir, lsn, epoch, hist, snapshot, a.opts)
		if err != nil {
			return fmt.Errorf("re-seeding %q: %w", a.name, err)
		}
		hs.store = st
		hs.ref.Store(st)
		return nil
	}
	st, err := xmlordb.BootstrapDirFromSnapshot(a.dir, lsn, epoch, hist, snapshot, a.opts)
	if err != nil {
		return fmt.Errorf("seeding %q: %w", a.name, err)
	}
	if err := a.s.AddStore(a.name, st); err != nil {
		st.Close()
		return err
	}
	return nil
}

// AdoptEpoch fast-forwards the store onto the upstream's newer timeline
// without a snapshot transfer (the replica verifiably holds no record
// the new timeline forked away).
func (a *storeApplier) AdoptEpoch(epoch uint64, history []wire.EpochStart) error {
	hs := a.s.lookupStore(a.name)
	if hs == nil {
		return fmt.Errorf("store %q not hosted yet; snapshot required", a.name)
	}
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hs.store.AdoptEpoch(epoch, fromWireEpochs(history))
}

// DefaultReplStoreRefresh is how often a replica re-queries the
// primary's store list for stores OPENed after the replica connected.
const DefaultReplStoreRefresh = 5 * time.Second

// StartReplication puts the server in replica role and begins pulling
// every one of the ReplicaOf upstream's stores. The store list is
// fetched from the upstream (with retries — it may still be booting) and
// then re-queried periodically, so a store OPENed after the replica
// connected is picked up and replicated too; each store gets its own
// applier goroutine that streams, applies and reconnects until shutdown
// or promotion. Call after RestoreDir so locally recovered stores resume
// from their applied position instead of a full snapshot transfer.
func (s *Server) StartReplication() error {
	up := s.cfg.ReplicaOf
	if up == "" {
		return nil
	}
	if s.cfg.SnapshotDir == "" {
		return fmt.Errorf("server: replica mode needs a data directory")
	}
	if _, err := s.cfg.durableOptions(); err != nil {
		return err
	}
	s.mu.Lock()
	s.replica = true
	s.upstream = up
	s.mu.Unlock()
	s.loadPeers()
	s.roleMu.Lock()
	defer s.roleMu.Unlock()
	s.startReplicationLocked()
	return nil
}

// startReplicationLocked starts a fresh replication generation against
// the current upstream: new stop channel, empty applier set, and the
// store-list poll goroutine. roleMu must be held; any prior generation
// must already be stopped.
func (s *Server) startReplicationLocked() {
	opts, err := s.cfg.durableOptions()
	if err != nil {
		s.cfg.logf("repl: %v", err)
		return
	}
	refresh := s.cfg.ReplStoreRefresh
	if refresh <= 0 {
		refresh = DefaultReplStoreRefresh
	}
	retry := s.cfg.ReplRetry
	if retry <= 0 {
		retry = repl.DefaultRetry
	}
	s.mu.Lock()
	s.replStop = make(chan struct{})
	s.replStopped = false
	s.appliers = map[string]*storeApplier{}
	s.leaseAt = time.Now()
	up := s.upstream
	stop := s.replStop
	s.mu.Unlock()

	s.replWg.Add(1)
	go func() {
		defer s.replWg.Done()
		// Under automatic failover the handshake must carry our advertised
		// address (anonymous replicas are invisible to elections), so wait
		// for the listener to bind before the first connection — and no
		// longer: until this replica attaches, no other member knows it.
		if s.cfg.ElectionTimeout > 0 && s.cfg.Advertise == "" {
			select {
			case <-stop:
				return
			case <-s.bound:
			}
		}
		warned := map[string]bool{} // unusable names, logged once each
		for {
			names, err := queryStores(up)
			delay := refresh
			if err != nil {
				s.cfg.logf("repl: upstream %s store list: %v (retrying)", up, err)
				delay = retry
			}
			for _, name := range names {
				if !storeNameRe.MatchString(name) {
					if !warned[name] {
						warned[name] = true
						s.cfg.logf("repl: skipping upstream store with unusable name %q", name)
					}
					continue
				}
				s.ensureApplier(name, up, stop, opts)
			}
			select {
			case <-stop:
				return
			case <-time.After(delay):
			}
		}
	}()
}

// ensureApplier starts the replication runner for one upstream store.
// Idempotent within a generation: rediscovering an already-replicated
// name is a no-op. up and stop are the generation's upstream address and
// stop channel — captured, not re-read, so a retarget can never splice
// an old runner onto a new upstream.
func (s *Server) ensureApplier(name, up string, stop chan struct{}, opts xmlordb.DurableOptions) {
	key := strings.ToLower(name)
	s.mu.Lock()
	if s.replStop != stop || s.replStopped {
		s.mu.Unlock() // stale generation
		return
	}
	if _, ok := s.appliers[key]; ok {
		s.mu.Unlock()
		return
	}
	a := &storeApplier{
		s:      s,
		name:   name,
		dir:    s.snapshotPath(name),
		opts:   opts,
		status: &repl.Status{},
	}
	s.appliers[key] = a
	s.mu.Unlock()
	s.cfg.logf("repl: replicating store %q from %s", name, up)
	s.replWg.Add(1)
	go func() {
		defer s.replWg.Done()
		repl.Run(stop, repl.ReplicaConfig{
			Addr:        up,
			Store:       a.name,
			Applier:     a,
			Status:      a.status,
			Retry:       s.cfg.ReplRetry,
			Advertise:   s.advertiseAddr,
			OnLeaseMeta: s.onLeaseMeta,
			Logf:        s.cfg.Logf,
		})
	}()
}

func (s *Server) snapshotPath(name string) string {
	return filepath.Join(s.cfg.SnapshotDir, name)
}

// queryStores performs a one-shot STORES request.
func queryStores(addr string) ([]string, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteFrame(conn, &wire.Request{Verb: wire.VerbStores}); err != nil {
		return nil, err
	}
	br := bufio.NewReader(conn)
	line, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
	if err != nil {
		return nil, err
	}
	resp, err := wire.DecodeResponse(line)
	if err != nil {
		return nil, err
	}
	if err := resp.Err(); err != nil {
		return nil, err
	}
	return resp.Stores, nil
}

// stopReplication halts the upstream appliers of a replica. Idempotent;
// used by both Shutdown and Promote. Feeders are left running: a
// promoted primary must keep serving its own replicas (Shutdown stops
// them separately via stopFeeds).
func (s *Server) stopReplication() {
	s.roleMu.Lock()
	defer s.roleMu.Unlock()
	s.stopReplicationLocked()
}

// stopReplicationLocked tears down the current replication generation.
// roleMu must be held. The wait never deadlocks: applier goroutines take
// store locks and s.mu, never roleMu.
func (s *Server) stopReplicationLocked() {
	s.mu.Lock()
	stopped := s.replStopped
	s.replStopped = true
	stop := s.replStop
	s.mu.Unlock()
	if stopped {
		return
	}
	close(stop)
	s.replWg.Wait()
}

// stopFeeds halts primary-side replication feeders. Idempotent;
// Shutdown only.
func (s *Server) stopFeeds() {
	s.mu.Lock()
	stopped := s.feedsStopped
	s.feedsStopped = true
	s.mu.Unlock()
	if stopped {
		return
	}
	close(s.feedStop)
}

// Promote detaches a replica into a standalone writable primary: the
// upstream appliers stop, every store starts a new epoch (so stale
// peers of the old timeline — including a restarted ex-primary — are
// forced through a snapshot re-seed), every store's WAL tail is made
// durable and checkpointed, and the role flips. Returns the highest
// applied LSN across stores — the position the new primary continues
// from. A store whose checkpoint fails does not abort the promotion:
// its WAL tail is synced, the periodic snapshot loop retries the
// checkpoint, and the failure is folded into the returned error while
// the role still flips (a partial promotion beats a node stranded
// read-only with no stream). Safe to call on an already-primary server
// (no-op with its current LSN).
func (s *Server) Promote() (uint64, error) {
	s.roleMu.Lock()
	defer s.roleMu.Unlock()
	s.mu.Lock()
	wasReplica := s.replica
	oldUpstream := s.upstream
	s.mu.Unlock()
	if wasReplica {
		s.stopReplicationLocked()
	}

	s.mu.Lock()
	hosted := make([]*hostedStore, 0, len(s.storeOrder))
	for _, k := range s.storeOrder {
		hosted = append(hosted, s.stores[k])
	}
	s.mu.Unlock()

	var maxLSN uint64
	var errs []error
	for _, hs := range hosted {
		hs.mu.Lock()
		log := hs.store.WAL()
		if log == nil {
			hs.mu.Unlock()
			continue
		}
		if wasReplica {
			if _, err := hs.store.BumpEpoch(); err != nil {
				// The in-memory epoch advanced regardless; only the EPOCH
				// file write failed.
				errs = append(errs, fmt.Errorf("server: promoting %s: persisting epoch: %w", hs.name, err))
			}
		}
		// Checkpoint makes every applied commit durable in one stroke:
		// snapshot + pointer + truncation, same as a clean shutdown.
		err := hs.store.Checkpoint()
		lsn := log.LastLSN()
		if err != nil {
			// Fall back to syncing the WAL tail so applied commits are
			// durable even without the snapshot, mark the store dirty so
			// the snapshot loop retries the checkpoint, and keep promoting
			// the remaining stores.
			if serr := log.Sync(); serr != nil {
				err = errors.Join(err, serr)
			}
			hs.markDirty()
			errs = append(errs, fmt.Errorf("server: promoting %s: %w", hs.name, err))
		}
		hs.mu.Unlock()
		if lsn > maxLSN {
			maxLSN = lsn
		}
	}

	self := s.advertiseAddr()
	s.mu.Lock()
	promoted := s.replica
	s.replica = false
	s.knownPrimary = self
	if self != "" {
		s.members[self] = struct{}{}
	}
	s.leaseAt = time.Now()
	s.mu.Unlock()
	if promoted {
		s.savePeers()
		s.cfg.logf("promoted to primary at lsn %d (was replicating %s)", maxLSN, oldUpstream)
	}
	return maxLSN, errors.Join(errs...)
}

// replStats assembles the Repl section of STATS.
func (s *Server) replStats() *wire.ReplStats {
	s.mu.Lock()
	replica := s.replica
	feeds := make([]*feedEntry, 0, len(s.feeds))
	for e := range s.feeds {
		feeds = append(feeds, e)
	}
	appliers := make([]*storeApplier, 0, len(s.appliers))
	for _, a := range s.appliers {
		appliers = append(appliers, a)
	}
	s.mu.Unlock()

	if replica {
		rs := &wire.ReplStats{Role: RoleReplica, Primary: s.currentUpstream()}
		for _, a := range appliers {
			rs.Stores = append(rs.Stores, a.status.Report(a.name, a.AppliedLSN()))
		}
		sort.Slice(rs.Stores, func(i, j int) bool { return rs.Stores[i].Store < rs.Stores[j].Store })
		return rs
	}
	if len(feeds) == 0 {
		return &wire.ReplStats{Role: RolePrimary}
	}
	byStore := map[string]*wire.ReplStoreStats{}
	rs := &wire.ReplStats{Role: RolePrimary}
	for _, e := range feeds {
		ss := byStore[e.store]
		if ss == nil {
			ss = &wire.ReplStoreStats{Store: e.store}
			byStore[e.store] = ss
		}
		var primaryLSN uint64
		if hs := s.lookupStore(e.store); hs != nil {
			if log := hs.current().WAL(); log != nil {
				primaryLSN = log.LastLSN()
			}
		}
		ss.Replicas = append(ss.Replicas, e.status.Stat(primaryLSN))
	}
	for _, ss := range byStore {
		rs.Stores = append(rs.Stores, *ss)
	}
	sort.Slice(rs.Stores, func(i, j int) bool { return rs.Stores[i].Store < rs.Stores[j].Store })
	return rs
}
