// Package server turns the embedded xmlordb library into a network
// service: a TCP server hosting one or more named Stores behind the
// newline-delimited JSON protocol of internal/wire, with per-connection
// sessions, single-writer serialization with lock-free MVCC reads,
// request size and time limits, write-ahead-logged store directories
// with periodic checkpoints, and graceful drain on shutdown.
//
// Concurrency model. Writes are serialized, reads are lock-free. The
// library's compound write operations — a document load's many inserts,
// a user transaction's statements — are not isolated from each other,
// and the engine admits only one open transaction, so each hosted store
// carries a mutex that loads, deletes, non-SELECT SQL, snapshots and
// whole transactions hold. A session's BEGIN acquires it and keeps it
// until COMMIT/ROLLBACK — or until the session dies, which rolls the
// transaction back — so one client's transaction is invisible to and
// cannot interleave with any other client, preserving the PR 1
// atomicity semantics per connection. Reads (RETRIEVE, XPATH, SELECT,
// STATS) never touch that mutex: each runs against a Store.ReadView —
// an immutable MVCC version the engine publishes at every commit — so
// queries proceed in parallel with writers, never queue behind an open
// transaction, and never observe a half-loaded or half-deleted
// document. A replica likewise serves reads from the last published
// version while ApplyReplicatedUnit commits shipped units underneath.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xmlordb"
	"xmlordb/internal/wal"
	"xmlordb/internal/wire"
)

// Config tunes a Server. The zero value serves with the defaults below.
type Config struct {
	// MaxRequestBytes bounds one request frame (default wire.DefaultMaxFrame).
	MaxRequestBytes int
	// RequestTimeout bounds one request's execution, including any wait
	// for the store lock; on expiry the connection is closed (the
	// operation itself finishes and releases its locks). 0 = no limit.
	RequestTimeout time.Duration
	// IdleTimeout closes sessions that send no request for this long
	// (default 5 minutes; negative = no limit).
	IdleTimeout time.Duration
	// SnapshotDir, when set, is the data directory: each store lives in a
	// durable directory <SnapshotDir>/<name>/ — a checkpoint snapshot plus
	// a write-ahead log of every commit since — so commits survive a
	// crash and RestoreDir replays the log tail on startup. Checkpoints
	// are taken periodically when SnapshotInterval > 0, on SAVE requests,
	// and during Shutdown. Empty means stores live in memory only.
	SnapshotDir string
	// SnapshotInterval is the period of the background checkpoint loop.
	SnapshotInterval time.Duration
	// Durability is the WAL sync policy of the stores under SnapshotDir:
	// "" or "always" (fsync every commit), "interval" or "never". Naming
	// a policy without a SnapshotDir is rejected.
	Durability string
	// WALSyncInterval is the background WAL flush period when Durability
	// is "interval" (default 50ms).
	WALSyncInterval time.Duration
	// WALSegmentBytes caps a WAL segment before rotation (default
	// 4 MiB). Checkpoints can only truncate whole sealed segments, so a
	// smaller cap tightens how much log a checkpoint reclaims — at the
	// cost of more files.
	WALSegmentBytes int64
	// StatsAddr, when set, serves GET /stats (the wire.Stats payload as
	// JSON) on a separate HTTP listener. Serve fails if it cannot bind.
	StatsAddr string
	// ReplicaOf, when set, starts the server as a read replica of the
	// primary at this address: every primary store is streamed and
	// applied locally, writes are rejected with CodeReadOnly, and
	// PROMOTE detaches the server into a standalone primary. Requires a
	// SnapshotDir.
	ReplicaOf string
	// Advertise is the address peers dial to reach this server for
	// POSITION probes, election queries and read-your-writes routing.
	// Empty = derived from the bound listener address. Replicas without
	// an advertised address are invisible to elections.
	Advertise string
	// ElectionTimeout enables automatic failover when > 0: a replica
	// whose upstream stream has been silent this long considers the
	// primary's lease expired and holds a deterministic election; a
	// primary probes its peers and demotes itself when it finds a
	// successor on a newer epoch. 0 = manual PROMOTE only (PR 5
	// behaviour).
	ElectionTimeout time.Duration
	// LeaseInterval is the failover loop's poll cadence and the
	// replication stream's heartbeat interval under automatic failover
	// (default ElectionTimeout/4). The primary renews its lease by
	// sending any frame; heartbeats bound the renewal gap when idle.
	LeaseInterval time.Duration
	// ReplSyncAcks, when > 0, makes writes semi-synchronous: a write
	// response is held until this many connected replicas have durably
	// acked the write's LSN (or ReplSyncTimeout expires, failing the
	// response even though the write is locally durable — at-least-once,
	// never silent loss). With at least one ack required, an acked
	// commit survives the loss of the primary whenever the acking
	// replica (or a peer ahead of it) wins the election.
	ReplSyncAcks int
	// ReplSyncTimeout bounds a semi-synchronous commit wait (default 5s).
	ReplSyncTimeout time.Duration
	// ReadWait bounds how long a read carrying WaitLSN blocks for the
	// store to catch up before failing with CodeLagging (default 2s).
	ReadWait time.Duration
	// ReplHeartbeat is the replication stream's idle heartbeat interval
	// (default repl.DefaultHeartbeat).
	ReplHeartbeat time.Duration
	// ReplRetry is the replica's reconnect backoff (default repl.DefaultRetry).
	ReplRetry time.Duration
	// ReplStoreRefresh is how often a replica re-queries the primary's
	// store list so stores OPENed after the replica connected get
	// replicated too (default DefaultReplStoreRefresh).
	ReplStoreRefresh time.Duration
	// Backend must be "" or xmlordb.BackendMem; OPEN refuses any other
	// value.
	//
	// Deprecated: kept for the benchmark module; remove with the next
	// [benchmark] PR.
	Backend string
	// IngestWorkers is the default parse/shred concurrency for BULKLOAD
	// requests that do not choose their own (0 = GOMAXPROCS).
	IngestWorkers int
	// Logf receives server log lines (default: discarded).
	Logf func(format string, args ...any)
}

const defaultIdleTimeout = 5 * time.Minute

func (c Config) maxRequest() int {
	if c.MaxRequestBytes > 0 {
		return c.MaxRequestBytes
	}
	return wire.DefaultMaxFrame
}

func (c Config) idleTimeout() time.Duration {
	switch {
	case c.IdleTimeout > 0:
		return c.IdleTimeout
	case c.IdleTimeout < 0:
		return 0
	default:
		return defaultIdleTimeout
	}
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// durableOptions validates Durability and translates the config into
// store WAL options; the empty policy is the WAL's own default, always.
func (c Config) durableOptions() (xmlordb.DurableOptions, error) {
	opts := xmlordb.DurableOptions{SyncInterval: c.WALSyncInterval, SegmentBytes: c.WALSegmentBytes}
	if c.Durability == "" {
		return opts, nil
	}
	if strings.EqualFold(c.Durability, "snapshot") {
		return opts, fmt.Errorf(`server: durability "snapshot" was removed: stores are always write-ahead logged (use always|interval|never, or leave it empty for always)`)
	}
	pol, err := wal.ParsePolicy(c.Durability)
	if err != nil {
		return opts, fmt.Errorf("server: %w", err)
	}
	if c.SnapshotDir == "" {
		return opts, fmt.Errorf("server: durability %q needs a snapshot directory", c.Durability)
	}
	opts.Sync = pol
	return opts, nil
}

// leaseInterval is the failover poll / heartbeat cadence.
func (c Config) leaseInterval() time.Duration {
	if c.LeaseInterval > 0 {
		return c.LeaseInterval
	}
	if c.ElectionTimeout > 0 {
		return c.ElectionTimeout / 4
	}
	return time.Second
}

// replHeartbeat is the feeder's idle heartbeat interval. Under automatic
// failover it is clamped to the lease cadence: heartbeats are the lease
// renewals, so they must outpace the election timeout.
func (c Config) replHeartbeat() time.Duration {
	hb := c.ReplHeartbeat
	if c.ElectionTimeout > 0 && (hb <= 0 || hb > c.leaseInterval()) {
		hb = c.leaseInterval()
	}
	return hb
}

func (c Config) readWait() time.Duration {
	if c.ReadWait > 0 {
		return c.ReadWait
	}
	return 2 * time.Second
}

func (c Config) syncTimeout() time.Duration {
	if c.ReplSyncTimeout > 0 {
		return c.ReplSyncTimeout
	}
	return 5 * time.Second
}

// hostedStore is one named Store plus the server-side lock that
// serializes its writers. dirty marks un-snapshotted writes.
type hostedStore struct {
	name  string
	mu    sync.RWMutex
	store *xmlordb.Store

	// ref mirrors store for lock-free readers — STATS, the REPLICATE
	// handshake, WAIT_LSN gating — that must not take mu (a session
	// holding the write lock in an open transaction still asks for
	// stats). Every swap of store updates ref in the same critical
	// section; readers get the old or the new store, never a torn read.
	ref atomic.Pointer[xmlordb.Store]

	dirtyMu sync.Mutex
	dirty   bool
}

// current is the lock-free view of the hosted store for readers that
// cannot take mu. The snapshot-transfer swap (ResetFromSnapshot) may
// retire the returned store at any time; engine accessors are internally
// locked, so stale reads are safe, just stale.
func (hs *hostedStore) current() *xmlordb.Store { return hs.ref.Load() }

func (hs *hostedStore) markDirty() {
	hs.dirtyMu.Lock()
	hs.dirty = true
	hs.dirtyMu.Unlock()
}

func (hs *hostedStore) clearDirty() bool {
	hs.dirtyMu.Lock()
	d := hs.dirty
	hs.dirty = false
	hs.dirtyMu.Unlock()
	return d
}

// Server hosts named stores behind the wire protocol.
type Server struct {
	cfg Config

	mu         sync.Mutex
	stores     map[string]*hostedStore
	opening    map[string]struct{} // names reserved by in-flight OpenStores
	storeOrder []string
	sessions   map[*session]struct{}
	sessionSeq int64
	draining   bool
	ln         net.Listener
	bound      chan struct{} // closed once Serve has a listener
	httpSrv    *http.Server
	statsLn    net.Listener

	metrics  *metrics
	wg       sync.WaitGroup // live connection handlers
	snapStop chan struct{}
	snapDone chan struct{}

	// Replication state (internal/server/repl.go). replica flips to
	// false on PROMOTE; feeds is the primary-side registry of connected
	// replicas; appliers is the replica-side per-store state. The
	// replication runtime (replStop/replWg/appliers) is generational:
	// stopReplicationLocked tears one generation down, and
	// startReplicationLocked starts a fresh one against the current
	// upstream — that restartability is what retarget and demote build on.
	replica      bool
	replStopped  bool
	feedsStopped bool
	feeds        map[*feedEntry]struct{}
	appliers     map[string]*storeApplier
	feedStop     chan struct{}
	replStop     chan struct{}
	replWg       sync.WaitGroup

	// Failover view (internal/server/failover.go): the mutable upstream
	// address, the last primary learned from lease heartbeats, and the
	// cluster member list. leaseAt is the baseline lease renewal — set
	// when a replication generation starts so a fresh replica doesn't
	// instantly see an "expired" lease.
	upstream     string
	knownPrimary string
	members      map[string]struct{}
	leaseAt      time.Time
	retargeting  bool
	// peersMu serializes PEERS writes: each save snapshots the members
	// and writes the shared temp file under it, so saves land in order
	// and the last one holds the newest membership.
	peersMu sync.Mutex

	// roleMu serializes role transitions — start/stop of the replication
	// runtime, Promote, demote, retarget. Never held on request paths.
	roleMu   sync.Mutex
	failStop chan struct{}
	failDone chan struct{}

	// ackCh is closed and remade on every replica ack: the semi-sync
	// broadcast waiters sleep on (see waitReplicated).
	ackMu sync.Mutex
	ackCh chan struct{}
}

// New returns a server with no stores hosted yet.
func New(cfg Config) *Server {
	return &Server{
		cfg:      cfg,
		stores:   map[string]*hostedStore{},
		opening:  map[string]struct{}{},
		sessions: map[*session]struct{}{},
		bound:    make(chan struct{}),
		metrics:  newMetrics(),
		feedStop: make(chan struct{}),
		replStop: make(chan struct{}),
		members:  map[string]struct{}{},
		ackCh:    make(chan struct{}),
	}
}

// storeNameRe keeps store names usable as directory names.
var storeNameRe = regexp.MustCompile(`^[A-Za-z0-9_][A-Za-z0-9_.-]{0,63}$`)

// AddStore hosts an already-open store under name. A server with a
// SnapshotDir hosts durable stores only: SAVE is a checkpoint, which an
// in-memory store cannot take.
func (s *Server) AddStore(name string, st *xmlordb.Store) error {
	if !storeNameRe.MatchString(name) {
		return fmt.Errorf("server: invalid store name %q", name)
	}
	if s.cfg.SnapshotDir != "" && st.Dir() == "" {
		return fmt.Errorf("server: store %q is in-memory; a server with a snapshot directory hosts durable stores only (OpenStore creates one)", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := s.stores[key]; ok {
		return fmt.Errorf("server: store %q already hosted", name)
	}
	if _, ok := s.opening[key]; ok {
		return fmt.Errorf("server: store %q is being opened", name)
	}
	hs := &hostedStore{name: name, store: st}
	hs.ref.Store(st)
	s.stores[key] = hs
	s.storeOrder = append(s.storeOrder, key)
	return nil
}

// reserveStore claims name for an in-flight OpenStore, failing if it is
// already hosted or being opened. The reservation must happen before
// any durable state is touched: opening the directory of an already-
// hosted store would reopen its live WAL and truncate in-flight appends
// out from under the writer.
func (s *Server) reserveStore(name string) error {
	if !storeNameRe.MatchString(name) {
		return fmt.Errorf("server: invalid store name %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := s.stores[key]; ok {
		return fmt.Errorf("server: store %q already hosted", name)
	}
	if _, ok := s.opening[key]; ok {
		return fmt.Errorf("server: store %q is being opened", name)
	}
	s.opening[key] = struct{}{}
	return nil
}

// releaseStore drops a reservation whose open failed.
func (s *Server) releaseStore(name string) {
	s.mu.Lock()
	delete(s.opening, strings.ToLower(name))
	s.mu.Unlock()
}

// installStore converts a reservation into a hosted store.
func (s *Server) installStore(name string, st *xmlordb.Store) *hostedStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(name)
	delete(s.opening, key)
	hs := &hostedStore{name: name, store: st}
	hs.ref.Store(st)
	s.stores[key] = hs
	s.storeOrder = append(s.storeOrder, key)
	return hs
}

// OpenStore installs a new store from DTD text and hosts it under name
// (the OPEN verb). With a SnapshotDir the store lives in
// <SnapshotDir>/<name>/ with a write-ahead log; the name is reserved
// up front so the directory of a hosted store is never reopened.
func (s *Server) OpenStore(name, dtdText, root string, cfg xmlordb.Config) error {
	if err := s.reserveStore(name); err != nil {
		return err
	}
	st, err := s.openStore(name, dtdText, root, cfg)
	if err != nil {
		s.releaseStore(name)
		return err
	}
	s.installStore(name, st).markDirty() // a fresh schema is state worth checkpointing
	return nil
}

func (s *Server) openStore(name, dtdText, root string, cfg xmlordb.Config) (*xmlordb.Store, error) {
	opts, err := s.cfg.durableOptions()
	if err != nil {
		return nil, err
	}
	if b := s.cfg.Backend; b != "" && b != xmlordb.BackendMem {
		return nil, fmt.Errorf("server: unknown storage backend %q", b)
	}
	if s.cfg.SnapshotDir == "" {
		return xmlordb.Open(dtdText, root, cfg)
	}
	return xmlordb.OpenDir(filepath.Join(s.cfg.SnapshotDir, name), dtdText, root, cfg, opts)
}

// lookupStore returns the hosted store named name (case-insensitive).
func (s *Server) lookupStore(name string) *hostedStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stores[strings.ToLower(name)]
}

// defaultStore returns the only hosted store when exactly one exists.
func (s *Server) defaultStore() *hostedStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.storeOrder) == 1 {
		return s.stores[s.storeOrder[0]]
	}
	return nil
}

// StoreNames lists hosted store names in hosting order.
func (s *Server) StoreNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.storeOrder))
	for _, k := range s.storeOrder {
		out = append(out, s.stores[k].name)
	}
	return out
}

// RestoreDir hosts every store persisted under cfg.SnapshotDir: each
// durable store directory (recognized by its CHECKPOINT file) is
// recovered by snapshot restore plus WAL replay. A <name>.xos file — the
// whole-file snapshot format of servers before write-ahead logging — is
// a startup error naming the file rather than a store silently left
// behind. A missing directory is not an error (first boot). Returns the
// number of stores restored.
func (s *Server) RestoreDir() (int, error) {
	opts, err := s.cfg.durableOptions()
	if err != nil {
		return 0, err
	}
	if s.cfg.SnapshotDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(s.cfg.SnapshotDir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	n := 0
	for _, e := range entries {
		path := filepath.Join(s.cfg.SnapshotDir, e.Name())
		if !e.IsDir() {
			if strings.HasSuffix(e.Name(), ".xos") {
				return n, fmt.Errorf("server: %s is a legacy whole-file snapshot and this server hosts only durable store directories; migrate it with the previous release (-durability always) or move it out of the data directory", path)
			}
			continue
		}
		if _, err := os.Stat(filepath.Join(path, "CHECKPOINT")); err != nil {
			continue // not a durable store directory
		}
		st, err := xmlordb.LoadStoreDir(path, opts)
		if err != nil {
			return n, fmt.Errorf("server: recovering %s: %w", e.Name(), err)
		}
		if rs, ok := st.WALStats(); ok && rs.Replayed > 0 {
			s.cfg.logf("store %s: replayed %d wal records (checkpoint lsn %d)",
				e.Name(), rs.Replayed, rs.CheckpointLSN)
		}
		if err := s.AddStore(e.Name(), st); err != nil {
			st.Close()
			return n, err
		}
		n++
	}
	return n, nil
}

// saveStore checkpoints one store (fresh snapshot, CHECKPOINT pointer
// update, WAL truncation) under its write lock — the same discipline as
// writers, so the snapshot can never capture a half-done load or an
// uncommitted transaction.
func (s *Server) saveStore(hs *hostedStore, locked bool) error {
	if s.cfg.SnapshotDir == "" {
		return fmt.Errorf("server: no snapshot directory configured")
	}
	if !locked {
		hs.mu.Lock()
		defer hs.mu.Unlock()
	}
	if err := hs.store.Checkpoint(); err != nil {
		return err
	}
	s.metrics.snapshots.Add(1)
	return nil
}

// SaveAll checkpoints every dirty store. Clean stores are skipped.
func (s *Server) SaveAll() error {
	s.mu.Lock()
	hosted := make([]*hostedStore, 0, len(s.storeOrder))
	for _, k := range s.storeOrder {
		hosted = append(hosted, s.stores[k])
	}
	s.mu.Unlock()
	var firstErr error
	for _, hs := range hosted {
		if !hs.clearDirty() {
			continue
		}
		if err := s.saveStore(hs, false); err != nil {
			hs.markDirty() // retry on the next cycle
			s.cfg.logf("snapshot %s: %v", hs.name, err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the bound listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// StatsAddr returns the bound address of the HTTP stats listener (nil
// before Serve, or when Config.StatsAddr is empty).
func (s *Server) StatsAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.statsLn == nil {
		return nil
	}
	return s.statsLn.Addr()
}

// Serve accepts connections on ln until Shutdown closes it. The
// background snapshot loop and the optional HTTP stats listener run for
// the duration of Serve. The stats listener binds before ln is
// published (Addr), and a bind failure closes ln and fails Serve.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: already shut down")
	}
	if s.cfg.StatsAddr != "" {
		if err := s.startStatsHTTPLocked(); err != nil {
			s.mu.Unlock()
			ln.Close()
			return fmt.Errorf("server: stats listener: %w", err)
		}
	}
	if s.ln == nil {
		close(s.bound)
	}
	s.ln = ln
	s.mu.Unlock()

	if s.cfg.SnapshotDir != "" && s.cfg.SnapshotInterval > 0 {
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop()
	}
	// The failover loop needs the bound address (elections identify
	// nodes by advertised address), so it starts here rather than in
	// StartReplication.
	if s.cfg.ElectionTimeout > 0 {
		s.startFailover()
	}

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.sessionSeq++
		sess := newSession(s, conn, s.sessionSeq)
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		s.metrics.sessionsOpen.Add(1)
		s.metrics.sessionsTotal.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sess.serve()
		}()
	}
}

// snapshotLoop periodically saves dirty stores.
func (s *Server) snapshotLoop() {
	defer close(s.snapDone)
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.SaveAll(); err != nil {
				s.cfg.logf("snapshot cycle: %v", err)
			}
		case <-s.snapStop:
			return
		}
	}
}

// startStatsHTTPLocked serves GET /stats on cfg.StatsAddr. s.mu must be
// held, so Shutdown either sees the listener or runs before it exists.
func (s *Server) startStatsHTTPLocked() error {
	ln, err := net.Listen("tcp", s.cfg.StatsAddr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.statsPayload())
	})
	s.httpSrv = &http.Server{Handler: mux}
	s.statsLn = ln
	go s.httpSrv.Serve(ln)
	return nil
}

// statsPayload assembles the STATS reply. It takes no store locks and
// no engine locks — the sources are atomic counters plus the published
// MVCC version — so a session holding a store's write lock (an open
// transaction, a long document load) can never delay stats, and stats
// can never delay a writer.
func (s *Server) statsPayload() *wire.Stats {
	s.mu.Lock()
	hosted := make([]*hostedStore, 0, len(s.storeOrder))
	for _, k := range s.storeOrder {
		hosted = append(hosted, s.stores[k])
	}
	draining := s.draining
	s.mu.Unlock()
	st := &wire.Stats{
		SessionsOpen:  s.metrics.sessionsOpen.Load(),
		SessionsTotal: s.metrics.sessionsTotal.Load(),
		Draining:      draining,
		Snapshots:     s.metrics.snapshots.Load(),
		Timeouts:      s.metrics.timeouts.Load(),
		Oversized:     s.metrics.oversized.Load(),
		Verbs:         s.metrics.verbStats(),
	}
	for _, hs := range hosted {
		// The lock-free ref, not hs.store: a replication snapshot
		// transfer may be swapping the store right now.
		store := hs.current()
		cs := store.CacheStats()
		dbs := store.DB().Stats()
		docs := 0
		// Count documents on the published version: lock-free, and
		// never counts rows of a half-applied load.
		if tab, err := store.DB().Reader().Table(store.Schema.RootTable); err == nil {
			docs = tab.RowCount()
		}
		ss := wire.StoreStats{
			Name:        hs.name,
			Documents:   docs,
			ParseHits:   cs.ParseHits,
			ParseMisses: cs.ParseMisses,
			PlanHits:    cs.PlanHits,
			PlanMisses:  cs.PlanMisses,
			Inserts:     dbs.Inserts,
			RowsScanned: dbs.RowsScanned,
			Derefs:      dbs.Derefs,
			IndexProbes: dbs.IndexProbes,
		}
		if ws, ok := store.WALStats(); ok {
			ss.Durable = true
			ss.WALRecords = ws.Appends
			ss.WALBytes = ws.Bytes
			ss.WALFsyncs = ws.Fsyncs
			ss.WALCommits = ws.SyncWaits
			ss.WALReplayed = ws.Replayed
			ss.WALLastLSN = ws.LastLSN
			ss.WALCheckpointLSN = ws.CheckpointLSN
		}
		if is := store.IngestStats(); is.Runs > 0 {
			ss.IngestRuns = is.Runs
			ss.IngestDocs = is.Docs
			ss.IngestFailed = is.Failed
			ss.IngestBatches = is.Batches
			ss.IngestBytes = is.Bytes
			ss.IngestNanos = is.Nanos
			ss.IngestWorkers = int(is.Workers)
		}
		st.StoreStats = append(st.StoreStats, ss)
	}
	sort.Slice(st.StoreStats, func(i, j int) bool { return st.StoreStats[i].Name < st.StoreStats[j].Name })
	if rs := s.replStats(); rs.Role == RoleReplica || len(rs.Stores) > 0 {
		st.Repl = rs
	}
	return st
}

// Shutdown drains the server: the listener closes (new connections are
// refused), idle sessions are closed immediately — rolling back any open
// transaction — and busy sessions finish their in-flight request and
// receive its response before closing. Dirty stores are snapshotted
// after the drain. If ctx expires first, remaining connections are
// force-closed and ctx.Err is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("server: already shut down")
	}
	s.draining = true
	ln := s.ln
	httpSrv := s.httpSrv
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	if s.snapStop != nil {
		close(s.snapStop)
		<-s.snapDone
	}
	// Stop replication before draining sessions: the failover loop first
	// (so it cannot promote or retarget mid-shutdown), then feeders exit
	// their streams (their sessions then drain like any other) and a
	// replica's appliers stop pulling before the stores close.
	s.stopFailover()
	s.stopFeeds()
	s.stopReplication()
	for _, sess := range sessions {
		sess.beginDrain()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		for _, sess := range sessions {
			sess.forceClose()
		}
		<-done
		drainErr = ctx.Err()
	}
	if httpSrv != nil {
		httpSrv.Close()
	}
	if s.cfg.SnapshotDir != "" {
		if err := s.SaveAll(); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	// Close durable stores' logs (flushing any unsynced tail to disk).
	s.mu.Lock()
	hosted := make([]*hostedStore, 0, len(s.storeOrder))
	for _, k := range s.storeOrder {
		hosted = append(hosted, s.stores[k])
	}
	s.mu.Unlock()
	for _, hs := range hosted {
		hs.mu.Lock()
		if err := hs.store.Close(); err != nil && drainErr == nil {
			drainErr = err
		}
		hs.mu.Unlock()
	}
	return drainErr
}

// dropSession unregisters sess after its loop exits: any open
// transaction is rolled back and the store write lock released, so a
// dead client can never strand a store.
func (s *Server) dropSession(sess *session) {
	sess.releaseTx(true)
	s.mu.Lock()
	if _, ok := s.sessions[sess]; ok {
		delete(s.sessions, sess)
		s.metrics.sessionsOpen.Add(-1)
	}
	s.mu.Unlock()
	sess.conn.Close()
}

// SessionCount reports the number of live sessions (test hook).
func (s *Server) SessionCount() int {
	return int(s.metrics.sessionsOpen.Load())
}
