// Durable stores: a directory pairing the latest Save snapshot with a
// write-ahead log of every committed change since it was taken.
//
// Layout of a durable store directory:
//
//	snapshot-<lsn>.xos   full Save snapshot, current as of WAL position <lsn>
//	CHECKPOINT           "v1 <lsn>\n" — names the authoritative snapshot
//	wal/                 internal/wal segments holding the redo tail
//
// The CHECKPOINT pointer file is the commit point of a checkpoint: the
// new snapshot is written (and fsynced) under its own name first, then
// CHECKPOINT is atomically renamed over. A crash between the two leaves
// the old pointer naming the old snapshot, whose WAL tail is still
// intact — recovery replays a little more, loses nothing.
//
// Redo records are logical: the XML text of a loaded document, the ID of
// a deleted one, the text of a DML/DDL statement. Replay re-executes
// them through the same code paths as the original operations, which are
// deterministic (a document ID is the highest stored one plus one, OIDs
// come from a counter restored by the snapshot), so recovery converges on the
// pre-crash state. Records belonging to an explicit transaction are
// buffered in memory and appended as one commit unit only when the
// engine transaction commits — a rolled-back transaction never reaches
// the log, and a commit unit costs a single (group-committed) fsync
// under the "always" sync policy.
package xmlordb

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"xmlordb/internal/ordb"
	"xmlordb/internal/sql"
	"xmlordb/internal/wal"
	"xmlordb/internal/xmldom"
)

// WAL record types (the wal.Record.Type byte).
const (
	// RecLoad is a committed document load; payload gob(walLoadPayload).
	RecLoad byte = 1
	// RecDelete is a committed document delete; payload gob(walDeletePayload).
	RecDelete byte = 2
	// RecSQL is a committed DML or auto-committed DDL statement executed
	// through Store.Exec; payload gob(walSQLPayload).
	RecSQL byte = 3
)

type walLoadPayload struct {
	DocID   int
	DocName string
	XML     string
}

type walDeletePayload struct {
	DocID int
}

type walSQLPayload struct {
	SQL string
}

const (
	checkpointFile  = "CHECKPOINT"
	epochFile       = "EPOCH"
	walDirName      = "wal"
	snapshotPattern = "snapshot-%020d.xos"
)

func snapshotFileName(lsn uint64) string { return fmt.Sprintf(snapshotPattern, lsn) }

// DurableOptions configure the write-ahead log of a durable store.
// The zero value syncs on every commit (wal.SyncAlways).
type DurableOptions struct {
	// Sync is the WAL durability policy: wal.SyncAlways (default),
	// wal.SyncInterval or wal.SyncNever.
	Sync wal.SyncPolicy
	// SyncInterval is the background flush period under wal.SyncInterval.
	SyncInterval time.Duration
	// SegmentBytes caps a WAL segment before rotation.
	SegmentBytes int64
}

func (o DurableOptions) walOptions() wal.Options {
	return wal.Options{Sync: o.Sync, SyncInterval: o.SyncInterval, SegmentBytes: o.SegmentBytes}
}

// walMark mirrors an engine savepoint inside the pending-record buffer.
type walMark struct {
	name string
	mark int
}

// walState is a Store's durability sidecar: the open log, the pending
// buffer of records awaiting their transaction's commit, and the
// savepoint marks that let a partial rollback discard exactly the
// records logged after the savepoint. It implements ordb.TxObserver.
type walState struct {
	log *wal.Log
	dir string
	db  *ordb.DB

	mu       sync.Mutex
	pending  []wal.Entry
	marks    []walMark
	ckptLSN  uint64
	replayed int
	// epoch is the replication timeline this directory's history belongs
	// to: seeded at 1 (or adopted from the primary on bootstrap), bumped
	// by promotion, persisted in the EPOCH file. A replica whose epoch
	// differs from its primary's is snapshot re-seeded unless the
	// primary's epoch history proves the replica stopped before the
	// fork (see EpochHistory).
	epoch uint64
	// epochs records where each timeline began (sorted by epoch). It is
	// persisted alongside the current epoch so a promoted server can
	// fast-forward old-epoch replicas that never applied past the fork.
	epochs []EpochStart

	// applying marks a replicated commit unit being re-executed: the
	// records are already in the local log (ApplyReplicatedUnit appends
	// them first), so the walLog* hooks must not log them again. Only
	// the store's single serialized writer flips it, so a plain bool
	// under the writer-exclusion contract suffices.
	applying bool
}

var _ ordb.TxObserver = (*walState)(nil)

// record logs one store operation: buffered when an engine transaction
// is open (flushed by TxCommitted, before the commit publishes) — always
// the case for document loads and deletes, which log from inside their
// own transaction — appended and synced as its own commit unit otherwise
// (an autocommitted SQL statement, which Store.Exec publishes after this
// returns). Store writers are serialized by contract, so the
// open-transaction check cannot race a commit.
func (w *walState) record(kind byte, payload any) error {
	if w.applying {
		return nil // replicated record: already appended to the local log
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		return fmt.Errorf("xmlordb: encoding wal record: %w", err)
	}
	e := wal.Entry{Type: kind, Payload: buf.Bytes()}
	if w.db.CurrentTx() != nil {
		w.mu.Lock()
		w.pending = append(w.pending, e)
		w.mu.Unlock()
		return nil
	}
	_, err := w.log.AppendBatch([]wal.Entry{e})
	return err
}

// TxCommitted appends the transaction's buffered records as one commit
// unit. Its error reaches the committer through ordb.Tx.Commit.
func (w *walState) TxCommitted() error {
	w.mu.Lock()
	entries := w.pending
	w.pending = nil
	w.marks = w.marks[:0]
	w.mu.Unlock()
	if len(entries) == 0 {
		return nil
	}
	_, err := w.log.AppendBatch(entries)
	return err
}

// TxRolledBack discards every buffered record: nothing reaches the log.
func (w *walState) TxRolledBack() {
	w.mu.Lock()
	w.pending = nil
	w.marks = w.marks[:0]
	w.mu.Unlock()
}

// TxSavepoint marks the buffer position, moving the mark on name reuse
// (Oracle semantics, mirroring ordb).
func (w *walState) TxSavepoint(name string) {
	w.mu.Lock()
	kept := w.marks[:0]
	for _, m := range w.marks {
		if !strings.EqualFold(m.name, name) {
			kept = append(kept, m)
		}
	}
	w.marks = append(kept, walMark{name: name, mark: len(w.pending)})
	w.mu.Unlock()
}

// TxRolledBackTo discards the records buffered after the savepoint.
func (w *walState) TxRolledBackTo(name string) {
	w.mu.Lock()
	for i := len(w.marks) - 1; i >= 0; i-- {
		if strings.EqualFold(w.marks[i].name, name) {
			w.pending = w.pending[:w.marks[i].mark]
			w.marks = w.marks[:i+1]
			break
		}
	}
	w.mu.Unlock()
}

// WALStats extends the log's counters with recovery and checkpoint state.
type WALStats struct {
	wal.Stats
	// Replayed counts the records applied during recovery at open.
	Replayed int
	// CheckpointLSN is the WAL position the current snapshot covers.
	CheckpointLSN uint64
}

// WALStats reports the durability counters; ok is false for a purely
// in-memory store.
func (s *Store) WALStats() (st WALStats, ok bool) {
	w := s.wal.Load()
	if w == nil {
		return WALStats{}, false
	}
	st.Stats = w.log.Stats()
	w.mu.Lock()
	st.Replayed = w.replayed
	st.CheckpointLSN = w.ckptLSN
	w.mu.Unlock()
	return st, true
}

// Dir returns the durable store directory, or "" for in-memory stores.
func (s *Store) Dir() string {
	w := s.wal.Load()
	if w == nil {
		return ""
	}
	return w.dir
}

// OpenDir opens a durable store rooted at dir: when the directory holds
// a checkpoint it recovers from it (dtdText/root/cfg are then ignored —
// the snapshot carries them), otherwise it creates a fresh store for the
// DTD and makes it durable with AttachDir.
func OpenDir(dir, dtdText, root string, cfg Config, opts DurableOptions) (*Store, error) {
	if _, err := os.Stat(filepath.Join(dir, checkpointFile)); err == nil {
		return LoadStoreDir(dir, opts)
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	s, err := Open(dtdText, root, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.AttachDir(dir, opts); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadStoreDir recovers a durable store: it restores the snapshot named
// by the CHECKPOINT pointer and replays the WAL tail beyond it. A torn
// final record (a crash mid-append) is truncated away by the log itself;
// corruption anywhere before the tail refuses the whole log with
// wal.ErrCorrupt rather than silently skipping committed history.
func LoadStoreDir(dir string, opts DurableOptions) (*Store, error) {
	ckpt, err := readCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(dir, snapshotFileName(ckpt)))
	if err != nil {
		return nil, fmt.Errorf("xmlordb: %s: checkpoint names a missing snapshot: %w", dir, err)
	}
	s, err := LoadStore(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	// A fresh (empty) WAL continues numbering where the checkpoint left
	// off — the case after BootstrapDirFromSnapshot seeds a replica. A
	// WAL with segments keeps its own numbering.
	wopts := opts.walOptions()
	wopts.StartLSN = ckpt + 1
	log, err := wal.Open(filepath.Join(dir, walDirName), wopts)
	if err != nil {
		return nil, err
	}
	replayed, err := log.Replay(ckpt+1, s.applyWALRecord)
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("xmlordb: replaying wal for %s: %w", dir, err)
	}
	epoch, epochs, ok, err := readEpoch(dir)
	if err != nil {
		log.Close()
		return nil, err
	}
	if !ok {
		// Pre-epoch directory: adopt timeline 1 and persist it so future
		// opens and handshakes agree.
		epoch = 1
		epochs = []EpochStart{{Epoch: 1, StartLSN: 1}}
		_ = writeEpoch(dir, epoch, epochs)
	}
	s.attachWAL(log, dir, ckpt, replayed, epoch, epochs)
	return s, nil
}

// AttachDir makes an in-memory store durable: it creates dir, opens the
// WAL and takes the initial checkpoint. The store must not be mid-
// transaction and must not already be durable.
func (s *Store) AttachDir(dir string, opts DurableOptions) error {
	if w := s.wal.Load(); w != nil {
		return fmt.Errorf("xmlordb: store is already durable (%s)", w.dir)
	}
	if s.Engine.DB().CurrentTx() != nil {
		return fmt.Errorf("xmlordb: AttachDir with a transaction open")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	log, err := wal.Open(filepath.Join(dir, walDirName), opts.walOptions())
	if err != nil {
		return err
	}
	epochs := []EpochStart{{Epoch: 1, StartLSN: log.LastLSN() + 1}}
	if err := writeEpoch(dir, 1, epochs); err != nil {
		log.Close()
		return err
	}
	s.attachWAL(log, dir, log.LastLSN(), 0, 1, epochs)
	if err := s.Checkpoint(); err != nil {
		s.Close()
		return err
	}
	return nil
}

func (s *Store) attachWAL(log *wal.Log, dir string, ckpt uint64, replayed int, epoch uint64, epochs []EpochStart) {
	w := &walState{log: log, dir: dir, db: s.Engine.DB(), ckptLSN: ckpt, replayed: replayed, epoch: epoch, epochs: epochs}
	s.wal.Store(w)
	db := s.Engine.DB()
	db.SetTxObserver(w)
	// Version LSNs come from the log from here on; the version published
	// before attach (or during replay) predates that wiring, so re-stamp
	// it to the log's current position.
	db.SetLSNSource(log.LastLSN)
	db.Republish()
}

// EpochStart records where one replication timeline began: StartLSN is
// the first LSN written on Epoch. It mirrors the wire-level type in
// internal/wire without importing it.
type EpochStart struct {
	Epoch    uint64
	StartLSN uint64
}

// Epoch reports the store's replication timeline (0 for in-memory
// stores, which have no replication identity).
func (s *Store) Epoch() uint64 {
	w := s.wal.Load()
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

// EpochHistory returns where each known timeline began, sorted by
// epoch (nil for in-memory stores). The history accumulates from local
// promotions and from the histories adopted during seeding, so it may
// be partial — a missing entry only costs a snapshot re-seed, never
// correctness.
func (s *Store) EpochHistory() []EpochStart {
	w := s.wal.Load()
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]EpochStart(nil), w.epochs...)
}

// BumpEpoch starts a new replication timeline: promotion calls it so
// any replica of the old timeline (including a restarted ex-primary)
// is fenced instead of grafting the new history onto a possibly-
// divergent tail. The fork point (the log's last LSN) is recorded in
// the epoch history, so replicas of the old timeline that never
// applied past the fork can stream forward rather than re-seed. The
// in-memory epoch advances even when persisting the EPOCH file fails —
// in-process handshake checks must see the new timeline — and the
// persist error is returned so callers can surface it.
func (s *Store) BumpEpoch() (uint64, error) {
	w := s.wal.Load()
	if w == nil {
		return 0, fmt.Errorf("xmlordb: BumpEpoch on an in-memory store")
	}
	fork := w.log.LastLSN()
	w.mu.Lock()
	w.epoch++
	epoch := w.epoch
	w.epochs = append(w.epochs, EpochStart{Epoch: epoch, StartLSN: fork + 1})
	epochs := append([]EpochStart(nil), w.epochs...)
	dir := w.dir
	w.mu.Unlock()
	return epoch, writeEpoch(dir, epoch, epochs)
}

// AdoptEpoch moves the store onto timeline epoch with the given
// history without re-seeding: the feeder proved (via its epoch
// history) that this store never applied anything past the fork, so
// its state is a prefix of the new timeline. Callers must hold the
// store's writer exclusion. Like BumpEpoch, the in-memory state
// adopts the new timeline even if persisting fails.
func (s *Store) AdoptEpoch(epoch uint64, history []EpochStart) error {
	w := s.wal.Load()
	if w == nil {
		return fmt.Errorf("xmlordb: AdoptEpoch on an in-memory store")
	}
	w.mu.Lock()
	w.epoch = epoch
	if len(history) > 0 {
		w.epochs = append([]EpochStart(nil), history...)
	}
	epochs := append([]EpochStart(nil), w.epochs...)
	dir := w.dir
	w.mu.Unlock()
	return writeEpoch(dir, epoch, epochs)
}

// Checkpoint writes a fresh snapshot covering everything up to the WAL's
// last LSN, commits it by atomically updating the CHECKPOINT pointer,
// and then prunes WAL segments and snapshots the pointer no longer
// needs. Requires a durable store with no open transaction; callers
// must hold the store's writer exclusion.
func (s *Store) Checkpoint() error {
	w := s.wal.Load()
	if w == nil {
		return fmt.Errorf("xmlordb: Checkpoint on an in-memory store (use AttachDir first)")
	}
	if s.Engine.DB().CurrentTx() != nil {
		return fmt.Errorf("xmlordb: Checkpoint with a transaction open")
	}
	// Serialize the published MVCC version rather than the live store:
	// the snapshot is consistent at the version's LSN by construction
	// and its writing takes no engine lock. Under the caller's writer
	// exclusion the version covers the log's full history (Exec publishes
	// an autocommitted statement after its append, Commit after the
	// observer), so this equals the log's last LSN.
	rv := s.ReadView()
	lsn := rv.VersionLSN()
	path := filepath.Join(w.dir, snapshotFileName(lsn))
	if err := writeFileAtomic(path, rv.Save); err != nil {
		return fmt.Errorf("xmlordb: writing checkpoint snapshot: %w", err)
	}
	if err := writeCheckpoint(w.dir, lsn); err != nil {
		return err
	}
	w.mu.Lock()
	w.ckptLSN = lsn
	w.mu.Unlock()
	// Best-effort pruning: failures leave garbage, not incorrectness.
	_ = w.log.TruncateBefore(lsn + 1)
	if ents, err := os.ReadDir(w.dir); err == nil {
		for _, e := range ents {
			var n uint64
			if c, err := fmt.Sscanf(e.Name(), snapshotPattern, &n); err == nil && c == 1 && n != lsn {
				_ = os.Remove(filepath.Join(w.dir, e.Name()))
			}
		}
	}
	return nil
}

// Close detaches and closes the WAL (flushing it to disk). The store
// itself remains usable in memory; Close on an in-memory store is a
// no-op. It does NOT checkpoint — pair with Checkpoint for a clean
// shutdown that makes the next open replay-free.
func (s *Store) Close() error {
	w := s.wal.Swap(nil)
	if w == nil {
		return nil
	}
	s.Engine.DB().SetTxObserver(nil)
	s.Engine.DB().SetLSNSource(nil)
	return w.log.Close()
}

// applyWALRecord re-executes one redo record during recovery. It runs
// before the WAL is attached, so replayed operations are not re-logged.
func (s *Store) applyWALRecord(rec wal.Record) error {
	switch rec.Type {
	case RecLoad:
		var p walLoadPayload
		if err := gob.NewDecoder(bytes.NewReader(rec.Payload)).Decode(&p); err != nil {
			return fmt.Errorf("lsn %d: decoding load record: %w", rec.LSN, err)
		}
		id, err := s.LoadXML(p.XML, p.DocName)
		if err != nil {
			return fmt.Errorf("lsn %d: reloading %q: %w", rec.LSN, p.DocName, err)
		}
		if id != p.DocID {
			return fmt.Errorf("lsn %d: replay assigned DocID %d, log recorded %d", rec.LSN, id, p.DocID)
		}
	case RecDelete:
		var p walDeletePayload
		if err := gob.NewDecoder(bytes.NewReader(rec.Payload)).Decode(&p); err != nil {
			return fmt.Errorf("lsn %d: decoding delete record: %w", rec.LSN, err)
		}
		if err := s.DeleteDocument(p.DocID); err != nil {
			return fmt.Errorf("lsn %d: re-deleting document %d: %w", rec.LSN, p.DocID, err)
		}
	case RecSQL:
		var p walSQLPayload
		if err := gob.NewDecoder(bytes.NewReader(rec.Payload)).Decode(&p); err != nil {
			return fmt.Errorf("lsn %d: decoding sql record: %w", rec.LSN, err)
		}
		if _, err := s.Engine.Exec(p.SQL); err != nil {
			return fmt.Errorf("lsn %d: re-executing %q: %w", rec.LSN, p.SQL, err)
		}
	default:
		return fmt.Errorf("lsn %d: unknown wal record type %d", rec.LSN, rec.Type)
	}
	return nil
}

// walLogLoad and walLogDelete are called by LoadPrepared/DeleteDocument
// as the last step inside the operation's transaction. Each is a no-op on
// in-memory stores.

func (s *Store) walLogLoad(doc *xmldom.Document, docName, xmlText string, docID int) error {
	w := s.wal.Load()
	if w == nil {
		return nil
	}
	if xmlText == "" {
		xmlText = xmldom.Serialize(doc)
	}
	if err := w.record(RecLoad, walLoadPayload{DocID: docID, DocName: docName, XML: xmlText}); err != nil {
		return fmt.Errorf("xmlordb: logging load of document %d: %w", docID, err)
	}
	return nil
}

func (s *Store) walLogDelete(docID int) error {
	w := s.wal.Load()
	if w == nil {
		return nil
	}
	if err := w.record(RecDelete, walDeletePayload{DocID: docID}); err != nil {
		return fmt.Errorf("xmlordb: logging delete of document %d: %w", docID, err)
	}
	return nil
}

// walWorthySQL reports whether a statement mutates durable state. BEGIN,
// COMMIT, ROLLBACK and SAVEPOINT drive the transaction machinery whose
// outcomes the observer logs; SELECT changes nothing.
func walWorthySQL(sqlText string) bool {
	stmt, err := sql.CachedParse(sqlText)
	if err != nil {
		return false
	}
	switch stmt.(type) {
	case *sql.InsertStmt, *sql.DeleteStmt, *sql.UpdateStmt,
		*sql.CreateTypeStmt, *sql.CreateTableStmt, *sql.CreateViewStmt,
		*sql.CreateIndexStmt, *sql.DropStmt:
		return true
	}
	return false
}

// DescribeWALRecord renders one WAL record for log inspection (the
// `xmlordbd wal dump` subcommand).
func DescribeWALRecord(rec wal.Record) string {
	dec := gob.NewDecoder(bytes.NewReader(rec.Payload))
	switch rec.Type {
	case RecLoad:
		var p walLoadPayload
		if err := dec.Decode(&p); err == nil {
			return fmt.Sprintf("LOAD doc %d %q (%d bytes xml)", p.DocID, p.DocName, len(p.XML))
		}
	case RecDelete:
		var p walDeletePayload
		if err := dec.Decode(&p); err == nil {
			return fmt.Sprintf("DELETE doc %d", p.DocID)
		}
	case RecSQL:
		var p walSQLPayload
		if err := dec.Decode(&p); err == nil {
			stmt := p.SQL
			if len(stmt) > 120 {
				stmt = stmt[:117] + "..."
			}
			return fmt.Sprintf("SQL %s", stmt)
		}
	}
	return fmt.Sprintf("type=%d (%d bytes, undecodable)", rec.Type, len(rec.Payload))
}

// WALInfo summarizes a durable store directory's log (ScanWAL).
type WALInfo struct {
	CheckpointLSN uint64
	Records       int
	// Units counts commit units (frames carrying the commit flag).
	Units         int
	FirstLSN      uint64
	LastLSN       uint64
	Segments      int
	TruncatedTail bool
}

// ScanWAL reads the WAL of a durable store directory without opening
// the store, invoking fn (when non-nil) with each record's LSN, type,
// commit flag (true = the record ends its commit unit) and rendered
// summary. Like recovery, it truncates a torn final record and refuses
// a corrupt log. The store must not be open.
func ScanWAL(dir string, fn func(lsn uint64, typ byte, commit bool, summary string)) (WALInfo, error) {
	info := WALInfo{}
	ckpt, err := readCheckpoint(dir)
	if err != nil {
		return info, err
	}
	info.CheckpointLSN = ckpt
	log, err := wal.Open(filepath.Join(dir, walDirName), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return info, err
	}
	defer log.Close()
	_, err = log.Replay(1, func(rec wal.Record) error {
		if info.Records == 0 {
			info.FirstLSN = rec.LSN
		}
		info.LastLSN = rec.LSN
		info.Records++
		if rec.Commit {
			info.Units++
		}
		if fn != nil {
			fn(rec.LSN, rec.Type, rec.Commit, DescribeWALRecord(rec))
		}
		return nil
	})
	st := log.Stats()
	info.Segments = st.Segments
	info.TruncatedTail = st.TruncatedTail
	return info, err
}

// readCheckpoint parses the CHECKPOINT pointer file.
func readCheckpoint(dir string) (uint64, error) {
	data, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, fmt.Errorf("xmlordb: %s: no CHECKPOINT file (not a durable store directory)", dir)
		}
		return 0, err
	}
	var lsn uint64
	if n, err := fmt.Sscanf(string(data), "v1 %d", &lsn); err != nil || n != 1 {
		return 0, fmt.Errorf("xmlordb: %s: malformed CHECKPOINT file %q", dir, string(data))
	}
	return lsn, nil
}

// writeCheckpoint atomically replaces the CHECKPOINT pointer.
func writeCheckpoint(dir string, lsn uint64) error {
	return writeFileAtomic(filepath.Join(dir, checkpointFile), func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "v1 %d\n", lsn)
		return err
	})
}

// readEpoch parses the EPOCH timeline file; ok is false when the
// directory predates epochs (no file). Two formats exist: the PR 5
// "v1 <epoch>" single line, and the v2 form that adds one
// "<epoch> <startLSN>" history line per known timeline. A v1 file
// yields a history entry with StartLSN 0 — an unknown fork point, so
// every cross-epoch handshake falls back to a snapshot re-seed, which
// is exactly the v1 behaviour.
func readEpoch(dir string) (epoch uint64, history []EpochStart, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, epochFile))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil, false, nil
		}
		return 0, nil, false, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if n, err := fmt.Sscanf(lines[0], "v1 %d", &epoch); err == nil && n == 1 {
		return epoch, []EpochStart{{Epoch: epoch, StartLSN: 0}}, true, nil
	}
	if n, err := fmt.Sscanf(lines[0], "v2 %d", &epoch); err != nil || n != 1 {
		return 0, nil, false, fmt.Errorf("xmlordb: %s: malformed EPOCH file %q", dir, string(data))
	}
	for _, line := range lines[1:] {
		var e EpochStart
		if n, err := fmt.Sscanf(line, "%d %d", &e.Epoch, &e.StartLSN); err != nil || n != 2 {
			return 0, nil, false, fmt.Errorf("xmlordb: %s: malformed EPOCH history line %q", dir, line)
		}
		history = append(history, e)
	}
	return epoch, history, true, nil
}

// writeEpoch atomically replaces the EPOCH timeline file (v2 format:
// current epoch plus one history line per known timeline).
func writeEpoch(dir string, epoch uint64, history []EpochStart) error {
	return writeFileAtomic(filepath.Join(dir, epochFile), func(w io.Writer) error {
		if _, err := fmt.Fprintf(w, "v2 %d\n", epoch); err != nil {
			return err
		}
		for _, e := range history {
			if _, err := fmt.Fprintf(w, "%d %d\n", e.Epoch, e.StartLSN); err != nil {
				return err
			}
		}
		return nil
	})
}

// writeFileAtomic writes via a temp file, fsyncs and renames into place,
// then fsyncs the directory so the rename itself is durable.
func writeFileAtomic(path string, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := fill(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// ErrCorruptWAL re-exports wal.ErrCorrupt so store users can detect a
// refused log without importing the internal package.
var ErrCorruptWAL = wal.ErrCorrupt
