package ordb

import (
	"errors"
	"maps"
)

// MVCC version publishing.
//
// A DB instance is either LIVE or FROZEN. The live instance is the one
// writers mutate under db.mu, exactly as before; a frozen instance is an
// immutable copy-on-write snapshot of the live catalog and row storage,
// built at commit time and published with a single atomic pointer swap.
// Readers call Reader() to grab the current frozen version once and then
// run entirely lock-free against it: every accessor on a frozen DB skips
// db.mu (rlock/runlock are no-ops), every mutator fails with ErrFrozen.
//
// What makes the snapshot cheap:
//
//   - A version shares the live catalog's type and view maps and its
//     listing orders, which therefore never change once published: DDL
//     edits copies (DB.editCatalogLocked). Only the tables mutated since
//     the previous publish are captured again, and only they are listed
//     (DB.dirty); the version's table map is the previous one's with
//     those entries replaced, and the previous one itself when nothing
//     changed.
//   - A table's rows live in one persistent radix trie keyed by OID or
//     insert sequence (rowtrie.go), which also answers REF dereference,
//     and each built secondary index is a trie of the same type keyed by
//     value, then row (index.go). Capturing one is a struct copy;
//     live-side updates path-copy, except nodes stamped with the table's
//     edit token, which no version holds and which are changed in place.
//     One token governs a table's row trie and all its index tries.
//     Freezing a table renews it, and so does a live Scan or Cursor,
//     which reads its capture outside the lock (Table.captureLocked); a
//     live index probe instead copies a result that shares a node stamped
//     with the current token (Index.liveProbeLocked).
//   - Stored rows are immutable: an update stores a fresh Row under the
//     same key, leaving the old one intact for concurrent readers.
//
// Publication points: the end of every autocommit mutation, Tx.Commit
// (after the WAL observer ran, so the version's LSN covers the commit
// unit), Rollback (DDL survives a rollback), ResumePublish (the end of a
// span the durability layer holds back until its records are logged),
// and Republish (the durability layer re-stamps the version after
// attaching a log).
// While a transaction is open nothing is published, so readers never see
// a partial document load — they keep the pre-transaction version until
// Commit swaps in the complete one.

// ErrFrozen reports a write attempted on a published read-only version.
var ErrFrozen = errors.New("ordb: database version is frozen (read-only snapshot)")

// writable guards mutators: frozen versions reject all writes. The
// frozen flag is immutable after construction, so this needs no lock.
func (db *DB) writable() error {
	if db.frozen {
		return ErrFrozen
	}
	return nil
}

// rlock/runlock take the instance read lock on a live DB and are no-ops
// on a frozen one, whose state can never change.
func (db *DB) rlock() {
	if !db.frozen {
		db.mu.RLock()
	}
}

func (db *DB) runlock() {
	if !db.frozen {
		db.mu.RUnlock()
	}
}

// SetLSNSource installs the function that supplies the log sequence
// number a published version is stamped with — the durability layer
// points this at its WAL's LastLSN so MVCC snapshots and commit units
// line up exactly. Without a source, versions inherit the previous LSN.
func (db *DB) SetLSNSource(fn func() uint64) {
	db.mu.Lock()
	db.lsnSource = fn
	db.mu.Unlock()
}

// lsnLocked returns the LSN to stamp the next version with.
func (db *DB) lsnLocked() uint64 {
	if db.lsnSource != nil {
		return db.lsnSource()
	}
	if prev := db.published.Load(); prev != nil {
		return prev.versionLSN
	}
	return 0
}

// Reader returns the most recently published frozen version. The
// returned DB is safe for unlimited concurrent lock-free reads and
// never changes; call Reader again to observe later commits. On a
// frozen DB, Reader returns the receiver.
func (db *DB) Reader() *DB {
	if db.frozen {
		return db
	}
	return db.published.Load()
}

// VersionLSN reports the LSN a frozen version was stamped with; on a
// live DB it reports the currently published version's LSN.
func (db *DB) VersionLSN() uint64 {
	if db.frozen {
		return db.versionLSN
	}
	if v := db.published.Load(); v != nil {
		return v.versionLSN
	}
	return 0
}

// Republish refreshes the published version from current committed
// state — the durability layer calls this after attaching a WAL, so the
// version's LSN catches up with the log. No-op while a transaction is
// open (Commit will publish).
func (db *DB) Republish() {
	if db.frozen {
		return
	}
	db.mu.Lock()
	if db.tx == nil && !db.pubSuspended {
		db.publishLocked(db.lsnLocked())
	}
	db.mu.Unlock()
}

// SuspendPublish holds back version publication: mutations commit into
// the live state as usual, but readers keep the previously published
// version. The replication layer brackets a commit unit's application
// with Suspend/ResumePublish so a unit of several records becomes
// visible atomically — and never stamped with the unit's end LSN while
// only partly applied; an autocommitted statement is bracketed so that
// it becomes visible only once its record is logged. Not nested;
// callers serialize with the store's writer exclusion.
func (db *DB) SuspendPublish() {
	db.mu.Lock()
	db.pubSuspended = true
	db.mu.Unlock()
}

// ResumePublish lifts SuspendPublish and publishes the accumulated
// state as one version.
func (db *DB) ResumePublish() {
	db.mu.Lock()
	db.pubSuspended = false
	if db.tx == nil {
		db.publishLocked(db.lsnLocked())
	}
	db.mu.Unlock()
}

// markDirtyLocked lists t for capture at the next publish. Callers hold
// db.mu (write).
func (t *Table) markDirtyLocked() {
	if !t.dirty {
		t.dirty = true
		t.db.dirty = append(t.db.dirty, t)
	}
}

// maybePublishLocked publishes a fresh version at the end of an
// autocommit mutation. Callers hold db.mu (write); no-op while a
// transaction is open — Commit publishes the whole unit at once, which
// is precisely what keeps half-loaded documents invisible.
func (db *DB) maybePublishLocked() {
	if db.frozen || db.tx != nil || db.pubSuspended {
		return
	}
	db.publishLocked(db.lsnLocked())
}

// publishLocked builds a frozen version of the current state stamped
// with lsn and swaps it into published. Callers hold db.mu (write) with
// no open transaction. A version with nothing new is not published.
func (db *DB) publishLocked(lsn uint64) {
	prev := db.published.Load()
	ddl := prev.catGen != db.catGen
	if !ddl && len(db.dirty) == 0 && prev.versionLSN == lsn {
		return
	}
	v := &DB{
		mode:       db.mode,
		frozen:     true,
		stats:      db.stats,
		nextOID:    db.nextOID,
		versionLSN: lsn,
		types:      db.types,
		views:      db.views,
		typeOrder:  db.typeOrder,
		tableOrder: db.tableOrder,
		viewOrder:  db.viewOrder,
		catGen:     db.catGen,
		tables:     prev.tables,
	}
	if ddl || len(db.dirty) > 0 {
		v.tables = maps.Clone(prev.tables)
		if ddl { // tables may have been dropped
			for k := range v.tables {
				if db.tables[k] == nil {
					delete(v.tables, k)
				}
			}
		}
		for _, t := range db.dirty {
			t.dirty = false
			if k := key(t.Name); db.tables[k] == t {
				v.tables[k] = t.freezeLocked(v)
			}
		}
		clear(db.dirty) // a dropped table's rows are not kept alive
		db.dirty = db.dirty[:0]
	}
	db.published.Store(v)
}

// freezeLocked captures an immutable copy of the table for version v and
// seals the live trie, so later writes copy the nodes the copy holds.
// Callers hold db.mu (write).
func (t *Table) freezeLocked(v *DB) *Table {
	ft := &Table{
		Name:          t.Name,
		RowType:       t.RowType,
		Cols:          t.Cols,
		Checks:        t.Checks,
		NestedStorage: t.NestedStorage,
		db:            v,
		trie:          t.trie,
		pkCols:        t.pkCols,
		colNames:      t.colNames,
		live:          t,
	}
	ft.indexes = make([]*Index, len(t.indexes))
	for i, ix := range t.indexes {
		ft.indexes[i] = &Index{Name: ix.Name, Col: ix.Col, colIdx: ix.colIdx, rows: ix.rows, built: ix.built}
	}
	t.edit.Store(t.db.edits.Add(1))
	return ft
}
