package ordb

import (
	"errors"
	"fmt"
	"strings"
)

// Transaction errors.
var (
	// ErrTxActive reports a Begin while another transaction is open.
	ErrTxActive = errors.New("transaction already active")
	// ErrTxDone reports Commit/Rollback on a finished transaction.
	ErrTxDone = errors.New("transaction already committed or rolled back")
	// ErrNoTx reports a transaction operation without an open transaction.
	ErrNoTx = errors.New("no active transaction")
	// ErrNoSavepoint reports ROLLBACK TO an unknown savepoint name.
	ErrNoSavepoint = errors.New("no such savepoint")
)

// Fault-injection operation names passed to a FaultHook.
const (
	FaultInsert  = "insert"
	FaultDelete  = "delete"
	FaultReplace = "replace"
	FaultDeref   = "deref"
)

// FaultHook is a deterministic failure injector for tests: it is invoked
// before every engine mutation (and REF dereference) with the operation
// name and the 1-based sequence number of that operation since the hook
// was installed. A non-nil return aborts the operation with that error
// before any state changes, letting a chaos suite fail exactly the Nth
// insert/delete/replace/deref of a multi-step document operation.
type FaultHook func(op string, n int64) error

// SetFaultHook installs (or, with nil, removes) the fault hook and resets
// the per-operation sequence counters.
func (db *DB) SetFaultHook(h FaultHook) {
	db.faultMu.Lock()
	defer db.faultMu.Unlock()
	db.faultHook = h
	db.faultSeq = map[string]int64{}
}

// fault consults the hook before an operation; must not hold db.mu.
func (db *DB) fault(op string) error {
	db.faultMu.Lock()
	h := db.faultHook
	if h == nil {
		db.faultMu.Unlock()
		return nil
	}
	db.faultSeq[op]++
	n := db.faultSeq[op]
	db.faultMu.Unlock()
	return h(op, n)
}

// TxObserver receives transaction lifecycle notifications — the hook the
// durability layer uses to flush buffered redo records exactly when a
// transaction's effects become permanent. Callbacks fire synchronously
// after the corresponding operation succeeds, outside db.mu, on the
// caller's goroutine; a TxCommitted error propagates to the committer
// (the in-memory commit has already happened — the error reports that
// durability, not atomicity, failed).
type TxObserver interface {
	// TxCommitted fires after a successful Commit (including the implicit
	// commit before DDL and the internal commit of RunInTx).
	TxCommitted() error
	// TxRolledBack fires after a successful full Rollback.
	TxRolledBack()
	// TxSavepoint fires after a savepoint is set or moved.
	TxSavepoint(name string)
	// TxRolledBackTo fires after a partial rollback to a savepoint.
	TxRolledBackTo(name string)
}

// SetTxObserver installs (or, with nil, removes) the transaction
// observer. Install it before the database sees concurrent use.
func (db *DB) SetTxObserver(o TxObserver) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.txObs = o
}

// observer returns the installed observer, if any.
func (db *DB) observer() TxObserver {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.txObs
}

// undoRec is one reversible data mutation. revert is called with db.mu
// held, in reverse order of logging.
type undoRec interface{ revert() }

// undoInsert removes an inserted row again. counted marks inserts that
// incremented the Inserts stats counter (RestoreRow does not).
type undoInsert struct {
	t       *Table
	row     *Row
	counted bool
}

func (u undoInsert) revert() {
	u.t.trie = u.t.trie.del(u.t.edit.Load(), u.row)
	u.t.indexRemoveLocked(u.row)
	u.t.maxLeaveLocked(u.row.Vals)
}

// undoDelete puts deleted rows back under their keys.
type undoDelete struct {
	t       *Table
	removed []*Row
}

func (u undoDelete) revert() {
	for _, r := range u.removed {
		u.t.trie = u.t.trie.set(u.t.edit.Load(), r)
		u.t.indexInsertLocked(r)
		u.t.maxEnterLocked(r.Vals)
	}
}

// undoSwap reinstates the original Row object, under the same key, after
// a copy-on-write replacement (Table.replaceRowLocked).
type undoSwap struct {
	t    *Table
	old  *Row
	repl *Row
}

func (u undoSwap) revert() {
	u.t.trie = u.t.trie.set(u.t.edit.Load(), u.old)
	u.t.indexRemoveLocked(u.repl)
	u.t.indexInsertLocked(u.old)
	u.t.maxReplaceLocked(u.repl.Vals, u.old.Vals)
}

// txSave marks a savepoint: a position in the undo log plus the OID
// allocator state at that point.
type txSave struct {
	name string
	mark int
	oid  OID
}

// Tx is an open data transaction: an undo log of every row mutation
// performed while it is active. Transactions cover DATA operations only —
// inserts, deletes, updates, replaces. DDL (CREATE/DROP of types, tables
// and views) is auto-commit and is never undone; the sql layer commits an
// open transaction before executing DDL, mirroring Oracle's implicit
// commit.
//
// Concurrency model: the engine has at most one open transaction per DB.
// Every data mutation performed while the transaction is open — from any
// goroutine — joins it and is reverted by Rollback. Multi-writer loads
// should therefore serialize document operations, which RunInTx does
// naturally.
type Tx struct {
	db       *DB
	undo     []undoRec
	saves    []txSave
	startOID OID
	done     bool
}

// Begin opens a transaction. A second Begin before Commit/Rollback fails
// with ErrTxActive (use savepoints for nesting).
func (db *DB) Begin() (*Tx, error) {
	if err := db.writable(); err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.tx != nil {
		return nil, fmt.Errorf("ordb: %w", ErrTxActive)
	}
	tx := &Tx{db: db, startOID: db.nextOID}
	db.tx = tx
	return tx, nil
}

// CurrentTx returns the open transaction, or nil (always nil on a
// frozen version).
func (db *DB) CurrentTx() *Tx {
	db.rlock()
	defer db.runlock()
	return db.tx
}

// logUndo appends a record to the open transaction's undo log. Callers
// must hold db.mu (write).
func (db *DB) logUndo(r undoRec) {
	if db.tx != nil {
		db.tx.undo = append(db.tx.undo, r)
	}
}

// Commit makes the transaction's mutations permanent and discards the
// undo log. With a TxObserver installed, Commit then gives the observer
// its chance to make the commit durable; an observer error is returned
// to the caller (the in-memory state is committed regardless).
func (tx *Tx) Commit() error {
	db := tx.db
	db.mu.Lock()
	if tx.done || db.tx != tx {
		db.mu.Unlock()
		return fmt.Errorf("ordb: commit: %w", ErrTxDone)
	}
	tx.done = true
	tx.undo = nil
	tx.saves = nil
	db.tx = nil
	obs := db.txObs
	db.mu.Unlock()
	var obsErr error
	if obs != nil {
		obsErr = obs.TxCommitted()
	}
	// Publish the committed state AFTER the observer ran, so the LSN
	// source (the WAL's LastLSN) already covers this commit's unit and
	// the version is stamped exactly. Published even when durability
	// failed: the in-memory commit has happened regardless.
	db.mu.Lock()
	if db.tx == nil && !db.pubSuspended {
		db.publishLocked(db.lsnLocked())
	}
	db.mu.Unlock()
	if obsErr != nil {
		return fmt.Errorf("ordb: commit: %w", obsErr)
	}
	return nil
}

// Rollback reverts every mutation performed since Begin, restores the OID
// allocator, and adjusts the Inserts stats counter so a rolled-back
// operation leaves the observable engine state — row counts, OIDs, stats —
// exactly as before the transaction.
func (tx *Tx) Rollback() error {
	db := tx.db
	db.mu.Lock()
	if tx.done || db.tx != tx {
		db.mu.Unlock()
		return fmt.Errorf("ordb: rollback: %w", ErrTxDone)
	}
	undone := tx.revertToLocked(0)
	db.nextOID = tx.startOID
	db.stats.Inserts.Add(-undone)
	tx.done = true
	tx.saves = nil
	db.tx = nil
	obs := db.txObs
	// DDL executed during the transaction is auto-commit and survives
	// the rollback; publish so readers observe it (a no-op when the
	// version content is unchanged apart from the rebuild).
	db.maybePublishLocked()
	db.mu.Unlock()
	if obs != nil {
		obs.TxRolledBack()
	}
	return nil
}

// Savepoint records a named savepoint. Reusing a name moves the savepoint
// (Oracle semantics); names are case-insensitive.
func (tx *Tx) Savepoint(name string) error {
	if err := checkIdent(name); err != nil {
		return err
	}
	db := tx.db
	db.mu.Lock()
	if tx.done || db.tx != tx {
		db.mu.Unlock()
		return fmt.Errorf("ordb: savepoint %s: %w", name, ErrTxDone)
	}
	kept := tx.saves[:0]
	for _, s := range tx.saves {
		if !strings.EqualFold(s.name, name) {
			kept = append(kept, s)
		}
	}
	tx.saves = append(kept, txSave{name: name, mark: len(tx.undo), oid: db.nextOID})
	obs := db.txObs
	db.mu.Unlock()
	if obs != nil {
		obs.TxSavepoint(name)
	}
	return nil
}

// RollbackTo reverts every mutation performed since the named savepoint
// was set, keeping the transaction (and the savepoint itself) open.
func (tx *Tx) RollbackTo(name string) error {
	db := tx.db
	db.mu.Lock()
	if tx.done || db.tx != tx {
		db.mu.Unlock()
		return fmt.Errorf("ordb: rollback to %s: %w", name, ErrTxDone)
	}
	idx := -1
	for i := len(tx.saves) - 1; i >= 0; i-- {
		if strings.EqualFold(tx.saves[i].name, name) {
			idx = i
			break
		}
	}
	if idx < 0 {
		db.mu.Unlock()
		return fmt.Errorf("ordb: savepoint %q: %w", name, ErrNoSavepoint)
	}
	sp := tx.saves[idx]
	undone := tx.revertToLocked(sp.mark)
	db.nextOID = sp.oid
	db.stats.Inserts.Add(-undone)
	// Savepoints set after this one are gone; the target itself stays.
	tx.saves = tx.saves[:idx+1]
	obs := db.txObs
	db.mu.Unlock()
	if obs != nil {
		obs.TxRolledBackTo(name)
	}
	return nil
}

// revertToLocked unwinds the undo log down to mark and reports how many
// row inserts were undone. Callers hold db.mu.
func (tx *Tx) revertToLocked(mark int) int64 {
	var inserts int64
	for i := len(tx.undo) - 1; i >= mark; i-- {
		if u, isInsert := tx.undo[i].(undoInsert); isInsert && u.counted {
			inserts++
		}
		tx.undo[i].revert()
	}
	tx.undo = tx.undo[:mark]
	return inserts
}

// RunInTx runs fn atomically: in a fresh transaction when none is open
// (committed on success, rolled back on error), or — when the caller
// already opened one, e.g. through SQL BEGIN — under a uniquely named
// savepoint that is rolled back to on error, so document operations
// compose with user transactions.
func (db *DB) RunInTx(fn func() error) error {
	if tx := db.CurrentTx(); tx != nil {
		name := fmt.Sprintf("xmlordb_auto_%d", db.autoSave.Add(1))
		if err := tx.Savepoint(name); err != nil {
			return err
		}
		if err := fn(); err != nil {
			if rbErr := tx.RollbackTo(name); rbErr != nil {
				return errors.Join(err, rbErr)
			}
			return err
		}
		return nil
	}
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	if err := fn(); err != nil {
		if rbErr := tx.Rollback(); rbErr != nil {
			return errors.Join(err, rbErr)
		}
		return err
	}
	return tx.Commit()
}
