package ordb

import "fmt"

// Consistent row capture for persistence. Every public accessor of DB
// takes and releases the instance lock per call, so a serializer that
// walks tables through Table/Scan can interleave with a concurrent
// writer and capture table A before a transaction and table B after it.
// SnapshotRows closes that window: all rows of all tables are copied
// under one acquisition of the lock, and an open transaction — whose
// uncommitted mutations would otherwise leak into the copy — is refused.

// TableRows is a consistent copy of one table's rows. Vals slices are
// fresh copies; the Value boxes themselves are immutable engine-wide and
// are shared.
type TableRows struct {
	Name string
	Rows []Row
}

// SnapshotRows copies every table's rows, in table-creation order, under
// a single acquisition of the instance lock, so the copy reflects one
// point in time even while concurrent writers are active. It fails with
// ErrTxActive while a transaction is open: a snapshot must not capture
// uncommitted state. On a frozen version it runs lock-free — the version
// is already a committed point in time.
func (db *DB) SnapshotRows() ([]TableRows, error) {
	db.rlock()
	defer db.runlock()
	if db.tx != nil {
		return nil, fmt.Errorf("ordb: snapshot with open transaction: %w", ErrTxActive)
	}
	out := make([]TableRows, 0, len(db.tableOrder))
	for _, k := range db.tableOrder {
		t := db.tables[k]
		tr := TableRows{Name: t.Name, Rows: make([]Row, 0, t.trie.n)}
		t.trie.each(func(r *Row) bool {
			tr.Rows = append(tr.Rows, Row{OID: r.OID, Vals: append([]Value(nil), r.Vals...)})
			return true
		})
		out = append(out, tr)
	}
	return out, nil
}
