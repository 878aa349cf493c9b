package ordb

import "fmt"

// External row storage. A Table normally holds all rows resident in
// memory (the MVCC fast path); attaching an ExternalRows backend lets a
// store spill rows to disk and keep only recently loaded documents
// resident. The table then presents the union: external rows first (they
// are the older, flushed documents), resident rows second, preserving
// the global insertion order the query layer relies on.
//
// The engine never writes through this interface — flushing rows out and
// evicting them from memory is orchestrated by the store layer (see the
// xmlordb backend plumbing), which calls the backend's own insert API
// followed by EvictResident. Consequences, documented in DESIGN.md §11:
// external deletions are not covered by transaction undo, and UPDATE
// only reaches resident rows.

// Cursor iterates rows one at a time. Next returns (nil, false) when
// exhausted; Close releases backend resources and must be called.
type Cursor interface {
	Next() (*Row, bool)
	Close()
}

// ExternalRows is the read/delete surface a storage backend offers a
// table.
type ExternalRows interface {
	// Cursor iterates all external rows in insertion order.
	Cursor() Cursor
	// ProbeEqual returns the external rows whose column equals v. The
	// second result is false when the backend cannot answer (no index on
	// the column, unindexable value) and the caller must scan.
	ProbeEqual(col string, v Value) ([]*Row, bool)
	// Lookup fetches a row by OID.
	Lookup(oid OID) (*Row, bool)
	// DeleteWhere removes rows matching pred, reporting how many.
	DeleteWhere(pred func(*Row) (bool, error)) (int, error)
	// Count reports the number of external rows.
	Count() int
}

// AttachExternal connects a backend to the table. Pass nil to detach.
func (t *Table) AttachExternal(ext ExternalRows) {
	t.db.mu.Lock()
	t.ext = ext
	t.maxDropLocked() // the backend may already hold rows
	t.db.mu.Unlock()
}

// External returns the attached backend, or nil.
func (t *Table) External() ExternalRows {
	t.db.rlock()
	defer t.db.runlock()
	return t.ext
}

// ResidentRows returns a snapshot of the in-memory row slice (shared;
// callers must not mutate rows).
func (t *Table) ResidentRows() []*Row {
	t.db.rlock()
	defer t.db.runlock()
	return t.rows
}

// EvictResident drops the given rows from memory without logging undo —
// the rows must already be safely stored externally, and the surrounding
// operation must not be part of a rollback-able transaction. The rows
// stay part of the table, so the cached column maximum stands. Returns
// the number of rows evicted.
func (t *Table) EvictResident(evict map[*Row]bool) int {
	if len(evict) == 0 {
		return 0
	}
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	kept := make([]*Row, 0, len(t.rows))
	n := 0
	for _, r := range t.rows {
		if evict[r] {
			n++
			if r.OID != 0 {
				t.oidIndex = t.oidIndex.del(r.OID)
			}
			t.indexRemoveLocked(r)
		} else {
			kept = append(kept, r)
		}
	}
	if n == 0 {
		return 0
	}
	// kept is a fresh backing array no published version can reach.
	t.rows = kept
	t.rowsShared = false
	t.markDirtyLocked()
	t.db.maybePublishLocked()
	return n
}

// Cursor returns an iterator over all rows — external first, then
// resident — in global insertion order (flushed documents predate
// resident ones). Rows pulled are charged to the RowsScanned stat when
// the cursor closes.
func (t *Table) Cursor() Cursor {
	t.db.rlock()
	resident := t.rows
	ext := t.ext
	t.db.runlock()
	c := &tableCursor{t: t, resident: resident}
	if ext != nil {
		c.ext = ext.Cursor()
	}
	return c
}

type tableCursor struct {
	t        *Table
	ext      Cursor
	resident []*Row
	i        int
	scanned  int64
	closed   bool
}

func (c *tableCursor) Next() (*Row, bool) {
	if c.ext != nil {
		if r, ok := c.ext.Next(); ok {
			c.scanned++
			return r, true
		}
		c.ext.Close()
		c.ext = nil
	}
	if c.i < len(c.resident) {
		r := c.resident[c.i]
		c.i++
		c.scanned++
		return r, true
	}
	return nil, false
}

func (c *tableCursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.ext != nil {
		c.ext.Close()
		c.ext = nil
	}
	c.t.db.stats.RowsScanned.Add(c.scanned)
}

// sliceCursor iterates a plain row slice; used by backends and tests.
type sliceCursor struct {
	rows []*Row
	i    int
}

// NewSliceCursor wraps rows in a Cursor.
func NewSliceCursor(rows []*Row) Cursor { return &sliceCursor{rows: rows} }

func (c *sliceCursor) Next() (*Row, bool) {
	if c.i >= len(c.rows) {
		return nil, false
	}
	r := c.rows[c.i]
	c.i++
	return r, true
}

func (c *sliceCursor) Close() {}

// NewRow builds a Row for storage backends that materialize rows from
// disk (package-external constructors cannot set unexported fields, and
// a decoded row's epoch is irrelevant — it is never stored in a live
// table).
func NewRow(oid OID, vals []Value) *Row { return &Row{OID: oid, Vals: vals} }

// externalDelete runs pred-based deletion against the backend and wraps
// errors with table context.
func (t *Table) externalDelete(pred func(*Row) (bool, error)) (int, error) {
	t.db.rlock()
	ext := t.ext
	t.db.runlock()
	if ext == nil {
		return 0, nil
	}
	n, err := ext.DeleteWhere(pred)
	if n > 0 || err != nil {
		t.db.mu.Lock()
		t.maxDropLocked()
		t.db.mu.Unlock()
	}
	if err != nil {
		return n, fmt.Errorf("ordb: table %s: external delete: %w", t.Name, err)
	}
	return n, nil
}
