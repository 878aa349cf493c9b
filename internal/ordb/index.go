package ordb

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// Secondary equality indexes. Every object table already finds a row by
// OID in its row trie, which makes FetchByOID/Deref cheap; the
// structures here extend the same idea to scalar columns so that
// equi-joins and WHERE col = const probe a persistent ordered map instead
// of rebuilding a hash per query. Indexes are created explicitly with
// CREATE INDEX and automatically on PRIMARY KEY, REF and ID-named
// columns, and are maintained incrementally by every row mutation —
// including the undo paths of the transaction layer, so a rollback leaves
// probes exactly as they were before the operation.
//
// An index is a row trie (rowtrie.go) holding one entry per indexed row,
// under the equality key of the row's value followed by the row's key.
// The rows whose value equals v are exactly the entries whose keys start
// with v's equality key, so a probe walks that prefix and returns them in
// row-key order, the order a scan visits them in. A removal touches one
// path. The table's edit token governs its index tries as it governs its
// row trie.

// The kinds of equality key: a key's first digit.
const (
	keyStr = 1 + iota
	keyNum
	keyDate
	keyRef
)

// AppendEqualKey appends the equality key of v to dst: an order-preserving
// digit string (bytes below 64) such that two values are equal under SQL
// `=` exactly when their keys are, and no key is a prefix of another. It
// reports false, appending nothing, for NULL (which equals nothing) and
// for objects and collections. The key is the value's kind, then
//
//   - a string without its trailing blanks (CHAR padding is insignificant),
//     each byte spread over two digits with the first raised by one, and a
//     0 digit ending it, which sorts before every byte;
//   - a number's float64 bits, sign flipped for ordering (all bits of a
//     negative), with -0 taken as +0;
//   - a DATE's instant in Unix nanoseconds, whatever its location;
//   - a REF's table name as a string, then its OID.
//
// Fixed-width parts are 11 digits (appendDigits).
func AppendEqualKey(dst []byte, v Value) ([]byte, bool) {
	switch x := v.(type) {
	case Str:
		return appendString(append(dst, keyStr), strings.TrimRight(string(x), " ")), true
	case Num:
		f := float64(x)
		if f == 0 {
			f = 0 // -0 is +0
		}
		b := math.Float64bits(f)
		if b>>63 != 0 {
			b = ^b
		} else {
			b |= 1 << 63
		}
		return appendDigits(append(dst, keyNum), b), true
	case DateVal:
		return appendDigits(append(dst, keyDate), uint64(time.Time(x).UnixNano())^1<<63), true
	case Ref:
		return appendDigits(appendString(append(dst, keyRef), x.Table), uint64(x.OID)^1<<63), true
	default:
		return dst, false
	}
}

// appendString appends s two digits a byte and a 0 digit.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		dst = append(dst, 1+s[i]>>6, s[i]&63)
	}
	return append(dst, 0)
}

// Index is a persistent equality index over one scalar column.
//
// An index may be registered but not yet materialized (built == false).
// Unmaterialized indexes cost nothing on the write path — insert-heavy
// loads skip them entirely — and the first probe builds the trie under
// the write lock, after which it is maintained incrementally. The build
// happens once per index lifetime, not once per query. Published MVCC
// versions capture the trie by struct copy.
type Index struct {
	Name string
	Col  string

	colIdx int
	built  bool
	rows   rowTrie
}

// newIndex returns an unmaterialized index over column colIdx.
func newIndex(name, col string, colIdx int) *Index {
	return &Index{Name: name, Col: col, colIdx: colIdx, rows: rowTrie{ixCol: colIdx + 1}}
}

// indexableType reports whether a column of type t can carry an equality
// index: scalars and REFs, but not objects or collections.
func indexableType(t Type) bool {
	switch t.Kind() {
	case KindVarchar, KindChar, KindCLOB, KindNumber, KindInteger, KindDate, KindRef:
		return true
	default:
		return false
	}
}

// CreateIndex builds a persistent equality index named name over column
// col, populated from the existing rows. One index per column; index
// names are unique within the database. An explicit index replaces the
// column's automatic one, as DROP INDEX followed by CREATE INDEX would:
// a statement that was valid before the automatic rule covered the
// column stays valid, so logs and snapshots written then still replay.
func (t *Table) CreateIndex(name, col string) (*Index, error) {
	if err := t.db.writable(); err != nil {
		return nil, err
	}
	if err := checkIdent(name); err != nil {
		return nil, err
	}
	ci := t.ColIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("ordb: table %s has no column %q: %w", t.Name, col, ErrNotFound)
	}
	if !indexableType(t.Cols[ci].Type) {
		return nil, fmt.Errorf("ordb: table %s column %s: %s is not indexable: %w",
			t.Name, t.Cols[ci].Name, t.Cols[ci].Type.SQL(), ErrTypeMismatch)
	}
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	replaced := -1
	for i, ix := range t.indexes {
		if ix.colIdx == ci && autoIndexColumn(t.Cols[ci]) && strings.EqualFold(ix.Name, autoIndexName(t.Name, ix.Col)) {
			replaced = i
			continue
		}
		if strings.EqualFold(ix.Name, name) {
			return nil, fmt.Errorf("ordb: index %q: %w", name, ErrExists)
		}
		if ix.colIdx == ci {
			return nil, fmt.Errorf("ordb: table %s column %s is already indexed by %s: %w",
				t.Name, t.Cols[ci].Name, ix.Name, ErrExists)
		}
	}
	for _, other := range t.db.tables {
		if other == t {
			continue
		}
		for _, ix := range other.indexes {
			if strings.EqualFold(ix.Name, name) {
				return nil, fmt.Errorf("ordb: index %q: %w", name, ErrExists)
			}
		}
	}
	ix := newIndex(name, t.Cols[ci].Name, ci)
	ix.materializeLocked(t)
	if replaced >= 0 {
		t.indexes = withoutIndex(t.indexes, replaced)
	}
	t.indexes = append(t.indexes, ix)
	t.markDirtyLocked()
	t.db.maybePublishLocked()
	return ix, nil
}

// materializeLocked builds the index trie from the table's current rows.
// Callers hold db.mu (write), or own the table exclusively.
func (ix *Index) materializeLocked(t *Table) {
	edit := t.edit.Load()
	t.trie.each(func(r *Row) bool {
		ix.rows = ix.rows.set(edit, r)
		return true
	})
	ix.built = true
}

// DropIndex removes the named index from whichever table carries it.
func (db *DB) DropIndex(name string) error {
	if err := db.writable(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, t := range db.tables {
		for i, ix := range t.indexes {
			if strings.EqualFold(ix.Name, name) {
				t.indexes = withoutIndex(t.indexes, i)
				t.markDirtyLocked()
				db.maybePublishLocked()
				return nil
			}
		}
	}
	return fmt.Errorf("ordb: index %q: %w", name, ErrNotFound)
}

// withoutIndex returns list without entry i, in a fresh backing array.
func withoutIndex(list []*Index, i int) []*Index {
	kept := make([]*Index, 0, len(list)-1)
	kept = append(kept, list[:i]...)
	return append(kept, list[i+1:]...)
}

// EqIndex returns the equality index over the named column, or nil.
func (t *Table) EqIndex(col string) *Index {
	t.db.rlock()
	defer t.db.runlock()
	for _, ix := range t.indexes {
		if strings.EqualFold(ix.Col, col) {
			return ix
		}
	}
	return nil
}

// IndexDef names one equality index and the column it covers.
type IndexDef struct {
	Name, Col string
}

// Indexes lists the table's indexes in creation order.
func (t *Table) Indexes() []IndexDef {
	t.db.rlock()
	defer t.db.runlock()
	out := make([]IndexDef, len(t.indexes))
	for i, ix := range t.indexes {
		out[i] = IndexDef{Name: ix.Name, Col: ix.Col}
	}
	return out
}

// AutoIndexes lists the indexes CreateTable gives a table with these
// columns, in the order it creates them, whether or not they still exist.
func (t *Table) AutoIndexes() []IndexDef {
	var out []IndexDef
	for _, c := range t.Cols {
		if autoIndexColumn(c) {
			out = append(out, IndexDef{Name: autoIndexName(t.Name, c.Name), Col: c.Name})
		}
	}
	return out
}

// autoIndexName is the name of the automatic index on a column.
func autoIndexName(table, col string) string { return "IX_" + table + "_" + col }

// ProbeEqual returns the rows whose indexed column equals v under SQL
// `=` semantics (CHAR padding insignificant, NULL matches nothing). The
// second result is false when the column has no index or v is not a
// probe-able scalar — callers must then fall back to a scan. Every
// successful probe counts toward Stats.IndexProbes.
func (t *Table) ProbeEqual(col string, v Value) ([]*Row, bool) {
	ix := t.EqIndex(col)
	if ix == nil {
		return nil, false
	}
	if IsNull(v) {
		// A definite probe with a definite answer: NULL joins nothing.
		t.db.stats.IndexProbes.Add(1)
		return nil, true
	}
	var buf [keyBuf]byte
	p, ok := AppendEqualKey(buf[:0], v)
	if !ok {
		return nil, false
	}
	var rows []*Row
	if t.db.frozen {
		// Lock-free probe against the version's captured trie. An index
		// this version never saw materialized can't be built here — the
		// version is immutable — so fall back to a scan, but poke the
		// live table so the index exists in future versions.
		if !ix.built {
			if t.live != nil {
				t.live.ensureIndexBuilt(ix.Col)
			}
			return nil, false
		}
		rows, _ = ix.rows.withPrefix(p)
	} else {
		t.db.mu.RLock()
		built := ix.built
		if built {
			rows = ix.liveProbeLocked(t, p)
		}
		t.db.mu.RUnlock()
		if !built {
			// First probe of a lazily registered index: materialize it now,
			// re-checking under the write lock in case another probe won.
			t.db.mu.Lock()
			if !ix.built {
				ix.materializeLocked(t)
				t.markDirtyLocked()
				t.db.maybePublishLocked()
			}
			rows = ix.liveProbeLocked(t, p)
			t.db.mu.Unlock()
		}
	}
	t.db.stats.IndexProbes.Add(1)
	// The caller reads every returned row; count them like a scan so the
	// rows-read metric stays comparable between probe and scan plans.
	t.db.stats.RowsScanned.Add(int64(len(rows)))
	return rows, true
}

// liveProbeLocked returns the rows whose keys start with p for reading
// outside the lock: a result sharing the slots of a node that may still
// change in place under the table's edit token is copied (nodes made
// under an older token never change). Callers hold db.mu.
func (ix *Index) liveProbeLocked(t *Table, p []byte) []*Row {
	rows, stamp := ix.rows.withPrefix(p)
	if stamp != 0 && stamp == t.edit.Load() {
		return slices.Clone(rows)
	}
	return rows
}

// ensureIndexBuilt materializes the named column's index on the live
// table (and publishes the result), so frozen versions taken from now on
// carry it. No-op when the index is already built or unknown.
func (t *Table) ensureIndexBuilt(col string) {
	if t.db.frozen {
		return
	}
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	for _, ix := range t.indexes {
		if strings.EqualFold(ix.Col, col) {
			if !ix.built {
				ix.materializeLocked(t)
				t.markDirtyLocked()
				t.db.maybePublishLocked()
			}
			return
		}
	}
}

// pkCandidatesLocked probes for rows that might collide with vals on a
// single-column primary key. The second result is false when the key is
// composite or unindexed and the caller must scan. Callers hold db.mu.
func (t *Table) pkCandidatesLocked(vals []Value) ([]*Row, bool) {
	if len(t.pkCols) != 1 {
		return nil, false
	}
	pi := t.pkCols[0]
	for _, ix := range t.indexes {
		if ix.colIdx != pi || !ix.built {
			continue
		}
		var buf [keyBuf]byte
		p, ok := AppendEqualKey(buf[:0], vals[pi])
		if !ok {
			return nil, false
		}
		t.db.stats.IndexProbes.Add(1)
		rows, _ := ix.rows.withPrefix(p)
		return rows, true
	}
	return nil, false
}

// indexInsertLocked adds a row to every built secondary index. Callers
// hold db.mu (write).
func (t *Table) indexInsertLocked(r *Row) {
	for _, ix := range t.indexes {
		if ix.built {
			ix.rows = ix.rows.set(t.edit.Load(), r)
		}
	}
}

// indexRemoveLocked removes a row from every built secondary index.
// Callers hold db.mu (write).
func (t *Table) indexRemoveLocked(r *Row) {
	for _, ix := range t.indexes {
		if ix.built {
			ix.rows = ix.rows.del(t.edit.Load(), r)
		}
	}
}

// autoIndexColumn reports whether a column should receive an automatic
// equality index at table creation: primary-key columns, REF columns (a
// child row's REF to its parent is how the Oracle 8 mapping finds a
// parent's children) and columns following the generated-identifier
// naming convention (an ID prefix or suffix — DocID, NodeID, IDStudent,
// IDParent, ...).
func autoIndexColumn(c Column) bool {
	if !indexableType(c.Type) {
		return false
	}
	if c.PrimaryKey || c.Type.Kind() == KindRef {
		return true
	}
	u := strings.ToUpper(c.Name)
	return strings.HasPrefix(u, "ID") || strings.HasSuffix(u, "ID")
}

// createAutoIndexes registers the automatic indexes of a freshly created
// (still row-less) table. Callers hold no lock; the table is not yet
// registered so no other goroutine can see it.
//
// A single-column primary key gets a materialized index immediately: the
// per-insert duplicate check probes it, so it earns its maintenance cost
// from row one. So does a REF column: every retrieval and delete of a
// REF-mapped document probes it for the element's children, and a frozen
// version can only probe an index that was built before it was published.
// All other auto indexes stay unmaterialized until the first query probes
// them, keeping insert-heavy loads free of index upkeep they may never
// need.
func (t *Table) createAutoIndexes() {
	for i, c := range t.Cols {
		if !autoIndexColumn(c) {
			continue
		}
		ix := newIndex(autoIndexName(t.Name, c.Name), c.Name, i)
		ix.built = (len(t.pkCols) == 1 && t.pkCols[0] == i) || c.Type.Kind() == KindRef
		t.indexes = append(t.indexes, ix)
	}
}
