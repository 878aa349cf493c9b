package ordb

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Secondary equality indexes. Every object table already finds a row by
// OID in its row trie, which makes FetchByOID/Deref cheap; the
// structures here extend the same idea to scalar columns so that
// equi-joins and WHERE col = const probe a persistent hash instead of
// rebuilding one per query. Indexes are created explicitly with CREATE
// INDEX and automatically on PRIMARY KEY, REF and ID-named columns, and
// are maintained incrementally by every row mutation — including the undo
// paths of the transaction layer, so a rollback leaves probes exactly as
// they were before the operation.

// indexKey is the normalized, comparable hash key of one indexed value.
// Normalization mirrors SQL `=` semantics as the evaluator implements
// them: CHAR blank padding is insignificant for character values, and
// numbers compare by value. NULLs are never indexed (NULL never equals
// anything under three-valued logic).
type indexKey struct {
	kind byte // 's' string, 'n' number, 'd' date, 'r' ref
	num  float64
	str  string
}

// makeIndexKey normalizes v into a probe key. The second result is false
// for NULLs and non-scalar values, which are not indexed.
func makeIndexKey(v Value) (indexKey, bool) {
	switch x := v.(type) {
	case Str:
		return indexKey{kind: 's', str: strings.TrimRight(string(x), " ")}, true
	case Num:
		return indexKey{kind: 'n', num: float64(x)}, true
	case DateVal:
		return indexKey{kind: 'd', num: float64(time.Time(x).UnixNano())}, true
	case Ref:
		return indexKey{kind: 'r', num: float64(x.OID), str: x.Table}, true
	default:
		return indexKey{}, false
	}
}

// Index is a persistent equality index over one scalar column.
//
// An index may be registered but not yet materialized (built == false).
// Unmaterialized indexes cost nothing on the write path — insert-heavy
// loads skip them entirely — and the first probe builds the hash under
// the write lock, after which it is maintained incrementally. That is
// still strictly better than the per-query hash builds it replaces: the
// build happens once per index lifetime, not once per query.
//
// The key→bucket table is a persistent trie (pmap.go) so published MVCC
// versions capture it by struct copy. Buckets obey the shared-array
// discipline of version.go: appends are safe (they write at or beyond
// every published bucket length), removal always copies the bucket.
// Buckets are kept in row-key order, which is the order a scan visits
// the rows in (see bucketAdd), so a probe and a filter scan return the
// same rows in the same order.
type Index struct {
	Name string
	Col  string

	colIdx int
	built  bool
	rows   pmap[indexKey, []*Row]
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
	ix := &Index{Name: name, Col: t.Cols[ci].Name, colIdx: ci}
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
	ix.rows = newPmap[indexKey, []*Row](hashIndexKey)
	t.trie.each(func(r *Row) bool {
		if k, ok := makeIndexKey(r.Vals[ix.colIdx]); ok {
			ix.add(t.db.epoch, k, r)
		}
		return true
	})
	ix.built = true
}

// add puts r into key k's bucket.
func (ix *Index) add(epoch uint64, k indexKey, r *Row) {
	bucket, _ := ix.rows.get(k)
	ix.rows = ix.rows.set(epoch, k, bucketAdd(bucket, r))
}

// remove takes r out of key k's bucket, dropping the key with its last row.
func (ix *Index) remove(epoch uint64, k indexKey, r *Row) {
	bucket, _ := ix.rows.get(k)
	if bucket = bucketRemove(bucket, r); len(bucket) > 0 {
		ix.rows = ix.rows.set(epoch, k, bucket)
	} else {
		ix.rows = ix.rows.del(epoch, k)
	}
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
	k, ok := makeIndexKey(v)
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
		rows, _ = ix.rows.get(k)
	} else {
		t.db.mu.RLock()
		built := ix.built
		if built {
			rows, _ = ix.rows.get(k)
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
			rows, _ = ix.rows.get(k)
			t.db.mu.Unlock()
		}
	}
	t.db.stats.IndexProbes.Add(1)
	// The caller reads every returned row; count them like a scan so the
	// rows-read metric stays comparable between probe and scan plans.
	t.db.stats.RowsScanned.Add(int64(len(rows)))
	return rows, true
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
		k, ok := makeIndexKey(vals[pi])
		if !ok {
			return nil, false
		}
		t.db.stats.IndexProbes.Add(1)
		bucket, _ := ix.rows.get(k)
		return bucket, true
	}
	return nil, false
}

// indexInsertLocked adds a row to every secondary index. Callers hold
// db.mu (write).
func (t *Table) indexInsertLocked(r *Row) {
	for _, ix := range t.indexes {
		if !ix.built {
			continue
		}
		if k, ok := makeIndexKey(r.Vals[ix.colIdx]); ok {
			ix.add(t.db.epoch, k, r)
		}
	}
}

// bucketAdd returns bucket with r added, keeping buckets in row-key
// order — insertion order, and so the order a scan visits the rows in. A
// row newer than every row in the bucket (always so for a plain insert)
// is appended, which is safe against published versions: the write lands
// at an offset no published bucket header reaches. An older row —
// re-added by an undo or a replace — is copy-inserted at its place in a
// fresh backing array.
func bucketAdd(bucket []*Row, r *Row) []*Row {
	n := len(bucket)
	if n == 0 || bucket[n-1].key <= r.key {
		return append(bucket, r)
	}
	i := sort.Search(n, func(i int) bool { return bucket[i].key > r.key })
	out := make([]*Row, 0, n+1)
	out = append(out, bucket[:i]...)
	out = append(out, r)
	return append(out, bucket[i:]...)
}

// bucketRemove returns bucket without r, always copying to a fresh
// backing array: an in-place shift would overwrite a slot a published
// version's bucket header still reads.
func bucketRemove(bucket []*Row, r *Row) []*Row {
	out := make([]*Row, 0, len(bucket))
	for _, br := range bucket {
		if br != r {
			out = append(out, br)
		}
	}
	return out
}

// indexRemoveLocked removes a row from every secondary index by
// identity. Callers hold db.mu (write).
func (t *Table) indexRemoveLocked(r *Row) {
	for _, ix := range t.indexes {
		if !ix.built {
			continue
		}
		if k, ok := makeIndexKey(r.Vals[ix.colIdx]); ok {
			ix.remove(t.db.epoch, k, r)
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
		ix := &Index{Name: autoIndexName(t.Name, c.Name), Col: c.Name, colIdx: i}
		if (len(t.pkCols) == 1 && t.pkCols[0] == i) || c.Type.Kind() == KindRef {
			ix.rows = newPmap[indexKey, []*Row](hashIndexKey)
			ix.built = true
		}
		t.indexes = append(t.indexes, ix)
	}
}
