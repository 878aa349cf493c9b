package ordb

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Column is one column of a table. For object tables the columns are
// derived from the row type's attributes.
type Column struct {
	Name string
	Type Type
	// NotNull marks a column-level NOT NULL constraint. Note the paper's
	// observation (Section 4.3): constraints are bound to the *table*
	// definition, never to the object type.
	NotNull bool
	// PrimaryKey marks the column as (part of) the primary key.
	PrimaryKey bool
	// Scope restricts a REF column to rows of the named object table
	// (SCOPE FOR, Section 2.3). Empty means unscoped.
	Scope string
}

// CheckExpr is a CHECK constraint predicate. The engine stores it opaquely
// and evaluates it against a row; the sql package supplies implementations
// parsed from CHECK(...) clauses. Eval returns whether the row passes.
type CheckExpr interface {
	Eval(row RowView) (bool, error)
	String() string
}

// RowView gives a CheckExpr access to the column values of the row being
// checked.
type RowView interface {
	// Col returns the value of the named column (case-insensitive) and
	// whether the column exists.
	Col(name string) (Value, bool)
}

// Row is one stored row. OID is non-zero only in object tables.
type Row struct {
	OID  OID
	Vals []Value
	// key orders the row in its table's trie: the OID in an object table,
	// the table's insert sequence number in a relational one.
	key uint64
}

// Table is a base table: either a relational table with explicit columns
// or an object table (CREATE TABLE name OF type) whose rows are objects
// with system-managed OIDs.
type Table struct {
	Name string
	// RowType is non-nil for object tables.
	RowType *ObjectType
	Cols    []Column
	Checks  []CheckExpr
	// NestedStorage maps collection column names to the storage table
	// name given by NESTED TABLE col STORE AS name. The engine stores
	// elements inline but records the clause because each storage table
	// is a schema object that counts toward decomposition (E3).
	NestedStorage map[string]string

	db *DB
	// trie holds the rows in key order (rowtrie.go), serving scans and REF
	// dereference alike.
	trie rowTrie
	// edit is the token under which trie nodes no published version or
	// live scan holds change in place; each capture renews it.
	edit atomic.Uint64
	// lastKey is the key of the newest row of a relational table.
	lastKey uint64
	// verDirty records a mutation since the table's last frozen capture.
	verDirty bool
	// live, set only on frozen copies, points back at the live table (so
	// a frozen index probe can trigger lazy materialization there).
	live *Table
	// pkCols are the column positions of the primary key.
	pkCols []int
	// indexes are the secondary equality indexes (see index.go).
	indexes []*Index
	// colNames caches the column-name slice handed to query scopes.
	colNames []string
	// max caches the highest integer of one column (colmax.go).
	max maxCache
}

// TableSpec describes a table to create.
type TableSpec struct {
	Name string
	// OfType names an object type to create an object table; when set,
	// Columns must be empty and constraint fields of Columns entries are
	// matched to the type's attributes by name.
	OfType string
	// Columns define a relational table (or, for object tables, carry
	// only constraint annotations keyed by attribute name).
	Columns []Column
	// Checks are table-level CHECK constraints.
	Checks []CheckExpr
	// NestedStorage maps collection columns to storage table names.
	NestedStorage map[string]string
}

// CreateTable creates a table from the spec and registers it.
func (db *DB) CreateTable(spec TableSpec) (*Table, error) {
	if err := checkIdent(spec.Name); err != nil {
		return nil, err
	}
	if err := db.writable(); err != nil {
		return nil, err
	}
	t := &Table{
		Name:          spec.Name,
		Checks:        spec.Checks,
		NestedStorage: map[string]string{},
		db:            db,
		max:           maxCache{valid: true}, // no rows: the maximum is 0
	}
	t.edit.Store(db.edits.Add(1))
	for k, v := range spec.NestedStorage {
		if err := checkIdent(v); err != nil {
			return nil, err
		}
		t.NestedStorage[k] = v
	}
	if spec.OfType != "" {
		rt, err := db.ObjectTypeByName(spec.OfType)
		if err != nil {
			return nil, err
		}
		if rt.Incomplete {
			return nil, fmt.Errorf("ordb: table %s: type %s: %w", spec.Name, rt.Name, ErrIncompleteType)
		}
		t.RowType = rt
		// Columns mirror the type's attributes; spec.Columns may add
		// constraints to them by name.
		for _, a := range rt.Attrs {
			col := Column{Name: a.Name, Type: a.Type}
			for _, sc := range spec.Columns {
				if strings.EqualFold(sc.Name, a.Name) {
					col.NotNull = sc.NotNull
					col.PrimaryKey = sc.PrimaryKey
					col.Scope = sc.Scope
				}
			}
			t.Cols = append(t.Cols, col)
		}
		// Constraint names must exist on the type.
		for _, sc := range spec.Columns {
			if rt.AttrIndex(sc.Name) < 0 {
				return nil, fmt.Errorf("ordb: table %s: constraint on unknown attribute %q", spec.Name, sc.Name)
			}
		}
	} else {
		if len(spec.Columns) == 0 {
			return nil, fmt.Errorf("ordb: table %s has no columns", spec.Name)
		}
		for _, c := range spec.Columns {
			if err := checkIdent(c.Name); err != nil {
				return nil, err
			}
			if err := db.checkAttrType(c.Type); err != nil {
				return nil, fmt.Errorf("ordb: table %s column %s: %w", spec.Name, c.Name, err)
			}
			t.Cols = append(t.Cols, c)
		}
	}
	// Collection columns need storage declarations for nested tables
	// (Oracle requires the STORE AS clause; we accept their absence for
	// VARRAYs which are stored inline).
	for _, c := range t.Cols {
		if c.Type.Kind() == KindNestedTable {
			if _, ok := t.NestedStorage[key(c.Name)]; !ok {
				return nil, fmt.Errorf("ordb: table %s: nested table column %s requires a STORE AS clause", spec.Name, c.Name)
			}
		}
		if c.Scope != "" && c.Type.Kind() != KindRef {
			return nil, fmt.Errorf("ordb: table %s: SCOPE FOR on non-REF column %s", spec.Name, c.Name)
		}
		if c.NotNull && IsCollection(c.Type) {
			// Paper, Section 4.3: "NOT NULL constraints cannot be
			// applied to collection types."
			return nil, fmt.Errorf("ordb: table %s column %s: NOT NULL on collection type: %w",
				spec.Name, c.Name, ErrTypeMismatch)
		}
	}
	for i, c := range t.Cols {
		if c.PrimaryKey {
			t.pkCols = append(t.pkCols, i)
		}
	}
	t.createAutoIndexes()
	t.colNames = make([]string, len(t.Cols))
	for i, c := range t.Cols {
		t.colNames[i] = c.Name
	}
	if err := db.registerTable(t); err != nil {
		return nil, err
	}
	return t, nil
}

// ColNames returns the column names in declaration order. The slice is
// shared and must not be mutated.
func (t *Table) ColNames() []string { return t.colNames }

// IsObjectTable reports whether rows carry OIDs.
func (t *Table) IsObjectTable() bool { return t.RowType != nil }

// ColIndex returns the position of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// rowView adapts a value slice to RowView for CHECK evaluation.
type rowView struct {
	t    *Table
	vals []Value
}

// Col implements RowView.
func (r rowView) Col(name string) (Value, bool) {
	i := r.t.ColIndex(name)
	if i < 0 {
		return nil, false
	}
	return r.vals[i], true
}

// Insert validates vals against the table's column types and constraints
// and stores the conformed values as a new row (values are immutable once
// handed to the engine, so conformant composites are stored shared). For object tables the new row is
// assigned a fresh OID, which is returned (zero for relational tables).
func (t *Table) Insert(vals []Value) (OID, error) {
	if err := t.db.writable(); err != nil {
		return 0, err
	}
	if err := t.db.fault(FaultInsert); err != nil {
		return 0, fmt.Errorf("ordb: table %s: %w", t.Name, err)
	}
	checked, err := t.conformed(vals)
	if err == nil {
		err = t.checkRow(checked, ErrPrimaryKey, true)
	}
	if err != nil {
		return 0, err
	}
	row := &Row{Vals: checked}
	t.db.mu.Lock()
	if t.IsObjectTable() {
		t.db.nextOID++
		row.OID = t.db.nextOID
	}
	t.addLocked(row)
	t.db.logUndo(undoInsert{t: t, row: row, counted: true})
	t.db.maybePublishLocked()
	t.db.mu.Unlock()
	t.db.stats.Inserts.Add(1)
	return row.OID, nil
}

// addLocked stores a new row under its key: its OID in an object table,
// the next sequence number in a relational one. Callers hold db.mu (write).
func (t *Table) addLocked(row *Row) {
	row.key = uint64(row.OID)
	if row.OID == 0 {
		t.lastKey++
		row.key = t.lastKey
	}
	t.trie = t.trie.set(t.edit.Load(), row)
	t.indexInsertLocked(row)
	t.maxEnterLocked(row.Vals)
	t.markDirtyLocked()
}

// conformed checks vals' arity and conforms them to the column types.
func (t *Table) conformed(vals []Value) ([]Value, error) {
	if len(vals) != len(t.Cols) {
		return nil, fmt.Errorf("ordb: table %s: got %d values for %d columns: %w",
			t.Name, len(vals), len(t.Cols), ErrArity)
	}
	checked := make([]Value, len(vals))
	for i, v := range vals {
		cv, err := t.db.conform(v, t.Cols[i].Type)
		if err != nil {
			return nil, fmt.Errorf("ordb: table %s column %s: %w", t.Name, t.Cols[i].Name, err)
		}
		checked[i] = cv
	}
	return checked, nil
}

// checkRow enforces the constraints on conformed values: NOT NULL (a NULL
// key column fails with nullKey), SCOPE FOR, with unique the primary key's
// uniqueness, and CHECK.
func (t *Table) checkRow(vals []Value, nullKey error, unique bool) error {
	for i, c := range t.Cols {
		if (c.NotNull || c.PrimaryKey) && IsNull(vals[i]) {
			kind := ErrNotNull
			if c.PrimaryKey {
				kind = nullKey
			}
			return fmt.Errorf("ordb: table %s column %s: %w", t.Name, c.Name, kind)
		}
		if c.Scope != "" {
			if err := t.db.checkScope(vals[i], c.Scope); err != nil {
				return fmt.Errorf("ordb: table %s column %s: %w", t.Name, c.Name, err)
			}
		}
	}
	if unique && len(t.pkCols) > 0 {
		t.db.mu.RLock()
		dup := false
		if cand, ok := t.pkCandidatesLocked(vals); ok {
			// Single-column key with an index: probe it instead of
			// scanning the table. Index keys are normalized, so candidates
			// are a superset of exact matches; DeepEqual decides.
			pi := t.pkCols[0]
			for _, r := range cand {
				dup = dup || DeepEqual(r.Vals[pi], vals[pi])
			}
		} else {
			t.db.stats.RowsScanned.Add(int64(t.trie.each(func(r *Row) bool {
				dup = true
				for _, pi := range t.pkCols {
					dup = dup && DeepEqual(r.Vals[pi], vals[pi])
				}
				return !dup
			})))
		}
		t.db.mu.RUnlock()
		if dup {
			return fmt.Errorf("ordb: table %s: duplicate key: %w", t.Name, ErrPrimaryKey)
		}
	}
	for _, chk := range t.Checks {
		ok, err := chk.Eval(rowView{t: t, vals: vals})
		if err != nil {
			return fmt.Errorf("ordb: table %s CHECK (%s): %w", t.Name, chk, err)
		}
		if !ok {
			return fmt.Errorf("ordb: table %s: CHECK (%s): %w", t.Name, chk, ErrCheck)
		}
	}
	return nil
}

// checkScope verifies a REF value points into the scoped table.
func (db *DB) checkScope(v Value, scope string) error {
	if IsNull(v) {
		return nil
	}
	r, ok := v.(Ref)
	if !ok {
		return ErrTypeMismatch
	}
	if !strings.EqualFold(r.Table, scope) {
		return fmt.Errorf("ref into %s, scope is %s: %w", r.Table, scope, ErrScope)
	}
	return nil
}

// RestoreRow re-creates a row with a known OID during snapshot loading.
// Values are trusted (they were validated when the snapshot was written)
// and deep-copied; the OID allocator is advanced past the restored OID so
// later inserts never collide.
func (t *Table) RestoreRow(oid OID, vals []Value) error {
	if err := t.db.writable(); err != nil {
		return err
	}
	if len(vals) != len(t.Cols) {
		return fmt.Errorf("ordb: table %s: restoring %d values for %d columns: %w",
			t.Name, len(vals), len(t.Cols), ErrArity)
	}
	copied := make([]Value, len(vals))
	for i, v := range vals {
		copied[i] = CloneValue(v)
	}
	row := &Row{OID: oid, Vals: copied}
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	if t.IsObjectTable() {
		if oid == 0 {
			return fmt.Errorf("ordb: table %s: object-table row restored without OID", t.Name)
		}
		if t.trie.get(uint64(oid)) != nil {
			return fmt.Errorf("ordb: table %s: duplicate OID %d in snapshot", t.Name, oid)
		}
		t.db.nextOID = max(t.db.nextOID, oid)
	}
	t.addLocked(row)
	t.db.logUndo(undoInsert{t: t, row: row})
	t.db.maybePublishLocked()
	return nil
}

// captureLocked returns the trie for reading outside the lock, sealed as
// at a publish: on a live table it renews the edit token, so later writes
// copy the nodes the capture holds. Callers hold db.rlock.
func (t *Table) captureLocked() rowTrie {
	tr := t.trie
	if !t.db.frozen && tr.root != nil && tr.root.edit == t.edit.Load() {
		t.edit.Store(t.db.edits.Add(1))
	}
	return tr
}

// Scan calls fn for every row in key order, which is insertion order.
// The callback receives the stored row; callers must not mutate it.
// Returning false stops the scan early.
func (t *Table) Scan(fn func(*Row) bool) {
	t.db.rlock()
	tr := t.captureLocked()
	t.db.runlock()
	t.db.stats.RowsScanned.Add(int64(tr.each(fn)))
}

// Cursor is a pull iterator over the rows a table held when the cursor
// was opened, in key order; later inserts and deletes do not affect it.
type Cursor struct {
	t    *Table
	trie rowTrie
	leaf []*Row // the current run's rows not yet pulled
	n    int
}

// Cursor opens a pull scan. Close must be called: it charges the rows
// pulled to the RowsScanned stat.
func (t *Table) Cursor() *Cursor {
	t.db.rlock()
	defer t.db.runlock()
	tr := t.captureLocked()
	return &Cursor{t: t, trie: tr, leaf: tr.after(nil)}
}

// Next returns the next row, or (nil, false) when exhausted.
func (c *Cursor) Next() (*Row, bool) {
	if len(c.leaf) == 0 {
		return nil, false
	}
	r := c.leaf[0]
	if c.leaf = c.leaf[1:]; len(c.leaf) == 0 {
		c.leaf = c.trie.next(r)
	}
	c.n++
	return r, true
}

// Close ends the scan; closing twice charges nothing further.
func (c *Cursor) Close() {
	c.t.db.stats.RowsScanned.Add(int64(c.n))
	c.trie, c.leaf, c.n = rowTrie{}, nil, 0
}

// RowCount reports the number of stored rows.
func (t *Table) RowCount() int {
	t.db.rlock()
	defer t.db.runlock()
	return t.trie.n
}

// Delete removes rows for which pred returns true and reports how many
// were removed. A nil pred removes all rows. Matching is a Scan, outside
// the write lock (so predicates may dereference REFs) and before any
// mutation: a predicate error leaves rows, indexes and the undo log
// untouched.
func (t *Table) Delete(pred func(*Row) (bool, error)) (int, error) {
	if err := t.db.writable(); err != nil {
		return 0, err
	}
	if err := t.db.fault(FaultDelete); err != nil {
		return 0, fmt.Errorf("ordb: table %s: %w", t.Name, err)
	}
	var del []*Row
	var err error
	t.Scan(func(r *Row) bool {
		ok := true
		if pred != nil {
			ok, err = pred(r)
		}
		if ok && err == nil {
			del = append(del, r)
		}
		return err == nil
	})
	if err != nil {
		return 0, err
	}
	return t.deleteRows(del), nil
}

// DeleteRows removes the given rows, found by an earlier probe or scan,
// and reports how many were still stored. It visits no other row.
func (t *Table) DeleteRows(rows []*Row) (int, error) {
	if err := t.db.writable(); err != nil {
		return 0, err
	}
	if err := t.db.fault(FaultDelete); err != nil {
		return 0, fmt.Errorf("ordb: table %s: %w", t.Name, err)
	}
	return t.deleteRows(rows), nil
}

func (t *Table) deleteRows(rows []*Row) int {
	if len(rows) == 0 {
		return 0
	}
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	removed := make([]*Row, 0, len(rows))
	for _, r := range rows {
		if t.trie.get(r.key) != r {
			continue // gone since it was found, or listed twice
		}
		t.trie = t.trie.del(t.edit.Load(), r)
		t.indexRemoveLocked(r)
		t.maxLeaveLocked(r.Vals)
		removed = append(removed, r)
	}
	if len(removed) == 0 {
		return 0
	}
	t.db.logUndo(undoDelete{t: t, removed: removed})
	t.markDirtyLocked()
	t.db.maybePublishLocked()
	return len(removed)
}

// replaceRowLocked installs new values for a stored row as a fresh Row
// under the same key, preserving its OID identity (REFs stay valid).
// Stored rows are never changed, so scans and published versions holding
// the old row keep seeing its values. It reports false when the row is no
// longer stored. Callers hold db.mu (write) and have validated checked.
func (t *Table) replaceRowLocked(row *Row, checked []Value) bool {
	if t.trie.get(row.key) != row {
		return false
	}
	nr := &Row{OID: row.OID, Vals: checked, key: row.key}
	t.trie = t.trie.set(t.edit.Load(), nr)
	t.indexRemoveLocked(row)
	t.indexInsertLocked(nr)
	t.maxReplaceLocked(row.Vals, nr.Vals)
	t.db.logUndo(undoSwap{t: t, old: row, repl: nr})
	return true
}

// ReplaceByOID re-validates vals and replaces the row with the given OID,
// keeping its identity (all REFs to it stay valid). Used by the
// loader to resolve forward IDREF references after all rows exist.
func (t *Table) ReplaceByOID(oid OID, vals []Value) error {
	if err := t.db.writable(); err != nil {
		return err
	}
	if err := t.db.fault(FaultReplace); err != nil {
		return fmt.Errorf("ordb: table %s: %w", t.Name, err)
	}
	if !t.IsObjectTable() {
		return fmt.Errorf("ordb: table %s is not an object table", t.Name)
	}
	checked, err := t.conformed(vals)
	if err == nil {
		// No uniqueness check: it would compare the key with the row itself.
		err = t.checkRow(checked, ErrNotNull, false)
	}
	if err != nil {
		return err
	}
	t.db.mu.Lock()
	row := t.trie.get(uint64(oid))
	ok := row != nil && t.replaceRowLocked(row, checked)
	if ok {
		t.markDirtyLocked()
		t.db.maybePublishLocked()
	}
	t.db.mu.Unlock()
	if !ok {
		return fmt.Errorf("ordb: %s oid %d: %w", t.Name, oid, ErrDanglingRef)
	}
	return nil
}

// UpdateWhere applies transform to every row matching pred, re-validating
// the produced values against column types and constraints. It returns
// the number of rows updated. Matching and new values are computed first,
// then applied, so a failed conform leaves the table unchanged.
func (t *Table) UpdateWhere(pred func(*Row) (bool, error), transform func(vals []Value) ([]Value, error)) (int, error) {
	if err := t.db.writable(); err != nil {
		return 0, err
	}
	var rows []*Row
	var vals [][]Value
	var err error
	t.Scan(func(r *Row) bool {
		var checked []Value
		if checked, err = t.updated(r, pred, transform); checked != nil {
			rows, vals = append(rows, r), append(vals, checked)
		}
		return err == nil
	})
	if err != nil {
		return 0, err
	}
	t.db.mu.Lock()
	applied := 0
	for i, r := range rows {
		if t.replaceRowLocked(r, vals[i]) {
			applied++
		}
	}
	if applied > 0 {
		t.markDirtyLocked()
		t.db.maybePublishLocked()
	}
	t.db.mu.Unlock()
	return applied, nil
}

// updated returns the validated values UpdateWhere gives r, or nil when
// pred does not match it.
func (t *Table) updated(r *Row, pred func(*Row) (bool, error), transform func([]Value) ([]Value, error)) ([]Value, error) {
	if ok, err := pred(r); !ok || err != nil {
		return nil, err
	}
	nv, err := transform(r.Vals)
	if err != nil {
		return nil, err
	}
	checked, err := t.conformed(nv)
	if err != nil {
		return nil, err
	}
	return checked, t.checkRow(checked, ErrNotNull, false)
}

// ReplaceWhere re-validates vals and replaces the first row matching pred,
// reporting whether a row was found. Relational counterpart to
// ReplaceByOID.
func (t *Table) ReplaceWhere(pred func(*Row) bool, vals []Value) (bool, error) {
	if err := t.db.writable(); err != nil {
		return false, err
	}
	if err := t.db.fault(FaultReplace); err != nil {
		return false, fmt.Errorf("ordb: table %s: %w", t.Name, err)
	}
	checked, err := t.conformed(vals)
	if err != nil {
		return false, err
	}
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	var found *Row
	t.db.stats.RowsScanned.Add(int64(t.trie.each(func(r *Row) bool {
		if pred(r) {
			found = r
		}
		return found == nil
	})))
	if found == nil {
		return false, nil
	}
	t.replaceRowLocked(found, checked)
	t.markDirtyLocked()
	t.db.maybePublishLocked()
	return true, nil
}

// FetchByOID returns the row object with the given OID, dereferencing a
// REF. The returned value is the stored object (row type instance).
func (db *DB) FetchByOID(table string, oid OID) (*Object, error) {
	t, row, err := db.DerefRow(Ref{Table: table, OID: oid})
	if err != nil {
		return nil, err
	}
	return &Object{TypeName: t.RowType.Name, Attrs: row.Vals}, nil
}

// DerefRow resolves a REF to its table and the stored row itself, for a
// caller that goes on to delete the row (DeleteRows).
func (db *DB) DerefRow(r Ref) (*Table, *Row, error) {
	t, err := db.Table(r.Table)
	if err != nil {
		return nil, nil, err
	}
	if !t.IsObjectTable() {
		return nil, nil, fmt.Errorf("ordb: table %s is not an object table", r.Table)
	}
	if err := db.fault(FaultDeref); err != nil {
		return nil, nil, fmt.Errorf("ordb: %s oid %d: %w", r.Table, r.OID, err)
	}
	db.stats.Derefs.Add(1)
	db.rlock()
	found := t.trie.get(uint64(r.OID))
	db.runlock()
	if found == nil {
		return nil, nil, fmt.Errorf("ordb: %s oid %d: %w", r.Table, r.OID, ErrDanglingRef)
	}
	return t, found, nil
}

// Deref resolves a REF value to its row object.
func (db *DB) Deref(v Value) (*Object, error) {
	r, ok := v.(Ref)
	if !ok {
		if IsNull(v) {
			return nil, nil
		}
		return nil, fmt.Errorf("ordb: DEREF of non-REF value %T: %w", v, ErrTypeMismatch)
	}
	return db.FetchByOID(r.Table, r.OID)
}
