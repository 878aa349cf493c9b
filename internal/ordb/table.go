package ordb

import (
	"fmt"
	"strings"
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
	// epoch is the publish epoch the row was created in. While it equals
	// the DB's current epoch the row has never been captured by a
	// published version and may be mutated in place; afterwards updates
	// swap in a fresh Row (see version.go).
	epoch uint64
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

	db   *DB
	rows []*Row
	// rowsShared marks the rows backing array as captured by a published
	// version: element overwrites must privatize it first (appends and
	// truncations are always safe — see version.go).
	rowsShared bool
	// verDirty records a mutation since the table's last frozen capture.
	verDirty bool
	// live, set only on frozen copies, points back at the live table (so
	// a frozen index probe can trigger lazy materialization there).
	live *Table
	// oidIndex gives O(1) REF dereference for object tables. A persistent
	// trie so published versions capture it by struct copy.
	oidIndex pmap[OID, *Row]
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
		oidIndex:      newPmap[OID, *Row](hashOID),
		max:           maxCache{valid: true}, // no rows: the maximum is 0
	}
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
	if len(vals) != len(t.Cols) {
		return 0, fmt.Errorf("ordb: table %s: got %d values for %d columns: %w",
			t.Name, len(vals), len(t.Cols), ErrArity)
	}
	checked := make([]Value, len(vals))
	for i, v := range vals {
		cv, err := t.db.conform(v, t.Cols[i].Type)
		if err != nil {
			return 0, fmt.Errorf("ordb: table %s column %s: %w", t.Name, t.Cols[i].Name, err)
		}
		checked[i] = cv
	}
	if err := t.checkConstraints(checked); err != nil {
		return 0, err
	}
	row := &Row{Vals: checked}
	t.db.mu.Lock()
	row.epoch = t.db.epoch
	if t.IsObjectTable() {
		t.db.nextOID++
		row.OID = t.db.nextOID
		t.oidIndex = t.oidIndex.set(t.db.epoch, row.OID, row)
	}
	t.rows = append(t.rows, row)
	t.indexInsertLocked(row)
	t.db.logUndo(undoInsert{t: t, row: row, counted: true})
	t.maxEnterLocked(row.Vals)
	t.markDirtyLocked()
	t.db.maybePublishLocked()
	t.db.mu.Unlock()
	t.db.stats.Inserts.Add(1)
	return row.OID, nil
}

func (t *Table) checkConstraints(vals []Value) error {
	for i, c := range t.Cols {
		if (c.NotNull || c.PrimaryKey) && IsNull(vals[i]) {
			kind := ErrNotNull
			if c.PrimaryKey {
				kind = ErrPrimaryKey
			}
			return fmt.Errorf("ordb: table %s column %s: %w", t.Name, c.Name, kind)
		}
		if c.Scope != "" {
			if err := t.db.checkScope(vals[i], c.Scope); err != nil {
				return fmt.Errorf("ordb: table %s column %s: %w", t.Name, c.Name, err)
			}
		}
	}
	if len(t.pkCols) > 0 {
		t.db.mu.RLock()
		dup := false
		if cand, ok := t.pkCandidatesLocked(vals); ok {
			// Single-column key with an index: probe the bucket instead of
			// scanning the table. Bucket keys are normalized, so candidates
			// are a superset of exact matches; DeepEqual decides.
			pi := t.pkCols[0]
			for _, r := range cand {
				if DeepEqual(r.Vals[pi], vals[pi]) {
					dup = true
					break
				}
			}
		} else {
			for _, r := range t.rows {
				same := true
				for _, pi := range t.pkCols {
					if !DeepEqual(r.Vals[pi], vals[pi]) {
						same = false
						break
					}
				}
				if same {
					dup = true
					break
				}
			}
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
	row.epoch = t.db.epoch
	if t.IsObjectTable() {
		if oid == 0 {
			return fmt.Errorf("ordb: table %s: object-table row restored without OID", t.Name)
		}
		if _, dup := t.oidIndex.get(oid); dup {
			return fmt.Errorf("ordb: table %s: duplicate OID %d in snapshot", t.Name, oid)
		}
		t.oidIndex = t.oidIndex.set(t.db.epoch, oid, row)
		if oid > t.db.nextOID {
			t.db.nextOID = oid
		}
	}
	t.rows = append(t.rows, row)
	t.indexInsertLocked(row)
	t.db.logUndo(undoInsert{t: t, row: row})
	t.maxEnterLocked(row.Vals)
	t.markDirtyLocked()
	t.db.maybePublishLocked()
	return nil
}

// Scan calls fn for every row in insertion order. The callback receives
// the stored row; callers must not mutate it. Returning false stops the
// scan early.
func (t *Table) Scan(fn func(*Row) bool) {
	t.db.rlock()
	rows := t.rows
	t.db.runlock()
	n := 0
	for _, r := range rows {
		n++
		if !fn(r) {
			break
		}
	}
	t.db.stats.RowsScanned.Add(int64(n))
}

// Cursor is a pull iterator over the rows a table held when the cursor
// was opened, in insertion order; later inserts and deletes do not
// affect it.
type Cursor struct {
	t    *Table
	rows []*Row
	i    int
}

// Cursor opens a pull scan. Close must be called: it charges the rows
// pulled to the RowsScanned stat.
func (t *Table) Cursor() *Cursor {
	t.db.rlock()
	defer t.db.runlock()
	return &Cursor{t: t, rows: t.rows}
}

// Next returns the next row, or (nil, false) when exhausted.
func (c *Cursor) Next() (*Row, bool) {
	if c.i >= len(c.rows) {
		return nil, false
	}
	r := c.rows[c.i]
	c.i++
	return r, true
}

// Close ends the scan; closing twice charges nothing further.
func (c *Cursor) Close() {
	c.t.db.stats.RowsScanned.Add(int64(c.i))
	c.rows, c.i = nil, 0
}

// RowCount reports the number of stored rows.
func (t *Table) RowCount() int {
	t.db.rlock()
	defer t.db.runlock()
	return len(t.rows)
}

// Delete removes rows for which pred returns true and reports how many
// were removed. A nil pred removes all rows. Matching runs in a first
// phase outside the write lock (so predicates may dereference REFs) and
// before any mutation: a predicate error leaves rows, indexes and the
// undo log untouched.
func (t *Table) Delete(pred func(*Row) (bool, error)) (int, error) {
	if err := t.db.writable(); err != nil {
		return 0, err
	}
	if err := t.db.fault(FaultDelete); err != nil {
		return 0, fmt.Errorf("ordb: table %s: %w", t.Name, err)
	}
	t.db.mu.RLock()
	snapshot := t.rows
	t.db.mu.RUnlock()
	var del map[*Row]bool
	if pred != nil {
		for _, r := range snapshot {
			ok, err := pred(r)
			if err != nil {
				return 0, err
			}
			if ok {
				if del == nil {
					del = make(map[*Row]bool)
				}
				del[r] = true
			}
		}
		if len(del) == 0 {
			return 0, nil
		}
	}
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	var removed []*Row
	kept := make([]*Row, 0, len(t.rows))
	for _, r := range t.rows {
		if pred == nil || del[r] {
			removed = append(removed, r)
		} else {
			kept = append(kept, r)
		}
	}
	if len(removed) == 0 {
		return 0, nil
	}
	t.db.logUndo(undoDelete{t: t, prev: t.rows, prevShared: t.rowsShared, removed: removed})
	for _, r := range removed {
		if r.OID != 0 {
			t.oidIndex = t.oidIndex.del(t.db.epoch, r.OID)
		}
		t.indexRemoveLocked(r)
		t.maxLeaveLocked(r.Vals)
	}
	// kept is a fresh backing array no published version can reach.
	t.rows = kept
	t.rowsShared = false
	t.markDirtyLocked()
	t.db.maybePublishLocked()
	return len(removed), nil
}

// replaceRowLocked installs new values for a row, preserving its OID
// identity (REFs stay valid — the OID index is updated to the new Row
// object when one is needed). A row still private to the live side is
// fixed up in place, the fast path the loader's IDREF resolution relies
// on; a row captured by a published version is replaced by a fresh Row
// at position idx so concurrent lock-free readers keep seeing the old
// values. idx < 0 means the position is unknown and is looked up here.
// Callers hold db.mu (write) and have validated checked.
func (t *Table) replaceRowLocked(row *Row, idx int, checked []Value) bool {
	if row.epoch == t.db.epoch {
		t.db.logUndo(undoReplace{t: t, row: row, prev: row.Vals})
		t.indexRekeyLocked(row, row.Vals, checked)
		t.maxReplaceLocked(row.Vals, checked)
		row.Vals = checked
		return true
	}
	if idx < 0 {
		for i, r := range t.rows {
			if r == row {
				idx = i
				break
			}
		}
		if idx < 0 {
			return false // row no longer stored
		}
	}
	nr := &Row{OID: row.OID, Vals: checked, epoch: t.db.epoch}
	t.privatizeRowsLocked()
	t.rows[idx] = nr
	if nr.OID != 0 {
		t.oidIndex = t.oidIndex.set(t.db.epoch, nr.OID, nr)
	}
	t.indexRemoveLocked(row)
	t.indexInsertLocked(nr)
	t.maxReplaceLocked(row.Vals, nr.Vals)
	t.db.logUndo(undoSwap{t: t, idx: idx, old: row, repl: nr})
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
	if len(vals) != len(t.Cols) {
		return fmt.Errorf("ordb: table %s: got %d values for %d columns: %w",
			t.Name, len(vals), len(t.Cols), ErrArity)
	}
	checked := make([]Value, len(vals))
	for i, v := range vals {
		cv, err := t.db.conform(v, t.Cols[i].Type)
		if err != nil {
			return fmt.Errorf("ordb: table %s column %s: %w", t.Name, t.Cols[i].Name, err)
		}
		checked[i] = cv
	}
	t.db.mu.Lock()
	row, _ := t.oidIndex.get(oid)
	t.db.mu.Unlock()
	if row == nil {
		return fmt.Errorf("ordb: %s oid %d: %w", t.Name, oid, ErrDanglingRef)
	}
	// Constraint checking (PK uniqueness would compare against the row
	// itself; skip PK re-check when key columns are unchanged).
	for i, c := range t.Cols {
		if (c.NotNull || c.PrimaryKey) && IsNull(checked[i]) {
			return fmt.Errorf("ordb: table %s column %s: %w", t.Name, c.Name, ErrNotNull)
		}
		if c.Scope != "" {
			if err := t.db.checkScope(checked[i], c.Scope); err != nil {
				return fmt.Errorf("ordb: table %s column %s: %w", t.Name, c.Name, err)
			}
		}
	}
	for _, chk := range t.Checks {
		ok, err := chk.Eval(rowView{t: t, vals: checked})
		if err != nil {
			return fmt.Errorf("ordb: table %s CHECK (%s): %w", t.Name, chk, err)
		}
		if !ok {
			return fmt.Errorf("ordb: table %s: CHECK (%s): %w", t.Name, chk, ErrCheck)
		}
	}
	t.db.mu.Lock()
	ok := t.replaceRowLocked(row, -1, checked)
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
	t.db.mu.RLock()
	rows := append([]*Row(nil), t.rows...)
	t.db.mu.RUnlock()
	type change struct {
		row  *Row
		vals []Value
	}
	var changes []change
	for _, r := range rows {
		ok, err := pred(r)
		if err != nil {
			return 0, err
		}
		if !ok {
			continue
		}
		nv, err := transform(r.Vals)
		if err != nil {
			return 0, err
		}
		if len(nv) != len(t.Cols) {
			return 0, fmt.Errorf("ordb: table %s: update produced %d values for %d columns: %w",
				t.Name, len(nv), len(t.Cols), ErrArity)
		}
		checked := make([]Value, len(nv))
		for i, v := range nv {
			cv, err := t.db.conform(v, t.Cols[i].Type)
			if err != nil {
				return 0, fmt.Errorf("ordb: table %s column %s: %w", t.Name, t.Cols[i].Name, err)
			}
			checked[i] = cv
		}
		for i, c := range t.Cols {
			if (c.NotNull || c.PrimaryKey) && IsNull(checked[i]) {
				return 0, fmt.Errorf("ordb: table %s column %s: %w", t.Name, c.Name, ErrNotNull)
			}
			if c.Scope != "" {
				if err := t.db.checkScope(checked[i], c.Scope); err != nil {
					return 0, fmt.Errorf("ordb: table %s column %s: %w", t.Name, c.Name, err)
				}
			}
		}
		for _, chk := range t.Checks {
			ok, err := chk.Eval(rowView{t: t, vals: checked})
			if err != nil {
				return 0, fmt.Errorf("ordb: table %s CHECK (%s): %w", t.Name, chk, err)
			}
			if !ok {
				return 0, fmt.Errorf("ordb: table %s: CHECK (%s): %w", t.Name, chk, ErrCheck)
			}
		}
		changes = append(changes, change{row: r, vals: checked})
	}
	t.db.mu.Lock()
	// Positions are needed to swap published rows; resolve them in one
	// pass when any change targets one.
	var pos map[*Row]int
	for _, c := range changes {
		if c.row.epoch == t.db.epoch {
			continue
		}
		pos = make(map[*Row]int, len(t.rows))
		for i, r := range t.rows {
			pos[r] = i
		}
		break
	}
	applied := 0
	for _, c := range changes {
		idx := -1
		if pos != nil {
			if i, ok := pos[c.row]; ok {
				idx = i
			} else if c.row.epoch != t.db.epoch {
				continue // row vanished between phases
			}
		}
		if t.replaceRowLocked(c.row, idx, c.vals) {
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
	if len(vals) != len(t.Cols) {
		return false, fmt.Errorf("ordb: table %s: got %d values for %d columns: %w",
			t.Name, len(vals), len(t.Cols), ErrArity)
	}
	checked := make([]Value, len(vals))
	for i, v := range vals {
		cv, err := t.db.conform(v, t.Cols[i].Type)
		if err != nil {
			return false, fmt.Errorf("ordb: table %s column %s: %w", t.Name, t.Cols[i].Name, err)
		}
		checked[i] = cv
	}
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	for i, r := range t.rows {
		if pred(r) {
			t.replaceRowLocked(r, i, checked)
			t.markDirtyLocked()
			t.db.maybePublishLocked()
			return true, nil
		}
	}
	return false, nil
}

// FetchByOID returns the row object with the given OID, dereferencing a
// REF. The returned value is the stored object (row type instance).
func (db *DB) FetchByOID(table string, oid OID) (*Object, error) {
	t, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	if !t.IsObjectTable() {
		return nil, fmt.Errorf("ordb: table %s is not an object table", table)
	}
	if err := db.fault(FaultDeref); err != nil {
		return nil, fmt.Errorf("ordb: %s oid %d: %w", table, oid, err)
	}
	db.stats.Derefs.Add(1)
	db.rlock()
	found, _ := t.oidIndex.get(oid)
	db.runlock()
	if found == nil {
		return nil, fmt.Errorf("ordb: %s oid %d: %w", table, oid, ErrDanglingRef)
	}
	return &Object{TypeName: t.RowType.Name, Attrs: found.Vals}, nil
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
