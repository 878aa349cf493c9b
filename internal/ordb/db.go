package ordb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

// DB is one object-relational database instance: a catalog of user-defined
// types, tables, object tables and views, plus the stored rows. A live DB
// is safe for concurrent use; catalog and data operations take the
// instance lock. Reader returns a frozen MVCC snapshot whose reads take
// no locks at all (see version.go).
type DB struct {
	mode Mode
	// frozen marks a published read-only version: reads skip db.mu,
	// writes fail with ErrFrozen. Immutable after construction.
	frozen bool
	// versionLSN is the WAL position a frozen version covers.
	versionLSN uint64
	// published is the most recent frozen version (live DB only).
	published atomic.Pointer[DB]

	mu     sync.RWMutex
	types  map[string]Type // key: upper-cased name
	tables map[string]*Table
	views  map[string]*View
	// typeOrder and tableOrder preserve creation order for listings.
	typeOrder  []string
	tableOrder []string
	viewOrder  []string
	nextOID    OID
	// epoch counts full publishes; index trie nodes stamped with the
	// current epoch are private to the live side (pmap.go).
	epoch uint64
	// edits issues the tables' trie edit tokens (Table.edit).
	edits atomic.Uint64
	// verDirty records a mutation since the last publish.
	verDirty bool
	// pubSuspended holds back publication while a multi-operation apply
	// (a replicated commit unit) is in flight, so readers never see a
	// half-applied unit stamped as current.
	pubSuspended bool
	// lsnSource supplies the LSN a published version is stamped with.
	lsnSource func() uint64
	// tx is the open transaction, if any (see tx.go).
	tx *Tx
	// txObs, when set, observes transaction lifecycle events (the WAL
	// hook; see SetTxObserver in tx.go).
	txObs TxObserver
	// stats counts engine operations for the benchmark harness; the
	// pointer is shared with every frozen version so lock-free reads
	// feed the same counters.
	stats *Stats
	// autoSave numbers the auto-generated savepoints of RunInTx.
	autoSave atomic.Int64
	// faultMu guards the fault-injection hook and its counters.
	faultMu   sync.Mutex
	faultHook FaultHook
	faultSeq  map[string]int64
}

// Stats counts low-level engine work, letting the benches report the
// "degree of decomposition" effects the paper discusses (one nested
// INSERT vs. many flat INSERTs, dot navigation vs. join evaluation).
// Counters are updated atomically.
type Stats struct {
	// Inserts is the number of row insertions performed.
	Inserts atomic.Int64
	// RowsScanned is the number of rows read by scans.
	RowsScanned atomic.Int64
	// Derefs is the number of REF dereferences performed.
	Derefs atomic.Int64
	// IndexProbes is the number of persistent-index equality probes.
	IndexProbes atomic.Int64
}

// StatsSnapshot is a point-in-time copy of the counters.
type StatsSnapshot struct {
	Inserts     int64
	RowsScanned int64
	Derefs      int64
	IndexProbes int64
}

// New returns an empty database emulating the given Oracle mode.
func New(mode Mode) *DB {
	db := &DB{
		mode:   mode,
		types:  map[string]Type{},
		tables: map[string]*Table{},
		views:  map[string]*View{},
		stats:  &Stats{},
	}
	// Publish an initial (empty) version so Reader never comes up empty.
	db.verDirty = true
	db.publishLocked(0)
	return db
}

// Mode reports the emulated DBMS version.
func (db *DB) Mode() Mode { return db.mode }

// Stats returns a snapshot of the operation counters.
func (db *DB) Stats() StatsSnapshot {
	return StatsSnapshot{
		Inserts:     db.stats.Inserts.Load(),
		RowsScanned: db.stats.RowsScanned.Load(),
		Derefs:      db.stats.Derefs.Load(),
		IndexProbes: db.stats.IndexProbes.Load(),
	}
}

// ResetStats zeroes the operation counters.
func (db *DB) ResetStats() {
	db.stats.Inserts.Store(0)
	db.stats.RowsScanned.Store(0)
	db.stats.Derefs.Store(0)
	db.stats.IndexProbes.Store(0)
}

func key(name string) string { return strings.ToUpper(name) }

// lookup reads the catalog map m at key(name) without building the key
// string: an ASCII name of at most foldBuf bytes (every generated name)
// is upper-cased into a stack buffer, and Go does not allocate for an
// m[string(buf)] index. Any other name goes through key.
func lookup[V any](m map[string]V, name string) (V, bool) {
	var buf [foldBuf]byte
	if len(name) <= len(buf) {
		b := buf[:len(name)]
		for i := 0; i < len(name); i++ {
			c := name[i]
			if c >= utf8.RuneSelf {
				b = nil
				break
			}
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			b[i] = c
		}
		if b != nil {
			v, ok := m[string(b)]
			return v, ok
		}
	}
	v, ok := m[key(name)]
	return v, ok
}

// foldBuf bounds the names lookup folds on the stack. Catalog names
// are at most MaxIdentLen bytes; longer names go through key.
const foldBuf = 64

func checkIdent(name string) error {
	if name == "" {
		return fmt.Errorf("ordb: empty identifier")
	}
	if len(name) > MaxIdentLen {
		return fmt.Errorf("ordb: identifier %q (%d chars): %w", name, len(name), ErrIdentTooLong)
	}
	return nil
}

// DeclareType registers an incomplete object type (CREATE TYPE name;) —
// the forward declaration Section 6.2 uses to define recursive structures.
// Declaring an already-complete type is an error; re-declaring an
// incomplete one is a no-op.
func (db *DB) DeclareType(name string) (*ObjectType, error) {
	if err := db.writable(); err != nil {
		return nil, err
	}
	if err := checkIdent(name); err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if existing, ok := db.types[key(name)]; ok {
		if ot, isObj := existing.(*ObjectType); isObj && ot.Incomplete {
			return ot, nil
		}
		return nil, fmt.Errorf("ordb: type %q: %w", name, ErrExists)
	}
	ot := &ObjectType{Name: name, Incomplete: true}
	db.types[key(name)] = ot
	db.typeOrder = append(db.typeOrder, key(name))
	db.verDirty = true
	db.maybePublishLocked()
	return ot, nil
}

// CreateObjectType registers a complete object type. If an incomplete
// declaration with the same name exists, it is completed in place so that
// previously created REF columns resolve to the finished type.
func (db *DB) CreateObjectType(name string, attrs []AttrDef) (*ObjectType, error) {
	if err := db.writable(); err != nil {
		return nil, err
	}
	if err := checkIdent(name); err != nil {
		return nil, err
	}
	for _, a := range attrs {
		if err := checkIdent(a.Name); err != nil {
			return nil, err
		}
		if err := db.checkAttrType(a.Type); err != nil {
			return nil, fmt.Errorf("ordb: type %s attribute %s: %w", name, a.Name, err)
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if existing, ok := db.types[key(name)]; ok {
		ot, isObj := existing.(*ObjectType)
		if !isObj || !ot.Incomplete {
			return nil, fmt.Errorf("ordb: type %q: %w", name, ErrExists)
		}
		// Completed in place: published versions holding this *ObjectType
		// observe the completion too. Safe in practice because schema DDL
		// runs at store-open time, before concurrent readers exist.
		ot.Attrs = attrs
		ot.Incomplete = false
		db.verDirty = true
		db.maybePublishLocked()
		return ot, nil
	}
	ot := &ObjectType{Name: name, Attrs: attrs}
	db.types[key(name)] = ot
	db.typeOrder = append(db.typeOrder, key(name))
	db.verDirty = true
	db.maybePublishLocked()
	return ot, nil
}

// CreateVarrayType registers CREATE TYPE name AS VARRAY(max) OF elem.
// Under ModeOracle8 the element type must not be a collection or LOB.
func (db *DB) CreateVarrayType(name string, max int, elem Type) (*VarrayType, error) {
	if err := db.writable(); err != nil {
		return nil, err
	}
	if err := checkIdent(name); err != nil {
		return nil, err
	}
	if max <= 0 {
		return nil, fmt.Errorf("ordb: VARRAY %s: non-positive limit %d", name, max)
	}
	if err := db.checkCollectionElem(elem); err != nil {
		return nil, fmt.Errorf("ordb: VARRAY %s: %w", name, err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.types[key(name)]; ok {
		return nil, fmt.Errorf("ordb: type %q: %w", name, ErrExists)
	}
	vt := &VarrayType{Name: name, Max: max, Elem: elem}
	db.types[key(name)] = vt
	db.typeOrder = append(db.typeOrder, key(name))
	db.verDirty = true
	db.maybePublishLocked()
	return vt, nil
}

// CreateNestedTableType registers CREATE TYPE name AS TABLE OF elem.
func (db *DB) CreateNestedTableType(name string, elem Type) (*NestedTableType, error) {
	if err := db.writable(); err != nil {
		return nil, err
	}
	if err := checkIdent(name); err != nil {
		return nil, err
	}
	if err := db.checkCollectionElem(elem); err != nil {
		return nil, fmt.Errorf("ordb: nested table type %s: %w", name, err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.types[key(name)]; ok {
		return nil, fmt.Errorf("ordb: type %q: %w", name, ErrExists)
	}
	nt := &NestedTableType{Name: name, Elem: elem}
	db.types[key(name)] = nt
	db.typeOrder = append(db.typeOrder, key(name))
	db.verDirty = true
	db.maybePublishLocked()
	return nt, nil
}

// checkCollectionElem enforces the mode-dependent element restriction:
// under ModeOracle8 a collection's element type must not be a collection
// or LOB, nor an object type that (transitively) contains one — the
// Oracle 8 rule that makes set-valued complex elements unmappable to
// collections and forces the paper's Section 4.2 REF workaround.
func (db *DB) checkCollectionElem(elem Type) error {
	if db.mode == ModeOracle8 && containsCollectionOrLOB(elem, map[string]bool{}) {
		return fmt.Errorf("element type %s: %w", elem.SQL(), ErrNestedCollection)
	}
	return db.checkAttrType(elem)
}

// containsCollectionOrLOB reports whether t is, or transitively embeds, a
// collection or large object type. REF attributes do not embed their
// target.
func containsCollectionOrLOB(t Type, seen map[string]bool) bool {
	switch n := t.(type) {
	case *VarrayType, *NestedTableType, CLOBType:
		return true
	case *ObjectType:
		if seen[n.Name] {
			return false
		}
		seen[n.Name] = true
		for _, a := range n.Attrs {
			if _, isRef := a.Type.(*RefType); isRef {
				continue
			}
			if containsCollectionOrLOB(a.Type, seen) {
				return true
			}
		}
	}
	return false
}

// checkAttrType verifies that a referenced user-defined type is usable.
func (db *DB) checkAttrType(t Type) error {
	switch n := t.(type) {
	case *ObjectType:
		if n.Incomplete {
			return fmt.Errorf("type %s: %w", n.Name, ErrIncompleteType)
		}
	case *RefType:
		// REF to an incomplete type is precisely what forward
		// declarations enable; always legal.
		return nil
	}
	return nil
}

// Type looks up a user-defined type by name (case-insensitive).
func (db *DB) Type(name string) (Type, error) {
	db.rlock()
	defer db.runlock()
	t, ok := lookup(db.types, name)
	if !ok {
		return nil, fmt.Errorf("ordb: type %q: %w", name, ErrNotFound)
	}
	return t, nil
}

// ObjectTypeByName looks up an object type by name.
func (db *DB) ObjectTypeByName(name string) (*ObjectType, error) {
	t, err := db.Type(name)
	if err != nil {
		return nil, err
	}
	ot, ok := t.(*ObjectType)
	if !ok {
		return nil, fmt.Errorf("ordb: type %q is %s, not an object type", name, t.Kind())
	}
	return ot, nil
}

// TypeNames lists all user-defined type names in creation order.
func (db *DB) TypeNames() []string {
	db.rlock()
	defer db.runlock()
	out := make([]string, 0, len(db.typeOrder))
	for _, k := range db.typeOrder {
		out = append(out, displayTypeName(db.types[k]))
	}
	return out
}

func displayTypeName(t Type) string {
	if n := NamedType(t); n != "" {
		return n
	}
	return t.SQL()
}

// DropType removes a user-defined type. Without force, the drop fails
// when other types or tables depend on the type; with force, dependents
// are dropped transitively (DROP ... FORCE, Section 6.2).
func (db *DB) DropType(name string, force bool) error {
	if err := db.writable(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	k := key(name)
	if _, ok := db.types[k]; !ok {
		return fmt.Errorf("ordb: type %q: %w", name, ErrNotFound)
	}
	deps := db.dependentsLocked(k)
	if len(deps) > 0 && !force {
		return fmt.Errorf("ordb: type %q has dependents %v: %w", name, deps, ErrDependentTypes)
	}
	db.dropTypeCascadeLocked(k)
	db.verDirty = true
	db.maybePublishLocked()
	return nil
}

// dependentsLocked lists names of types and tables that directly depend
// on the named type.
func (db *DB) dependentsLocked(k string) []string {
	var deps []string
	for _, tk := range db.typeOrder {
		if tk == k {
			continue
		}
		for _, d := range typeDependencies(db.types[tk]) {
			if key(d) == k {
				deps = append(deps, displayTypeName(db.types[tk]))
				break
			}
		}
	}
	for _, tn := range db.tableOrder {
		tbl := db.tables[tn]
		if tbl == nil {
			continue
		}
		for _, c := range tbl.Cols {
			for _, d := range refOrName(c.Type) {
				if key(d) == k {
					deps = append(deps, tbl.Name)
				}
			}
		}
		if tbl.RowType != nil && key(tbl.RowType.Name) == k {
			deps = append(deps, tbl.Name)
		}
	}
	sort.Strings(deps)
	return deps
}

func (db *DB) dropTypeCascadeLocked(k string) {
	if _, ok := db.types[k]; !ok {
		return
	}
	delete(db.types, k)
	db.typeOrder = removeString(db.typeOrder, k)
	// Drop dependents transitively.
	for _, tk := range append([]string(nil), db.typeOrder...) {
		t, ok := db.types[tk]
		if !ok {
			continue
		}
		for _, d := range typeDependencies(t) {
			if key(d) == k {
				db.dropTypeCascadeLocked(tk)
				break
			}
		}
	}
	for _, tn := range append([]string(nil), db.tableOrder...) {
		tbl := db.tables[tn]
		if tbl == nil {
			continue
		}
		drop := tbl.RowType != nil && key(tbl.RowType.Name) == k
		if !drop {
			for _, c := range tbl.Cols {
				for _, d := range refOrName(c.Type) {
					if key(d) == k {
						drop = true
					}
				}
			}
		}
		if drop {
			delete(db.tables, tn)
			db.tableOrder = removeString(db.tableOrder, tn)
		}
	}
}

func removeString(ss []string, s string) []string {
	out := ss[:0]
	for _, x := range ss {
		if x != s {
			out = append(out, x)
		}
	}
	return out
}

// Table looks up a table by name.
func (db *DB) Table(name string) (*Table, error) {
	db.rlock()
	defer db.runlock()
	t, ok := lookup(db.tables, name)
	if !ok {
		return nil, fmt.Errorf("ordb: table %q: %w", name, ErrNotFound)
	}
	return t, nil
}

// TableNames lists all table names in creation order.
func (db *DB) TableNames() []string {
	db.rlock()
	defer db.runlock()
	out := make([]string, 0, len(db.tableOrder))
	for _, k := range db.tableOrder {
		out = append(out, db.tables[k].Name)
	}
	return out
}

// DropTable removes a table and its rows.
func (db *DB) DropTable(name string) error {
	if err := db.writable(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	k := key(name)
	if _, ok := db.tables[k]; !ok {
		return fmt.Errorf("ordb: table %q: %w", name, ErrNotFound)
	}
	delete(db.tables, k)
	db.tableOrder = removeString(db.tableOrder, k)
	db.verDirty = true
	db.maybePublishLocked()
	return nil
}

// registerTable adds a constructed table to the catalog.
func (db *DB) registerTable(t *Table) error {
	if err := db.writable(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	k := key(t.Name)
	if _, ok := db.tables[k]; ok {
		return fmt.Errorf("ordb: table %q: %w", t.Name, ErrExists)
	}
	if _, ok := db.views[k]; ok {
		return fmt.Errorf("ordb: view %q: %w", t.Name, ErrExists)
	}
	db.tables[k] = t
	db.tableOrder = append(db.tableOrder, k)
	t.markDirtyLocked()
	db.maybePublishLocked()
	return nil
}

// SchemaObjectCount returns the number of catalog objects by category —
// the decomposition-degree metric of experiment E3.
func (db *DB) SchemaObjectCount() (types, tables, views, storageTables int) {
	db.rlock()
	defer db.runlock()
	for _, t := range db.tables {
		storageTables += len(t.NestedStorage)
	}
	return len(db.types), len(db.tables), len(db.views), storageTables
}
