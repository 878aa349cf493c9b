package ordb

import (
	"errors"
	"fmt"
	"testing"
)

// indexedTable builds a small object table with an explicit index on
// Name (object rows have OIDs, so every mutation path is exercisable).
func indexedTable(t *testing.T) (*DB, *Table) {
	t.Helper()
	db := New(ModeOracle9)
	if _, err := db.CreateObjectType("TyItem", []AttrDef{
		{Name: "ItemID", Type: IntegerType{}},
		{Name: "Name", Type: v4000()},
	}); err != nil {
		t.Fatalf("CreateObjectType: %v", err)
	}
	tab, err := db.CreateTable(TableSpec{Name: "T", OfType: "TyItem"})
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := tab.CreateIndex("IX_T_Name", "Name"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	return db, tab
}

func probeNames(t *testing.T, tab *Table, name string) int {
	t.Helper()
	rows, ok := tab.ProbeEqual("Name", Str(name))
	if !ok {
		t.Fatalf("ProbeEqual(Name) not available")
	}
	return len(rows)
}

func TestCreateIndexValidation(t *testing.T) {
	db, tab := indexedTable(t)
	if _, err := tab.CreateIndex("IX_T_Name", "Name"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate index name: err = %v, want ErrExists", err)
	}
	if _, err := tab.CreateIndex("IX_Other", "Name"); !errors.Is(err, ErrExists) {
		t.Errorf("second index on same column: err = %v, want ErrExists", err)
	}
	if _, err := tab.CreateIndex("IX_Missing", "Nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("index on missing column: err = %v, want ErrNotFound", err)
	}
	arr, err := db.CreateVarrayType("VA", 3, v4000())
	if err != nil {
		t.Fatal(err)
	}
	tab2, err := db.CreateTable(TableSpec{Name: "T2", Columns: []Column{{Name: "c", Type: arr}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab2.CreateIndex("IX_T2_C", "c"); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("index on collection column: err = %v, want ErrTypeMismatch", err)
	}
	// Index names are unique database-wide, not per table.
	tab3, err := db.CreateTable(TableSpec{Name: "T3", Columns: []Column{{Name: "s", Type: v4000()}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab3.CreateIndex("IX_T_Name", "s"); !errors.Is(err, ErrExists) {
		t.Errorf("cross-table duplicate name: err = %v, want ErrExists", err)
	}
}

func TestAutoIndexCreation(t *testing.T) {
	db := New(ModeOracle9)
	ot, err := db.CreateObjectType("TyTarget", []AttrDef{{Name: "V", Type: v4000()}})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable(TableSpec{
		Name: "TabDoc",
		Columns: []Column{
			{Name: "DocID", Type: IntegerType{}},
			{Name: "IDParent", Type: IntegerType{}},
			{Name: "Body", Type: v4000()},
			{Name: "Key", Type: v4000(), PrimaryKey: true},
			{Name: "Owner", Type: &RefType{Target: ot}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "[{IX_TabDoc_DocID DocID} {IX_TabDoc_IDParent IDParent} {IX_TabDoc_Key Key} {IX_TabDoc_Owner Owner}]"
	if got := fmt.Sprint(tab.Indexes()); got != want {
		t.Fatalf("auto indexes = %s, want %s", got, want)
	}
	if got := fmt.Sprint(tab.AutoIndexes()); got != want {
		t.Errorf("AutoIndexes = %s, want %s", got, want)
	}
	if tab.EqIndex("Body") != nil {
		t.Error("non-ID scalar column got an auto index")
	}
	// The key and the REF indexes are built with the table; the others
	// wait for their first probe.
	for col, built := range map[string]bool{"DocID": false, "IDParent": false, "Key": true, "Owner": true} {
		if ix := tab.EqIndex(col); ix.built != built {
			t.Errorf("index on %s built at creation = %v, want %v", col, ix.built, built)
		}
	}
}

// TestExplicitIndexReplacesAutoIndex: CREATE INDEX on a column that only
// carries its automatic index replaces it, as DROP INDEX then CREATE
// INDEX would, so a statement written before the automatic rule covered
// REF columns still runs. A second explicit index on the column is still
// refused.
func TestExplicitIndexReplacesAutoIndex(t *testing.T) {
	db := New(ModeOracle9)
	ot, err := db.CreateObjectType("TyTarget", []AttrDef{{Name: "V", Type: v4000()}})
	if err != nil {
		t.Fatal(err)
	}
	target, err := db.CreateTable(TableSpec{Name: "TabTarget", OfType: "TyTarget"})
	if err != nil {
		t.Fatal(err)
	}
	oid, err := target.Insert([]Value{Str("x")})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable(TableSpec{
		Name: "TabDoc",
		Columns: []Column{
			{Name: "Owner", Type: &RefType{Target: ot}},
			{Name: "DocID", Type: IntegerType{}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	owner := Ref{Table: "TabTarget", OID: oid}
	for i := 0; i < 3; i++ {
		if _, err := tab.Insert([]Value{owner, Num(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tab.CreateIndex("IX_Owner", "Owner"); err != nil {
		t.Fatalf("CREATE INDEX on an auto-indexed REF column: %v", err)
	}
	want := "[{IX_TabDoc_DocID DocID} {IX_Owner Owner}]"
	if got := fmt.Sprint(tab.Indexes()); got != want {
		t.Errorf("indexes = %s, want %s", got, want)
	}
	if rows, ok := tab.ProbeEqual("Owner", owner); !ok || len(rows) != 3 {
		t.Errorf("probe through the replacing index: %d rows, ok=%v", len(rows), ok)
	}
	if _, err := tab.CreateIndex("IX_Owner2", "Owner"); !errors.Is(err, ErrExists) {
		t.Errorf("second explicit index on the column: err = %v, want ErrExists", err)
	}
	// Naming the automatic index itself replaces it with an equal one.
	if _, err := tab.CreateIndex("IX_TabDoc_DocID", "DocID"); err != nil {
		t.Fatalf("CREATE INDEX under the automatic name: %v", err)
	}
	want = "[{IX_Owner Owner} {IX_TabDoc_DocID DocID}]"
	if got := fmt.Sprint(tab.Indexes()); got != want {
		t.Errorf("indexes = %s, want %s", got, want)
	}
}

func TestProbeEqualSemantics(t *testing.T) {
	db := New(ModeOracle9)
	tab, err := db.CreateTable(TableSpec{
		Name: "T",
		Columns: []Column{
			{Name: "c", Type: CharType{Len: 5}},
			{Name: "n", Type: NumberType{}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("IX_C", "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("IX_N", "n"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert([]Value{Str("ab"), Num(7)}); err != nil {
		t.Fatal(err)
	}
	// CHAR blank padding is insignificant under SQL `=`, so an unpadded
	// probe must find the padded stored value.
	rows, ok := tab.ProbeEqual("c", Str("ab"))
	if !ok || len(rows) != 1 {
		t.Errorf("CHAR probe unpadded: rows=%d ok=%v, want 1 row", len(rows), ok)
	}
	rows, ok = tab.ProbeEqual("c", Str("ab   "))
	if !ok || len(rows) != 1 {
		t.Errorf("CHAR probe padded: rows=%d ok=%v, want 1 row", len(rows), ok)
	}
	// NULL equals nothing: a definite, empty answer (ok stays true).
	rows, ok = tab.ProbeEqual("n", Null{})
	if !ok || len(rows) != 0 {
		t.Errorf("NULL probe: rows=%d ok=%v, want 0 rows, ok", len(rows), ok)
	}
	// An unindexed column reports ok=false so callers fall back to scans.
	if _, ok := tab.ProbeEqual("missing", Num(1)); ok {
		t.Error("probe of unindexed column reported ok")
	}
	if got := db.Stats().IndexProbes; got < 3 {
		t.Errorf("IndexProbes = %d, want >= 3", got)
	}
}

func TestIndexMaintenanceAcrossMutations(t *testing.T) {
	_, tab := indexedTable(t)
	oid, err := tab.Insert([]Value{Num(1), Str("alpha")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert([]Value{Num(2), Str("beta")}); err != nil {
		t.Fatal(err)
	}
	if got := probeNames(t, tab, "alpha"); got != 1 {
		t.Fatalf("after insert: alpha rows = %d", got)
	}
	if err := tab.ReplaceByOID(oid, []Value{Num(1), Str("gamma")}); err != nil {
		t.Fatal(err)
	}
	if got := probeNames(t, tab, "alpha"); got != 0 {
		t.Errorf("after replace: alpha rows = %d, want 0", got)
	}
	if got := probeNames(t, tab, "gamma"); got != 1 {
		t.Errorf("after replace: gamma rows = %d, want 1", got)
	}
	if _, err := tab.UpdateWhere(
		func(r *Row) (bool, error) { return DeepEqual(r.Vals[1], Str("gamma")), nil },
		func(vals []Value) ([]Value, error) { return []Value{vals[0], Str("delta")}, nil },
	); err != nil {
		t.Fatal(err)
	}
	if got := probeNames(t, tab, "delta"); got != 1 {
		t.Errorf("after update: delta rows = %d, want 1", got)
	}
	if _, err := tab.Delete(func(r *Row) (bool, error) {
		return DeepEqual(r.Vals[1], Str("delta")), nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := probeNames(t, tab, "delta"); got != 0 {
		t.Errorf("after delete: delta rows = %d, want 0", got)
	}
	if got := probeNames(t, tab, "beta"); got != 1 {
		t.Errorf("untouched row lost from index: beta rows = %d", got)
	}
}

// TestIndexMaintenanceUnderRollback pins the tentpole invariant: the
// undo log unwinds secondary indexes exactly, so after Rollback (or
// ROLLBACK TO SAVEPOINT) probes see precisely the pre-transaction rows.
func TestIndexMaintenanceUnderRollback(t *testing.T) {
	db, tab := indexedTable(t)
	if _, err := tab.Insert([]Value{Num(1), Str("keep")}); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert([]Value{Num(2), Str("txrow")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Savepoint("sp"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert([]Value{Num(3), Str("after-sp")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Delete(func(r *Row) (bool, error) {
		return DeepEqual(r.Vals[1], Str("keep")), nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := probeNames(t, tab, "keep"); got != 0 {
		t.Fatalf("deleted row still probeable: keep rows = %d", got)
	}
	if err := tx.RollbackTo("sp"); err != nil {
		t.Fatal(err)
	}
	// The post-savepoint insert and delete are unwound; the earlier
	// in-transaction insert survives.
	if got := probeNames(t, tab, "after-sp"); got != 0 {
		t.Errorf("after RollbackTo: after-sp rows = %d, want 0", got)
	}
	if got := probeNames(t, tab, "keep"); got != 1 {
		t.Errorf("after RollbackTo: keep rows = %d, want 1", got)
	}
	if got := probeNames(t, tab, "txrow"); got != 1 {
		t.Errorf("after RollbackTo: txrow rows = %d, want 1", got)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := probeNames(t, tab, "txrow"); got != 0 {
		t.Errorf("after Rollback: txrow rows = %d, want 0", got)
	}
	if got := probeNames(t, tab, "keep"); got != 1 {
		t.Errorf("after Rollback: keep rows = %d, want 1", got)
	}
	if got := tab.RowCount(); got != 1 {
		t.Errorf("after Rollback: row count = %d, want 1", got)
	}
}

// TestLazyIndexMaterializesOnProbe pins the write-path design: an auto
// index on a non-key column stays unmaterialized through inserts and
// still answers its first probe correctly.
func TestLazyIndexMaterializesOnProbe(t *testing.T) {
	db := New(ModeOracle9)
	tab, err := db.CreateTable(TableSpec{
		Name: "TabE",
		Columns: []Column{
			{Name: "DocID", Type: IntegerType{}},
			{Name: "V", Type: v4000()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := tab.Insert([]Value{Num(i % 2), Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	rows, ok := tab.ProbeEqual("DocID", Num(1))
	if !ok || len(rows) != 2 {
		t.Fatalf("first probe after inserts: rows=%d ok=%v, want 2", len(rows), ok)
	}
	// And the now-materialized index is maintained incrementally.
	if _, err := tab.Insert([]Value{Num(1), Str("y")}); err != nil {
		t.Fatal(err)
	}
	rows, _ = tab.ProbeEqual("DocID", Num(1))
	if len(rows) != 3 {
		t.Errorf("probe after post-materialization insert: rows=%d, want 3", len(rows))
	}
}

func TestDropIndex(t *testing.T) {
	db, tab := indexedTable(t)
	if err := db.DropIndex("IX_T_Name"); err != nil {
		t.Fatal(err)
	}
	if _, ok := tab.ProbeEqual("Name", Str("x")); ok {
		t.Error("dropped index still answers probes")
	}
	if err := db.DropIndex("IX_T_Name"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double drop: err = %v, want ErrNotFound", err)
	}
}
