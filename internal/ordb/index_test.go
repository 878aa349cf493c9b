package ordb

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
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
	// -0 equals 0 under `=`: a probe for either finds a row stored as
	// either.
	if _, err := tab.Insert([]Value{Str("neg"), Num(negZero())}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert([]Value{Str("pos"), Num(0)}); err != nil {
		t.Fatal(err)
	}
	for _, z := range []float64{0, negZero()} {
		if rows, ok = tab.ProbeEqual("n", Num(z)); !ok || len(rows) != 2 {
			t.Errorf("probe n = %v: rows=%d ok=%v, want the -0 and the 0 row", z, len(rows), ok)
		}
	}
	// A value whose rows sit in one node is answered without allocating,
	// on the published version and on the sealed live table alike.
	for _, d := range []*DB{db.Reader(), db} {
		tb, _ := d.Table("T")
		if n := testing.AllocsPerRun(10, func() { tb.ProbeEqual("n", Num(0)) }); n != 0 {
			t.Errorf("probe (frozen=%v) allocated %v times, want 0", d.frozen, n)
		}
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

// TestIndexDeleteIndependentOfValueCount: deleting one row from an index
// whose one value every row holds touches one path of the index trie, so
// its cost does not grow with the rows sharing the value. The mean bytes
// allocated by 100 single-row DeleteRows, each published, at 16 000 rows
// stay within 1.5× of those at 1 000.
func TestIndexDeleteIndependentOfValueCount(t *testing.T) {
	perDelete := func(rows int) float64 {
		db := New(ModeOracle9)
		tab, err := db.CreateTable(TableSpec{Name: "T", Columns: []Column{
			{Name: "N", Type: NumberType{}},
			{Name: "V", Type: VarcharType{Len: 10}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tab.CreateIndex("IX_T_V", "V"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if _, err := tab.Insert([]Value{Num(i), Str("same")}); err != nil {
				t.Fatal(err)
			}
		}
		if got, _ := tab.ProbeEqual("V", Str("same")); len(got) != rows {
			t.Fatalf("probe found %d rows, want %d", len(got), rows)
		}
		var victims []*Row
		c := tab.Cursor()
		for r, ok := c.Next(); ok && len(victims) < 101; r, ok = c.Next() {
			victims = append(victims, r)
		}
		c.Close()
		if _, err := tab.DeleteRows(victims[:1]); err != nil { // warm up
			t.Fatal(err)
		}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		for _, r := range victims[1:] {
			if _, err := tab.DeleteRows([]*Row{r}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms1)
		return float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(victims)-1)
	}
	small, large := perDelete(1000), perDelete(16000)
	t.Logf("bytes per delete: %.0f at 1 000 rows, %.0f at 16 000 (×%.2f)", small, large, large/small)
	if large > 1.5*small {
		t.Errorf("a delete allocates %.0f B at 16 000 rows, %.0f B at 1 000: more than 1.5×", large, small)
	}
}

// TestEqualKeyOrder: equality keys are prefix-free and sort as their
// values do, with the equalities of SQL `=`.
func TestEqualKeyOrder(t *testing.T) {
	key := func(v Value) string {
		k, ok := AppendEqualKey(nil, v)
		if !ok {
			t.Fatalf("no key for %v", v)
		}
		return string(k)
	}
	ascending := [][]Value{
		{Str(""), Str("a"), Str("a\x00"), Str("a\x00\x00"), Str("a\x01"), Str("ab"), Str("a\xff"), Str("b")},
		{Num(-1e300), Num(-2), Num(-0.5), Num(0), Num(1e-300), Num(1), Num(2.5), Num(1e300)},
	}
	for _, vals := range ascending {
		for i := 1; i < len(vals); i++ {
			a, b := key(vals[i-1]), key(vals[i])
			if a >= b || strings.HasPrefix(b, a) {
				t.Errorf("key(%v) does not sort strictly before key(%v), prefix-free", vals[i-1], vals[i])
			}
		}
	}
	for _, eq := range [][2]Value{
		{Num(0), Num(negZero())},
		{Str("ab"), Str("ab   ")},
	} {
		if key(eq[0]) != key(eq[1]) {
			t.Errorf("key(%v) != key(%v)", eq[0], eq[1])
		}
	}
	for _, v := range []Value{Null{}, nil, &Object{TypeName: "T"}, &Coll{}} {
		if k, ok := AppendEqualKey(nil, v); ok || len(k) != 0 {
			t.Errorf("%v has a key", v)
		}
	}
}

// negZero returns -0, which a constant expression cannot spell.
func negZero() float64 {
	z := 0.0
	return -z
}

// scanMax is the oracle: the allocator's old full scan.
func scanMax(tab *Table) int {
	max := 0
	tab.Scan(func(r *Row) bool {
		if n, ok := r.Vals[0].(Num); ok && int(n) > max {
			max = int(n)
		}
		return true
	})
	return max
}

// TestMaxIntMatchesScan drives a seeded random mix of every mutation that
// can move a column maximum — inserts in and out of order and with
// duplicate keys, deletes of the newest, the oldest and random rows, key
// updates through UpdateWhere, ReplaceWhere and ReplaceByOID on both
// private and published rows, snapshot restores, full and savepoint
// rollbacks — and after every step compares MaxInt with a full scan, on
// the live table and on the published version. The indexed arm declares
// an index on the key, as every allocator's key column has, and must
// never scan; the unindexed arm checks the scan fallback's values.
func TestMaxIntMatchesScan(t *testing.T) {
	for _, indexed := range []bool{true, false} {
		for _, object := range []bool{false, true} {
			for seed := int64(1); seed <= 6; seed++ {
				runMaxIntOracle(t, indexed, object, seed)
			}
		}
	}
}

func runMaxIntOracle(t *testing.T, indexed, object bool, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := New(ModeOracle9)
	spec := TableSpec{Name: "T", Columns: []Column{
		{Name: "k", Type: IntegerType{}},
		{Name: "v", Type: VarcharType{Len: 100}},
	}}
	if object {
		if _, err := db.CreateObjectType("Type_T", []AttrDef{
			{Name: "k", Type: IntegerType{}},
			{Name: "v", Type: VarcharType{Len: 100}},
		}); err != nil {
			t.Fatal(err)
		}
		spec = TableSpec{Name: "T", OfType: "Type_T"}
	}
	tab, err := db.CreateTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	if indexed {
		if _, err := tab.CreateIndex("IX_K", "k"); err != nil {
			t.Fatal(err)
		}
	}
	var tx *Tx
	savepoint := false

	keyIs := func(k int) func(*Row) (bool, error) {
		return func(r *Row) (bool, error) { return int(r.Vals[0].(Num)) == k, nil }
	}
	anyKey := func(newest bool) (int, bool) {
		k, found := 0, false
		tab.Scan(func(r *Row) bool {
			n := int(r.Vals[0].(Num))
			if !found || (newest && n > k) || (!newest && n < k) {
				k, found = n, true
			}
			return true
		})
		return k, found
	}
	// newKey is as often above the current maximum as below it, so key
	// updates move the maximum both ways.
	newKey := func() int {
		if rng.Intn(2) == 0 {
			return scanMax(tab) + 1 + rng.Intn(3)
		}
		return 1 + rng.Intn(40)
	}
	randomKey := func() (int, bool) {
		var keys []int
		tab.Scan(func(r *Row) bool { keys = append(keys, int(r.Vals[0].(Num))); return true })
		if len(keys) == 0 {
			return 0, false
		}
		return keys[rng.Intn(len(keys))], true
	}

	for step := 0; step < 600; step++ {
		op := rng.Intn(15)
		switch op {
		case 0, 1, 2: // insert above the maximum, as the loader does
			if _, err := tab.Insert([]Value{Num(tab.MaxInt(0) + 1), Str("next")}); err != nil {
				t.Fatal(err)
			}
		case 3: // out of order, possibly a duplicate, possibly far above
			if _, err := tab.Insert([]Value{Num(newKey()), Str("sql")}); err != nil {
				t.Fatal(err)
			}
		case 4, 5: // delete newest / oldest
			if k, ok := anyKey(op == 4); ok {
				if _, err := tab.Delete(keyIs(k)); err != nil {
					t.Fatal(err)
				}
			}
		case 6: // delete a random key
			if k, ok := randomKey(); ok {
				if _, err := tab.Delete(keyIs(k)); err != nil {
					t.Fatal(err)
				}
			}
		case 7: // UPDATE ... SET k = ...
			if k, ok := randomKey(); ok {
				to := newKey()
				if _, err := tab.UpdateWhere(keyIs(k), func(vals []Value) ([]Value, error) {
					return []Value{Num(to), vals[1]}, nil
				}); err != nil {
					t.Fatal(err)
				}
			}
		case 8: // replace one row, key included
			var rows []*Row
			tab.Scan(func(r *Row) bool { rows = append(rows, r); return true })
			if len(rows) == 0 {
				break
			}
			r := rows[rng.Intn(len(rows))]
			vals := []Value{Num(newKey()), Str("replaced")}
			if object {
				err = tab.ReplaceByOID(r.OID, vals)
			} else {
				_, err = tab.ReplaceWhere(func(x *Row) bool { return x == r }, vals)
			}
			if err != nil {
				t.Fatal(err)
			}
		case 9, 13, 14: // transactions: begin, savepoint, partial and full rollback, commit
			switch {
			case tx == nil:
				if tx, err = db.Begin(); err != nil {
					t.Fatal(err)
				}
			case !savepoint && rng.Intn(2) == 0:
				if err := tx.Savepoint("sp"); err != nil {
					t.Fatal(err)
				}
				savepoint = true
			case savepoint && rng.Intn(2) == 0:
				if err := tx.RollbackTo("sp"); err != nil {
					t.Fatal(err)
				}
			case rng.Intn(2) == 0:
				if err := tx.Rollback(); err != nil {
					t.Fatal(err)
				}
				tx, savepoint = nil, false
			default:
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				tx, savepoint = nil, false
			}
		case 10: // snapshot restore of a row with a known OID
			oid := OID(0)
			if object {
				oid = OID(10000 + step)
			}
			if err := tab.RestoreRow(oid, []Value{Num(newKey()), Str("restored")}); err != nil {
				t.Fatal(err)
			}
		case 11: // two requests in a row: with an index, the second must not scan
			tab.MaxInt(0)
			before := db.Stats().RowsScanned
			tab.MaxInt(0)
			if d := db.Stats().RowsScanned - before; indexed && d != 0 {
				t.Fatalf("object=%v seed %d step %d: repeated MaxInt scanned %d rows", object, seed, step, d)
			}
		case 12: // another column, then back
			tab.MaxInt(1)
		}
		want := scanMax(tab)
		if got := tab.MaxInt(0); got != want {
			t.Fatalf("object=%v seed %d step %d (op %d): MaxInt = %d, full scan = %d", object, seed, step, op, got, want)
		}
		if tx == nil {
			ft, err := db.Reader().Table("T")
			if err != nil {
				t.Fatal(err)
			}
			if got, want := ft.MaxInt(0), scanMax(ft); got != want {
				t.Fatalf("object=%v seed %d step %d (op %d): published MaxInt = %d, full scan = %d", object, seed, step, op, got, want)
			}
		}
	}
}

// TestMaxIntInsertsNeverScan pins the cost: a table keyed by an indexed
// column answers every request from the index, whatever it holds.
func TestMaxIntInsertsNeverScan(t *testing.T) {
	db, tab := txFixture(t)
	for i := 0; i < 500; i++ {
		before := db.Stats().RowsScanned
		next := tab.MaxInt(0) + 1
		if d := db.Stats().RowsScanned - before; d != 0 {
			t.Fatalf("request %d scanned %d rows", i, d)
		}
		if next != i+1 {
			t.Fatalf("request %d: next key %d", i, next)
		}
		if _, err := tab.Insert([]Value{Num(next), Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
}
