package ordb

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// What the executor's scan and probe legs rely on from a table:
// insertion-order scans that charge exactly the rows they visited,
// index probes that agree with a filter scan, and scans that stay
// stable while rows are deleted under them.

func scanFixture(t *testing.T, names ...string) (*DB, *Table) {
	t.Helper()
	db := New(ModeOracle9)
	tab, err := db.CreateTable(TableSpec{Name: "T", Columns: []Column{
		{Name: "Name", Type: VarcharType{Len: 100}},
		{Name: "N", Type: NumberType{}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("IxName", "Name"); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if _, err := tab.Insert([]Value{Str(name), Num(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return db, tab
}

func numbered(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("row-%02d", i)
	}
	return out
}

func cursorNames(c *Cursor, limit int) []string {
	var out []string
	for len(out) < limit {
		r, ok := c.Next()
		if !ok {
			break
		}
		out = append(out, string(r.Vals[0].(Str)))
	}
	return out
}

func TestScanOrderAndCharge(t *testing.T) {
	want := numbered(50)
	db, tab := scanFixture(t, want...)
	scanned := func() int64 { return db.Stats().RowsScanned }

	var got []string
	tab.Scan(func(r *Row) bool { got = append(got, string(r.Vals[0].(Str))); return true })
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Scan order = %v", got)
	}
	if n := scanned(); n != 50 {
		t.Fatalf("full Scan charged %d rows, want 50", n)
	}
	if tab.RowCount() != 50 {
		t.Fatalf("RowCount = %d", tab.RowCount())
	}

	// A scan stopped by its callback is charged the rows it saw,
	// including the one it stopped on.
	before := scanned()
	seen := 0
	tab.Scan(func(*Row) bool { seen++; return seen < 7 })
	if d := scanned() - before; d != 7 {
		t.Fatalf("early-exit Scan charged %d rows, want 7", d)
	}

	before = scanned()
	c := tab.Cursor()
	if got := cursorNames(c, 50); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Cursor order = %v", got)
	}
	if d := scanned() - before; d != 0 {
		t.Fatalf("open cursor already charged %d rows", d)
	}
	c.Close()
	c.Close()
	if d := scanned() - before; d != 50 {
		t.Fatalf("exhausted cursor charged %d rows, want 50", d)
	}

	before = scanned()
	c = tab.Cursor()
	cursorNames(c, 3)
	c.Close()
	if d := scanned() - before; d != 3 {
		t.Fatalf("abandoned cursor charged %d rows, want 3", d)
	}
}

func TestProbeEqualMatchesFilterScan(t *testing.T) {
	t.Run("relational", probeMatchesScanRelational)
	t.Run("object table", probeMatchesScanObjectTable)
}

func probeMatchesScanRelational(t *testing.T) {
	names := make([]string, 30)
	for i := range names {
		names[i] = fmt.Sprintf("g%d", i%3)
	}
	_, tab := scanFixture(t, names...)
	for _, key := range []string{"g0", "g1", "g2", "g1   ", "absent"} {
		rows, ok := tab.ProbeEqual("Name", Str(key))
		if !ok {
			t.Fatalf("probe %q on an indexed column refused", key)
		}
		// SQL `=`: trailing blanks are insignificant.
		var want []*Row
		tab.Scan(func(r *Row) bool {
			if strings.TrimRight(string(r.Vals[0].(Str)), " ") == strings.TrimRight(key, " ") {
				want = append(want, r)
			}
			return true
		})
		if fmt.Sprint(rows) != fmt.Sprint(want) {
			t.Errorf("probe %q = %d rows, filter scan = %d rows (or another order)", key, len(rows), len(want))
		}
	}
}

// refFixture is an object table C whose Parent column REFs the rows of
// a parent table P — the shape of the Oracle 8 mapping's child tables —
// with three parent rows. Parent carries the automatic REF index. C's
// attributes are Parent, N NUMBER and then extra.
func refFixture(t testing.TB, extra ...AttrDef) (*DB, *Table, []Ref) {
	t.Helper()
	db := New(ModeOracle8)
	pt, err := db.CreateObjectType("TyP", []AttrDef{{Name: "Name", Type: VarcharType{Len: 20}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateObjectType("TyC", append([]AttrDef{
		{Name: "Parent", Type: &RefType{Target: pt}},
		{Name: "N", Type: NumberType{}},
	}, extra...)); err != nil {
		t.Fatal(err)
	}
	ptab, err := db.CreateTable(TableSpec{Name: "P", OfType: "TyP"})
	if err != nil {
		t.Fatal(err)
	}
	ctab, err := db.CreateTable(TableSpec{Name: "C", OfType: "TyC"})
	if err != nil {
		t.Fatal(err)
	}
	var parents []Ref
	for _, name := range []string{"p0", "p1", "p2"} {
		oid, err := ptab.Insert([]Value{Str(name)})
		if err != nil {
			t.Fatal(err)
		}
		parents = append(parents, Ref{Table: "P", OID: oid})
	}
	return db, ctab, parents
}

// probeScanMismatch describes how probing col = key differs from a
// filter scan for it — other rows, or the same rows in another order — or
// returns "" when they agree. Rows are compared by identity.
func probeScanMismatch(tab *Table, col string, key Value) string {
	rows, ok := tab.ProbeEqual(col, key)
	if !ok {
		return fmt.Sprintf("probe of %s = %v refused", col, key)
	}
	ci := tab.ColIndex(col)
	var want []*Row
	tab.Scan(func(r *Row) bool {
		if equalSQL(r.Vals[ci], key) {
			want = append(want, r)
		}
		return true
	})
	if slices.Equal(rows, want) {
		return ""
	}
	oids := func(rs []*Row) []OID {
		out := make([]OID, len(rs))
		for i, r := range rs {
			out[i] = r.OID
		}
		return out
	}
	return fmt.Sprintf("probe of %s = %v returned OIDs %v, filter scan %v", col, key, oids(rows), oids(want))
}

// equalSQL is SQL `=` on two non-NULL scalars, written out apart from the
// index's key encoding: strings compare without trailing blanks, numbers
// by value (-0 is 0), dates by instant and REFs exactly.
func equalSQL(a, b Value) bool {
	if x, ok := a.(Str); ok {
		y, ok := b.(Str)
		return ok && strings.TrimRight(string(x), " ") == strings.TrimRight(string(y), " ")
	}
	return DeepEqual(a, b)
}

// requireProbeMatchesScan checks every parent key, and one no row holds,
// on the live table and on the published version.
func requireProbeMatchesScan(t *testing.T, step string, db *DB, parents []Ref) {
	t.Helper()
	keys := append([]Ref{{Table: "P", OID: 999}}, parents...)
	for _, d := range []*DB{db, db.Reader()} {
		tab, err := d.Table("C")
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if msg := probeScanMismatch(tab, "Parent", k); msg != "" {
				t.Errorf("%s (frozen=%v): %s", step, d.frozen, msg)
			}
		}
	}
}

// probeMatchesScanObjectTable: a REF index answers in OID order —
// insertion order, the order a scan visits — through every mutation that
// re-adds an older row to an index.
func probeMatchesScanObjectTable(t *testing.T) {
	db, tab, parents := refFixture(t)
	p0, p1 := parents[0], parents[1]
	var oids []OID
	for i := 0; i < 4; i++ {
		oid, err := tab.Insert([]Value{p0, Num(i)})
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	requireProbeMatchesScan(t, "inserts", db, parents)

	// The repro: a rolled-back delete of a middle row re-adds it to its
	// index, where appending would have put it last.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Delete(func(r *Row) (bool, error) { return r.OID == oids[1], nil }); err != nil {
		t.Fatal(err)
	}
	requireProbeMatchesScan(t, "delete in tx", db, parents)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	requireProbeMatchesScan(t, "rolled-back delete", db, parents)

	// Copy-on-write updates of published rows swap in a fresh Row.
	frozen := db.Reader()
	if _, err := tab.UpdateWhere(
		func(r *Row) (bool, error) { return r.OID == oids[0], nil },
		func(vals []Value) ([]Value, error) { return []Value{vals[0], Num(10)}, nil },
	); err != nil {
		t.Fatal(err)
	}
	requireProbeMatchesScan(t, "UpdateWhere of a published row", db, parents)
	if err := tab.ReplaceByOID(oids[2], []Value{p1, Num(2)}); err != nil {
		t.Fatal(err)
	}
	if err := tab.ReplaceByOID(oids[2], []Value{p0, Num(2)}); err != nil {
		t.Fatal(err)
	}
	requireProbeMatchesScan(t, "ReplaceByOID away and back", db, parents)
	// An older version still answers from the index it captured.
	fc, _ := frozen.Table("C")
	if msg := probeScanMismatch(fc, "Parent", p0); msg != "" {
		t.Errorf("earlier version: %s", msg)
	}

	// Savepoint rollback of a rekey, a delete and a COW replace.
	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Savepoint("sp"); err != nil {
		t.Fatal(err)
	}
	if err := tab.ReplaceByOID(oids[0], []Value{p1, Num(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Delete(func(r *Row) (bool, error) { return r.OID == oids[3], nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert([]Value{p1, Num(5)}); err != nil {
		t.Fatal(err)
	}
	requireProbeMatchesScan(t, "inside savepoint", db, parents)
	if err := tx.RollbackTo("sp"); err != nil {
		t.Fatal(err)
	}
	requireProbeMatchesScan(t, "rollback to savepoint", db, parents)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows, _ := tab.ProbeEqual("Parent", p0)
	if len(rows) != 4 {
		t.Fatalf("after the savepoint rollback p0 has %d children, want 4", len(rows))
	}
	for i, r := range rows {
		if r.OID != oids[i] {
			t.Fatalf("p0's children in OID order %v, want %v", rows, oids)
		}
	}
}

func TestDeleteDuringScan(t *testing.T) {
	want := numbered(40)
	_, tab := scanFixture(t, want...)
	deleteTwenties := func() {
		n, err := tab.Delete(func(r *Row) (bool, error) {
			v := r.Vals[1].(Num)
			return v >= 20 && v < 30, nil
		})
		if err != nil || n != 10 {
			t.Fatalf("Delete = %d, %v; want 10", n, err)
		}
	}

	// A cursor keeps returning the rows the table held when it opened,
	// in order, whatever is deleted meanwhile.
	c := tab.Cursor()
	got := cursorNames(c, 10)
	deleteTwenties()
	got = append(got, cursorNames(c, 40)...)
	c.Close()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cursor across a delete = %v", got)
	}

	survivors := append(append([]string(nil), want[:20]...), want[30:]...)
	if tab.RowCount() != 30 {
		t.Fatalf("RowCount after delete = %d", tab.RowCount())
	}
	// The same from inside a Scan callback.
	got = got[:0]
	tab.Scan(func(r *Row) bool {
		got = append(got, string(r.Vals[0].(Str)))
		if len(got) == 5 {
			if _, err := tab.Delete(nil); err != nil {
				t.Fatal(err)
			}
		}
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint(survivors) {
		t.Fatalf("Scan across a delete = %v", got)
	}
	if tab.RowCount() != 0 {
		t.Fatalf("RowCount after delete-all = %d", tab.RowCount())
	}
}

// TestWriteScansAreCharged: every row a write path reads by visiting the
// table counts toward RowsScanned like a Scan's, so the exact counts see
// it; DeleteRows, handed its rows, reads none.
func TestWriteScansAreCharged(t *testing.T) {
	db, tab := scanFixture(t, numbered(10)...)
	charged := func(op func() error) int64 {
		t.Helper()
		before := db.Stats().RowsScanned
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return db.Stats().RowsScanned - before
	}
	nIs := func(n Num) func(*Row) (bool, error) {
		return func(r *Row) (bool, error) { return r.Vals[1] == n, nil }
	}
	if d := charged(func() error {
		_, err := tab.UpdateWhere(nIs(3), func(v []Value) ([]Value, error) { return []Value{v[0], Num(30)}, nil })
		return err
	}); d != 10 {
		t.Errorf("UpdateWhere charged %d rows, want 10", d)
	}
	if d := charged(func() error {
		_, err := tab.ReplaceWhere(func(r *Row) bool { return r.Vals[1] == Num(4) }, []Value{Str("four"), Num(4)})
		return err
	}); d != 5 {
		t.Errorf("ReplaceWhere matching the fifth row charged %d rows, want 5", d)
	}
	if d := charged(func() error { _, err := tab.Delete(nIs(5)); return err }); d != 10 {
		t.Errorf("Delete(pred) charged %d rows, want 10", d)
	}
	var rows []*Row
	tab.Scan(func(r *Row) bool { rows = append(rows, r); return len(rows) < 2 })
	if d := charged(func() error { _, err := tab.DeleteRows(rows); return err }); d != 0 {
		t.Errorf("DeleteRows charged %d rows, want 0", d)
	}
	if d := charged(func() error { _, err := tab.Delete(nil); return err }); d != 7 {
		t.Errorf("Delete(nil) charged %d rows, want 7", d)
	}

	// A composite primary key has no index to probe: the duplicate check
	// reads the stored rows.
	pk, err := db.CreateTable(TableSpec{Name: "PK", Columns: []Column{
		{Name: "A", Type: NumberType{}, PrimaryKey: true},
		{Name: "B", Type: NumberType{}, PrimaryKey: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := pk.Insert([]Value{Num(i), Num(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if d := charged(func() error { _, err := pk.Insert([]Value{Num(9), Num(9)}); return err }); d != 6 {
		t.Errorf("composite-key insert charged %d rows, want 6", d)
	}
	if _, err := pk.Insert([]Value{Num(2), Num(2)}); err == nil {
		t.Error("duplicate composite key accepted")
	}
}

// TestCursorSealsTransactionRows: inside a transaction nothing publishes,
// so the trie nodes holding the transaction's rows are still the writer's
// to change in place. Opening a cursor seals them: it keeps returning the
// rows it opened on while the transaction deletes rows it found by probe
// and inserts more.
func TestCursorSealsTransactionRows(t *testing.T) {
	db, tab := scanFixture(t)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	want := numbered(40)
	for i, name := range want {
		if _, err := tab.Insert([]Value{Str(name), Num(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var victims []*Row
	for _, name := range want[20:30] {
		rows, _ := tab.ProbeEqual("Name", Str(name))
		victims = append(victims, rows...)
	}
	c := tab.Cursor()
	got := cursorNames(c, 10)
	if n, err := tab.DeleteRows(victims); err != nil || n != 10 {
		t.Fatalf("DeleteRows = %d, %v; want 10", n, err)
	}
	if _, err := tab.Insert([]Value{Str("late"), Num(99)}); err != nil {
		t.Fatal(err)
	}
	got = append(got, cursorNames(c, 50)...)
	c.Close()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cursor across a delete in a transaction = %v", got)
	}
	if tab.RowCount() != 31 {
		t.Fatalf("RowCount = %d, want 31", tab.RowCount())
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if tab.RowCount() != 0 {
		t.Fatalf("RowCount after rollback = %d", tab.RowCount())
	}
}
