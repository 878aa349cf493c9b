package ordb

import (
	"fmt"
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
