package ordb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentInsertAndScan exercises the engine's locking under
// parallel writers and readers (run with -race).
func TestConcurrentInsertAndScan(t *testing.T) {
	db := New(ModeOracle9)
	tab, err := db.CreateTable(TableSpec{Name: "T", Columns: []Column{
		{Name: "a", Type: VarcharType{Len: 100}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := tab.Insert([]Value{Str(fmt.Sprintf("w%d-%d", w, i))}); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	// Concurrent readers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tab.Scan(func(*Row) bool { return true })
			}
		}()
	}
	wg.Wait()
	if got := tab.RowCount(); got != writers*perWriter {
		t.Errorf("rows = %d, want %d", got, writers*perWriter)
	}
	if got := db.Stats().Inserts; got != writers*perWriter {
		t.Errorf("stats.Inserts = %d", got)
	}
}

// TestLiveScansBesideTransactionWriter: a writer inserts and deletes
// inside one transaction, so the trie nodes it makes stay unpublished and
// change in place, while readers scan and walk cursors over the live
// table. Each capture is sealed before it is read outside the lock (run
// with -race): every scan sees keys in strictly increasing order.
func TestLiveScansBesideTransactionWriter(t *testing.T) {
	db := New(ModeOracle9)
	if _, err := db.CreateObjectType("Type_P", []AttrDef{{Name: "n", Type: NumberType{}}}); err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable(TableSpec{Name: "TabP", OfType: "Type_P"})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		var oids []OID
		for i := 0; i < 1500; i++ {
			oid, err := tab.Insert([]Value{Num(i)})
			if err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if oids = append(oids, oid); i%3 == 2 {
				_, row, err := db.DerefRow(Ref{Table: "TabP", OID: oids[len(oids)-2]})
				if err == nil {
					_, err = tab.DeleteRows([]*Row{row})
				}
				if err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(cursor bool) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var last uint64
				visit := func(row *Row) {
					if row.key <= last {
						t.Errorf("scan visited key %d after %d", row.key, last)
					}
					last = row.key
				}
				if !cursor {
					tab.Scan(func(row *Row) bool { visit(row); return true })
					continue
				}
				c := tab.Cursor()
				for row, ok := c.Next(); ok; row, ok = c.Next() {
					visit(row)
				}
				c.Close()
			}
		}(r%2 == 1)
	}
	wg.Wait()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := tab.RowCount(); got != 1000 {
		t.Errorf("rows = %d, want 1000", got)
	}
}

// TestLiveProbesBesideTransactionWriter: a writer inserts and deletes
// rows under three indexed values inside one transaction, so the index
// trie nodes it makes stay unpublished and change in place, while readers
// probe the live table for those values and read each result outside the
// lock (run with -race). A result is copied when it shares a node that may
// still change: every probe returns rows holding the probed value in
// strictly increasing key order.
func TestLiveProbesBesideTransactionWriter(t *testing.T) {
	db := New(ModeOracle9)
	if _, err := db.CreateObjectType("Type_G", []AttrDef{{Name: "g", Type: NumberType{}}}); err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable(TableSpec{Name: "TabG", OfType: "Type_G"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("IX_TabG_g", "g"); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		var oids []OID
		for i := 0; i < 1500; i++ {
			oid, err := tab.Insert([]Value{Num(i % 3)})
			if err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if oids = append(oids, oid); i%3 == 2 {
				_, row, err := db.DerefRow(Ref{Table: "TabG", OID: oids[len(oids)-2]})
				if err == nil {
					_, err = tab.DeleteRows([]*Row{row})
				}
				if err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rows, ok := tab.ProbeEqual("g", Num(g))
				if !ok {
					t.Error("probe refused")
					return
				}
				var last uint64
				for _, row := range rows {
					if row.key <= last || row.Vals[0] != Num(g) {
						t.Errorf("probe g = %d returned key %d (g = %v) after %d", g, row.key, row.Vals[0], last)
						return
					}
					last = row.key
				}
			}
		}(r % 3)
	}
	wg.Wait()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for g, want := range []int{500, 0, 500} {
		if rows, _ := tab.ProbeEqual("g", Num(g)); len(rows) != want {
			t.Errorf("g = %d: %d rows, want %d", g, len(rows), want)
		}
	}
}

// TestConcurrentObjectTableOIDs verifies OID uniqueness under parallel
// inserts.
func TestConcurrentObjectTableOIDs(t *testing.T) {
	db := New(ModeOracle9)
	db.CreateObjectType("Type_P", []AttrDef{{Name: "a", Type: VarcharType{Len: 10}}})
	tab, _ := db.CreateTable(TableSpec{Name: "TabP", OfType: "Type_P"})
	const n = 200
	oids := make(chan OID, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			oid, err := tab.Insert([]Value{Str("x")})
			if err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			oids <- oid
		}()
	}
	wg.Wait()
	close(oids)
	seen := map[OID]bool{}
	for oid := range oids {
		if seen[oid] {
			t.Fatalf("duplicate OID %d", oid)
		}
		seen[oid] = true
	}
}

func TestUpdateWhereDirect(t *testing.T) {
	db := New(ModeOracle9)
	tab, _ := db.CreateTable(TableSpec{Name: "T", Columns: []Column{
		{Name: "a", Type: VarcharType{Len: 100}},
		{Name: "b", Type: NumberType{}},
	}})
	for i := 0; i < 5; i++ {
		tab.Insert([]Value{Str("x"), Num(i)})
	}
	n, err := tab.UpdateWhere(
		func(r *Row) (bool, error) { return r.Vals[1].(Num) >= 3, nil },
		func(vals []Value) ([]Value, error) {
			out := append([]Value(nil), vals...)
			out[0] = Str("updated")
			return out, nil
		})
	if err != nil || n != 2 {
		t.Fatalf("UpdateWhere = %d, %v", n, err)
	}
	count := 0
	tab.Scan(func(r *Row) bool {
		if r.Vals[0] == Str("updated") {
			count++
		}
		return true
	})
	if count != 2 {
		t.Errorf("updated rows = %d", count)
	}
}

func TestUpdateWhereAtomicOnFailure(t *testing.T) {
	db := New(ModeOracle9)
	tab, _ := db.CreateTable(TableSpec{Name: "T", Columns: []Column{
		{Name: "a", Type: VarcharType{Len: 3}},
	}})
	tab.Insert([]Value{Str("ok")})
	tab.Insert([]Value{Str("ok2")})
	// Second row's new value is too long: NO row may change.
	_, err := tab.UpdateWhere(
		func(*Row) (bool, error) { return true, nil },
		func(vals []Value) ([]Value, error) {
			if vals[0] == Str("ok2") {
				return []Value{Str("too long")}, nil
			}
			return []Value{Str("new")}, nil
		})
	if !errors.Is(err, ErrValueTooLong) {
		t.Fatalf("err = %v", err)
	}
	tab.Scan(func(r *Row) bool {
		if r.Vals[0] == Str("new") {
			t.Error("partial update applied")
		}
		return true
	})
}

func TestReplaceByOIDDirect(t *testing.T) {
	db := New(ModeOracle9)
	db.CreateObjectType("Type_P", []AttrDef{{Name: "a", Type: VarcharType{Len: 10}}})
	tab, _ := db.CreateTable(TableSpec{Name: "TabP", OfType: "Type_P"})
	oid, _ := tab.Insert([]Value{Str("old")})
	ref := Ref{Table: "TabP", OID: oid}
	if err := tab.ReplaceByOID(oid, []Value{Str("new")}); err != nil {
		t.Fatalf("ReplaceByOID: %v", err)
	}
	obj, err := db.Deref(ref)
	if err != nil {
		t.Fatalf("REF invalidated by replace: %v", err)
	}
	if obj.Attrs[0] != Str("new") {
		t.Errorf("value = %v", obj.Attrs[0])
	}
	if err := tab.ReplaceByOID(999, []Value{Str("x")}); !errors.Is(err, ErrDanglingRef) {
		t.Errorf("missing OID = %v", err)
	}
	if err := tab.ReplaceByOID(oid, []Value{Str("x"), Str("y")}); !errors.Is(err, ErrArity) {
		t.Errorf("wrong arity = %v", err)
	}
}

func TestReplaceWhereDirect(t *testing.T) {
	db := New(ModeOracle9)
	tab, _ := db.CreateTable(TableSpec{Name: "T", Columns: []Column{
		{Name: "id", Type: IntegerType{}},
		{Name: "v", Type: VarcharType{Len: 10}},
	}})
	tab.Insert([]Value{Num(1), Str("a")})
	tab.Insert([]Value{Num(2), Str("b")})
	found, err := tab.ReplaceWhere(
		func(r *Row) bool { return DeepEqual(r.Vals[0], Num(2)) },
		[]Value{Num(2), Str("B")})
	if err != nil || !found {
		t.Fatalf("ReplaceWhere = %v, %v", found, err)
	}
	found, err = tab.ReplaceWhere(func(*Row) bool { return false }, []Value{Num(3), Str("c")})
	if err != nil || found {
		t.Errorf("no-match replace = %v, %v", found, err)
	}
}
