package ordb

import (
	"math/rand"
	"testing"
)

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
// the live table and on the published version.
func TestMaxIntMatchesScan(t *testing.T) {
	for _, object := range []bool{false, true} {
		for seed := int64(1); seed <= 6; seed++ {
			runMaxIntOracle(t, object, seed)
		}
	}
}

func runMaxIntOracle(t *testing.T, object bool, seed int64) {
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
		case 11: // two requests in a row: the second must not scan
			tab.MaxInt(0)
			before := db.Stats().RowsScanned
			tab.MaxInt(0)
			if d := db.Stats().RowsScanned - before; d != 0 {
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

// TestMaxIntInsertsNeverScan pins the cost: a table that only grows
// answers every request from the cache, whatever it holds.
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
