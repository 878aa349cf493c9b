package ordb

import "testing"

// FuzzProbeMatchesScan drives an object table with an indexed REF column
// through a byte-coded history of inserts, deletes, updates, replaces,
// transactions, savepoints and publishes. After every step, and for every
// key, the probe must return the rows a filter scan returns, in the same
// order — on the live table and on the current published version; and at
// the end on every version published during the history.
//
//	go test ./internal/ordb/ -run FuzzProbeMatchesScan -fuzz FuzzProbeMatchesScan
func FuzzProbeMatchesScan(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 4, 1, 1, 6, 0})             // the rolled-back delete
	f.Add([]byte{0, 1, 0, 2, 7, 0, 2, 0, 3, 1, 7, 0, 0, 2})    // COW update and replace
	f.Add([]byte{0, 0, 0, 1, 4, 5, 3, 2, 1, 0, 0, 2, 6, 1, 7}) // savepoint rollback
	f.Fuzz(runProbeScanScript)
}

// runProbeScanScript plays one script: byte pairs of (operation, argument).
func runProbeScanScript(t *testing.T, script []byte) {
	if len(script) > 128 {
		script = script[:128]
	}
	db, tab, parents := refFixture(t)
	keys := append([]Ref{{Table: "P", OID: 999}}, parents...)
	var tx *Tx
	savepoint := false
	versions := []*DB{db.Reader()}
	// pick returns the stored row at position b, or nil.
	pick := func(b byte) *Row {
		var rows []*Row
		tab.Scan(func(r *Row) bool { rows = append(rows, r); return true })
		if len(rows) == 0 {
			return nil
		}
		return rows[int(b)%len(rows)]
	}
	parentVal := func(b byte) Value {
		if i := int(b) % 4; i < len(parents) {
			return parents[i]
		}
		return Null{}
	}
	check := func(step int, dbs ...*DB) {
		for _, d := range dbs {
			c, err := d.Table("C")
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if msg := probeScanMismatch(c, "Parent", k); msg != "" {
					t.Fatalf("step %d (frozen=%v): %s", step, d.frozen, msg)
				}
			}
		}
	}
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i]%8, script[i+1]
		switch op {
		case 0:
			if _, err := tab.Insert([]Value{parentVal(arg), Num(arg)}); err != nil {
				t.Fatal(err)
			}
		case 1:
			if r := pick(arg); r != nil {
				if _, err := tab.Delete(func(x *Row) (bool, error) { return x == r, nil }); err != nil {
					t.Fatal(err)
				}
			}
		case 2:
			if r := pick(arg); r != nil {
				if _, err := tab.UpdateWhere(
					func(x *Row) (bool, error) { return x == r, nil },
					func(vals []Value) ([]Value, error) { return []Value{parentVal(arg / 4), vals[1]}, nil },
				); err != nil {
					t.Fatal(err)
				}
			}
		case 3:
			if r := pick(arg); r != nil {
				if err := tab.ReplaceByOID(r.OID, []Value{parentVal(arg / 4), Num(arg)}); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			if tx == nil {
				var err error
				if tx, err = db.Begin(); err != nil {
					t.Fatal(err)
				}
			}
		case 5:
			if tx != nil {
				if err := tx.Savepoint("sp"); err != nil {
					t.Fatal(err)
				}
				savepoint = true
			}
		case 6:
			switch {
			case tx != nil && savepoint && arg%2 == 0:
				if err := tx.RollbackTo("sp"); err != nil {
					t.Fatal(err)
				}
			case tx != nil:
				if err := tx.Rollback(); err != nil {
					t.Fatal(err)
				}
				tx, savepoint = nil, false
			}
		case 7:
			if tx != nil {
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				tx, savepoint = nil, false
			}
			if v := db.Reader(); v != versions[len(versions)-1] {
				versions = append(versions, v)
			}
		}
		check(i/2, db, db.Reader())
	}
	// Published versions are immutable: later live mutations must not
	// have disturbed the buckets any of them captured.
	check(len(script)/2, versions...)
}
