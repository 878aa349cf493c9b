package ordb

import (
	"maps"
	"slices"
	"testing"
)

// FuzzProbeMatchesScan drives an object table with an indexed REF column
// through a byte-coded history of inserts, deletes (by predicate and by
// DeleteRows), updates, replaces, transactions, savepoints and publishes.
// After every step, and for every key, the probe must return the rows a
// filter scan returns, in the same order — on the live table and on the
// current published version; and at the end on every version published
// during the history. A model of the table's contents, OID to values,
// checks the scans themselves: after every step the live scan visits the
// model's rows in OID order and RowCount is the model's size, and at the
// end every published version still holds its model at publish.
//
//	go test ./internal/ordb/ -run FuzzProbeMatchesScan -fuzz FuzzProbeMatchesScan
func FuzzProbeMatchesScan(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 4, 1, 1, 6, 0})                      // the rolled-back delete
	f.Add([]byte{0, 1, 0, 2, 7, 0, 2, 0, 3, 1, 7, 0, 0, 2})             // COW update and replace
	f.Add([]byte{0, 0, 0, 1, 4, 5, 3, 2, 1, 0, 0, 2, 6, 1, 7})          // savepoint rollback
	f.Add([]byte{0, 0, 0, 1, 0, 2, 7, 0, 4, 0, 8, 1, 6, 1, 8, 3, 7, 0}) // DeleteRows, rolled back and committed
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
	model := map[OID][]Value{}
	var atBegin, atSave map[OID][]Value
	models := []map[OID][]Value{{}}
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
	// checkModel compares a version's scan and row count with a model.
	checkModel := func(step int, d *DB, m map[OID][]Value) {
		c, err := d.Table("C")
		if err != nil {
			t.Fatal(err)
		}
		oids := make([]OID, 0, len(m))
		for oid := range m {
			oids = append(oids, oid)
		}
		slices.Sort(oids)
		var got []OID
		c.Scan(func(r *Row) bool {
			if want, ok := m[r.OID]; !ok || !DeepEqual(&Coll{Elems: r.Vals}, &Coll{Elems: want}) {
				t.Fatalf("step %d (frozen=%v): row %d holds %v, model %v", step, d.frozen, r.OID, r.Vals, want)
			}
			got = append(got, r.OID)
			return true
		})
		if !slices.Equal(got, oids) || c.RowCount() != len(oids) {
			t.Fatalf("step %d (frozen=%v): scan visits %v (RowCount %d), model %v", step, d.frozen, got, c.RowCount(), oids)
		}
	}
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i]%9, script[i+1]
		switch op {
		case 0:
			vals := []Value{parentVal(arg), Num(arg)}
			oid, err := tab.Insert(vals)
			if err != nil {
				t.Fatal(err)
			}
			model[oid] = vals
		case 1:
			if r := pick(arg); r != nil {
				if _, err := tab.Delete(func(x *Row) (bool, error) { return x == r, nil }); err != nil {
					t.Fatal(err)
				}
				delete(model, r.OID)
			}
		case 2:
			if r := pick(arg); r != nil {
				if _, err := tab.UpdateWhere(
					func(x *Row) (bool, error) { return x == r, nil },
					func(vals []Value) ([]Value, error) { return []Value{parentVal(arg / 4), vals[1]}, nil },
				); err != nil {
					t.Fatal(err)
				}
				model[r.OID] = []Value{parentVal(arg / 4), r.Vals[1]}
			}
		case 3:
			if r := pick(arg); r != nil {
				vals := []Value{parentVal(arg / 4), Num(arg)}
				if err := tab.ReplaceByOID(r.OID, vals); err != nil {
					t.Fatal(err)
				}
				model[r.OID] = vals
			}
		case 4:
			if tx == nil {
				var err error
				if tx, err = db.Begin(); err != nil {
					t.Fatal(err)
				}
				atBegin = maps.Clone(model)
			}
		case 5:
			if tx != nil {
				if err := tx.Savepoint("sp"); err != nil {
					t.Fatal(err)
				}
				savepoint = true
				atSave = maps.Clone(model)
			}
		case 6:
			switch {
			case tx != nil && savepoint && arg%2 == 0:
				if err := tx.RollbackTo("sp"); err != nil {
					t.Fatal(err)
				}
				model = maps.Clone(atSave)
			case tx != nil:
				if err := tx.Rollback(); err != nil {
					t.Fatal(err)
				}
				tx, savepoint = nil, false
				model = atBegin
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
				models = append(models, maps.Clone(model))
			}
		case 8:
			// Two picks, possibly the same row: DeleteRows skips a row
			// listed twice.
			var rows []*Row
			for _, b := range []byte{arg, arg / 3} {
				if r := pick(b); r != nil {
					rows = append(rows, r)
				}
			}
			if _, err := tab.DeleteRows(rows); err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				delete(model, r.OID)
			}
		}
		check(i/2, db, db.Reader())
		checkModel(i/2, db, model)
	}
	// Published versions are immutable: later live mutations must not
	// have disturbed the buckets or the rows any of them captured.
	check(len(script)/2, versions...)
	for j, v := range versions {
		checkModel(len(script)/2, v, models[j])
	}
}
