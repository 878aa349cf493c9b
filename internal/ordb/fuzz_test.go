package ordb

import (
	"maps"
	"slices"
	"testing"
	"time"
)

// FuzzProbeMatchesScan drives an object table with an indexed REF,
// NUMBER, CHAR and DATE column through a byte-coded history of inserts,
// deletes (by predicate and by DeleteRows), updates, replaces,
// transactions, savepoints and publishes. After every step, and for every
// probe value, the probe must return the rows a filter scan comparing
// with SQL `=` returns, in the same order — on the live table and on the
// current published version; and at the end on every version published
// during the history. The values stress the indexes' key encoding: -0 and
// +0, strings with trailing blanks and with 0x00 and 0xFF bytes, and one
// instant held in two locations. A model of the table's contents, OID to
// values, checks the scans themselves: after every step the live scan
// visits the model's rows in OID order and RowCount is the model's size,
// and at the end every published version still holds its model at
// publish.
//
//	go test ./internal/ordb/ -run FuzzProbeMatchesScan -fuzz FuzzProbeMatchesScan
func FuzzProbeMatchesScan(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 4, 1, 1, 6, 0})                      // the rolled-back delete
	f.Add([]byte{0, 1, 0, 2, 7, 0, 2, 0, 3, 1, 7, 0, 0, 2})             // COW update and replace
	f.Add([]byte{0, 0, 0, 1, 4, 5, 3, 2, 1, 0, 0, 2, 6, 1, 7})          // savepoint rollback
	f.Add([]byte{0, 0, 0, 1, 0, 2, 7, 0, 4, 0, 8, 1, 6, 1, 8, 3, 7, 0}) // DeleteRows, rolled back and committed
	f.Add([]byte{0, 0, 0, 4, 7, 0, 0, 8, 3, 4})                         // -0 and +0 under one probe
	f.Add([]byte{0, 0, 0, 8, 0, 24, 0, 32, 0, 40, 7, 0, 8, 1, 7, 0})    // blank-padded, 0x00 and 0xFF strings
	f.Add([]byte{0, 0, 0, 16, 0, 32, 0, 48, 4, 0, 3, 16, 7, 0})         // one instant in two locations
	f.Fuzz(runProbeScanScript)
}

// probeCols are the indexed columns of runProbeScanScript's table after
// Parent, with the values a script stores in them and probes them for.
var (
	probeNums  = []Value{Num(0), Num(negZero()), Num(1), Num(-1), Num(0.5)}
	probeStrs  = []Value{Str("a"), Str("a  "), Str("a\x00"), Str("a\xff"), Str(""), Str("\xff\x00 ")}
	probeDates = func() []Value {
		t0 := time.Date(2024, 2, 29, 23, 30, 0, 0, time.UTC)
		return []Value{
			DateVal(t0),
			DateVal(t0.In(time.FixedZone("UTC+9", 9*3600))), // the same instant, the next day there
			DateVal(t0.Add(time.Nanosecond)),
			DateVal(t0.AddDate(0, 0, -1)),
		}
	}()
)

// runProbeScanScript plays one script: byte pairs of (operation, argument).
func runProbeScanScript(t *testing.T, script []byte) {
	if len(script) > 128 {
		script = script[:128]
	}
	db, tab, parents := refFixture(t,
		AttrDef{Name: "S", Type: CharType{Len: 6}},
		AttrDef{Name: "D", Type: DateType{}})
	for _, col := range []string{"N", "S", "D"} {
		if _, err := tab.CreateIndex("IX_C_"+col, col); err != nil {
			t.Fatal(err)
		}
	}
	keys := map[string][]Value{
		"Parent": {Ref{Table: "P", OID: 999}},
		"N":      append([]Value{Num(2)}, probeNums...),
		"S":      append([]Value{Str("a     "), Str("b")}, probeStrs...),
		"D":      probeDates,
	}
	for _, p := range parents {
		keys["Parent"] = append(keys["Parent"], p)
	}
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
	// rowVals are the values a script stores for argument b: its low
	// bits pick the parent and the higher ones the other columns.
	rowVals := func(b byte) []Value {
		return []Value{parentVal(b), probeNums[int(b>>2)%len(probeNums)],
			probeStrs[int(b>>3)%len(probeStrs)], probeDates[int(b>>4)%len(probeDates)]}
	}
	// stored conforms values as the table stores them (CHAR pads).
	stored := func(vals []Value) []Value {
		checked, err := tab.conformed(vals)
		if err != nil {
			t.Fatal(err)
		}
		return checked
	}
	check := func(step int, dbs ...*DB) {
		for _, d := range dbs {
			c, err := d.Table("C")
			if err != nil {
				t.Fatal(err)
			}
			for col, vals := range keys {
				for _, k := range vals {
					if msg := probeScanMismatch(c, col, k); msg != "" {
						t.Fatalf("step %d (frozen=%v): %s", step, d.frozen, msg)
					}
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
			vals := rowVals(arg)
			oid, err := tab.Insert(vals)
			if err != nil {
				t.Fatal(err)
			}
			model[oid] = stored(vals)
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
					func(vals []Value) ([]Value, error) {
						return append([]Value{parentVal(arg / 4)}, vals[1:]...), nil
					},
				); err != nil {
					t.Fatal(err)
				}
				model[r.OID] = append([]Value{parentVal(arg / 4)}, r.Vals[1:]...)
			}
		case 3:
			if r := pick(arg); r != nil {
				vals := rowVals(arg / 4)
				if err := tab.ReplaceByOID(r.OID, vals); err != nil {
					t.Fatal(err)
				}
				model[r.OID] = stored(vals)
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
	// have disturbed the index or row tries any of them captured.
	check(len(script)/2, versions...)
	for j, v := range versions {
		checkModel(len(script)/2, v, models[j])
	}
}
