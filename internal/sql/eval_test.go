package sql

import (
	"fmt"
	"testing"

	"xmlordb/internal/ordb"
)

// TestObjectTableScanAllocations: binding an object-table row allocates
// nothing, so COUNT(*) over the table costs the same at 400 rows as at
// 100; VALUE() still boxes a fresh object per read.
func TestObjectTableScanAllocations(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en,
		`CREATE TYPE Type_Prof AS OBJECT(PName VARCHAR(80), Dept VARCHAR(80))`,
		`CREATE TABLE TabProf OF Type_Prof`,
	)
	insert := func(from, to int) {
		for i := from; i < to; i++ {
			mustExec(t, en, fmt.Sprintf(`INSERT INTO TabProf VALUES ('P%d', 'CS')`, i))
		}
	}
	count := func() float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := en.Query(`SELECT COUNT(*) FROM TabProf p WHERE p.Dept LIKE 'C%'`); err != nil {
				t.Fatal(err)
			}
		})
	}
	insert(0, 100)
	small := count()
	insert(100, 400)
	if large := count(); large > small {
		t.Errorf("COUNT(*) allocations grew from %.0f at 100 rows to %.0f at 400", small, large)
	}

	rows := mustQuery(t, en, `SELECT VALUE(p), VALUE(p) FROM TabProf p WHERE p.PName = 'P7'`)
	if len(rows.Data) != 1 {
		t.Fatalf("VALUE rows = %v", rows.Data)
	}
	a, b := rows.Data[0][0].(*ordb.Object), rows.Data[0][1].(*ordb.Object)
	if a == b {
		t.Error("two VALUE() reads of one row share an object")
	}
	if ordb.FormatValue(a) != "Type_Prof('P7', 'CS')" || ordb.FormatValue(b) != ordb.FormatValue(a) {
		t.Errorf("VALUE(p) = %s, %s", ordb.FormatValue(a), ordb.FormatValue(b))
	}
}

// TestDateLiteralParsedOnce: a valid DATE literal is boxed by the
// parser; a malformed one still parses and fails only when evaluated,
// with the error text of ParseDateLiteral, so a query over an empty
// table succeeds.
func TestDateLiteralParsedOnce(t *testing.T) {
	stmt, err := ParseStatement(`SELECT d FROM t WHERE d = DATE '2002-03-25'`)
	if err != nil {
		t.Fatal(err)
	}
	lit := stmt.(*SelectStmt).Where.(*Binary).R.(*Lit)
	want, _ := ParseDateLiteral("2002-03-25")
	if lit.Val != want {
		t.Errorf("parsed DATE literal value = %#v, want %#v", lit.Val, want)
	}

	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en, `CREATE TABLE t (d DATE)`)
	const bad = `SELECT d FROM t WHERE d = DATE '2002-13-45'`
	if rows := mustQuery(t, en, bad); len(rows.Data) != 0 {
		t.Errorf("empty table: %v", rows.Data)
	}
	mustExec(t, en, `INSERT INTO t VALUES (DATE '2002-03-25')`)
	_, wantErr := ParseDateLiteral("2002-13-45")
	if _, err := en.Query(bad); err == nil || err.Error() != wantErr.Error() {
		t.Errorf("malformed DATE literal: err = %v, want %v", err, wantErr)
	}
	if rows := mustQuery(t, en, `SELECT d FROM t WHERE d = DATE '2002-03-25'`); len(rows.Data) != 1 {
		t.Errorf("valid DATE literal matched %d rows, want 1", len(rows.Data))
	}
}
