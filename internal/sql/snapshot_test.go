package sql

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"xmlordb/internal/ordb"
)

// buildRichEngine creates a catalog exercising every DDL regeneration
// path: forward-declared recursive types, collections, REF + SCOPE FOR,
// PRIMARY KEY, NOT NULL, CHECK constraints, nested-table storage, views
// and every scalar kind.
func buildRichEngine(t *testing.T) *Engine {
	t.Helper()
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en,
		`CREATE TYPE Type_Professor`,
		`CREATE TYPE TabRefProfessor AS TABLE OF REF Type_Professor`,
		`CREATE TYPE Type_Dept AS OBJECT(
			attrDName VARCHAR(100),
			attrProfessor TabRefProfessor)`,
		`CREATE TYPE Type_Professor AS OBJECT(
			attrPName VARCHAR(100),
			attrDept Type_Dept)`,
		`CREATE TYPE TypeVA_Tag AS VARRAY(10) OF VARCHAR(50)`,
		`CREATE TABLE TabProfessor OF Type_Professor(
			attrPName NOT NULL)`,
		`CREATE TABLE Facts(
			id INTEGER PRIMARY KEY,
			label CHAR(8),
			score NUMBER,
			seen DATE,
			notes CLOB,
			tags TypeVA_Tag,
			boss REF Type_Professor SCOPE FOR (TabProfessor),
			CHECK (score > 0))`,
		`CREATE TYPE Type_TabNote AS TABLE OF VARCHAR(200)`,
		`CREATE TABLE Noted(
			n Type_TabNote)
			NESTED TABLE n STORE AS NoteStore`,
		`CREATE VIEW V AS SELECT f.id FROM Facts f`,
	)
	mustExec(t, en, `INSERT INTO TabProfessor VALUES ('Kudrass', Type_Dept('CS', TabRefProfessor()))`)
	ref := mustQuery(t, en, `SELECT REF(p) FROM TabProfessor p`).Data[0][0]
	tab, _ := en.DB().Table("Facts")
	if _, err := tab.Insert([]ordb.Value{
		ordb.Num(1), ordb.Str("lbl"), ordb.Num(3.5), ordb.Str("2002-03-25"),
		ordb.Str("some notes"), &ordb.Coll{Elems: []ordb.Value{ordb.Str("x"), ordb.Str("y")}}, ref,
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, en, `INSERT INTO Noted VALUES (Type_TabNote('a','b'))`)
	return en
}

func TestSnapshotRoundTrip(t *testing.T) {
	en := buildRichEngine(t)
	var buf bytes.Buffer
	if err := en.SaveSnapshot(&buf); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	restored, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	// Catalog counts agree.
	t1, tb1, v1, s1 := en.DB().SchemaObjectCount()
	t2, tb2, v2, s2 := restored.DB().SchemaObjectCount()
	if t1 != t2 || tb1 != tb2 || v1 != v2 || s1 != s2 {
		t.Errorf("catalog mismatch: %d/%d/%d/%d vs %d/%d/%d/%d", t1, tb1, v1, s1, t2, tb2, v2, s2)
	}
	// Data survives, including REF navigation and DATE values.
	rows := mustQuery(t, restored, `SELECT f.boss.attrPName, f.seen, f.score FROM Facts f`)
	if rows.Data[0][0] != ordb.Str("Kudrass") {
		t.Errorf("REF after restore = %v", rows.Data[0][0])
	}
	if _, ok := rows.Data[0][1].(ordb.DateVal); !ok {
		t.Errorf("DATE after restore = %T", rows.Data[0][1])
	}
	// Constraints still enforce: duplicate PK and CHECK violation.
	if _, err := restored.Exec(`INSERT INTO Facts VALUES (1,'a',2,NULL,NULL,NULL,NULL)`); err == nil {
		t.Error("PK not restored")
	}
	if _, err := restored.Exec(`INSERT INTO Facts VALUES (2,'a',-1,NULL,NULL,NULL,NULL)`); err == nil {
		t.Error("CHECK not restored")
	}
	// NOT NULL on the object table.
	if _, err := restored.Exec(`INSERT INTO TabProfessor VALUES (NULL, NULL)`); err == nil {
		t.Error("NOT NULL not restored")
	}
	// The view still answers.
	vrows := mustQuery(t, restored, `SELECT * FROM V`)
	if len(vrows.Data) != 1 {
		t.Errorf("view rows = %d", len(vrows.Data))
	}
	// SCOPE FOR survives: a ref into the wrong table is rejected.
	mustExec(t, restored, `CREATE TABLE TabOther OF Type_Professor`)
	mustExec(t, restored, `INSERT INTO TabOther VALUES ('X', NULL)`)
	other := mustQuery(t, restored, `SELECT REF(p) FROM TabOther p`).Data[0][0]
	facts, _ := restored.DB().Table("Facts")
	if _, err := facts.Insert([]ordb.Value{
		ordb.Num(3), ordb.Str("l"), ordb.Num(1), ordb.Null{}, ordb.Null{}, ordb.Null{}, other,
	}); err == nil {
		t.Error("SCOPE FOR not restored")
	}
}

func TestSnapshotOIDContinuity(t *testing.T) {
	en := buildRichEngine(t)
	var buf bytes.Buffer
	if err := en.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// New object rows get OIDs beyond every restored one.
	res, err := restored.Exec(`INSERT INTO TabProfessor VALUES ('New', NULL)`)
	if err != nil {
		t.Fatal(err)
	}
	old := mustQuery(t, restored, `SELECT REF(p) FROM TabProfessor p WHERE p.attrPName = 'Kudrass'`)
	oldRef := old.Data[0][0].(ordb.Ref)
	if res.LastOID <= oldRef.OID {
		t.Errorf("new OID %d not beyond restored OID %d", res.LastOID, oldRef.OID)
	}
}

func TestSnapshotEmptyEngine(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle8)
	var buf bytes.Buffer
	if err := en.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.DB().Mode() != ordb.ModeOracle8 {
		t.Errorf("mode = %v", restored.DB().Mode())
	}
}

func TestLoadSnapshotGarbage(t *testing.T) {
	if _, err := LoadSnapshot(strings.NewReader("junk")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestTableDDLRendering(t *testing.T) {
	en := buildRichEngine(t)
	tab, _ := en.DB().Table("Facts")
	ddl := TableDDL(tab)
	for _, want := range []string{
		"id INTEGER PRIMARY KEY",
		"label CHAR(8)",
		"seen DATE",
		"notes CLOB",
		"boss REF Type_Professor SCOPE FOR (TabProfessor)",
		"CHECK (",
	} {
		if !strings.Contains(ddl, want) {
			t.Errorf("TableDDL missing %q:\n%s", want, ddl)
		}
	}
	noted, _ := en.DB().Table("Noted")
	// Storage-clause column keys are normalized to upper case; the SQL
	// remains valid because identifiers are case-insensitive.
	if !strings.Contains(TableDDL(noted), "NESTED TABLE N STORE AS NoteStore") {
		t.Errorf("storage clause missing:\n%s", TableDDL(noted))
	}
}

func TestParseDateLiteralHelper(t *testing.T) {
	if _, err := ParseDateLiteral("2002-03-25"); err != nil {
		t.Errorf("good date: %v", err)
	}
	if _, err := ParseDateLiteral("nope"); err == nil {
		t.Error("bad date accepted")
	}
	// And through the parser/evaluator.
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en,
		`CREATE TABLE t (d DATE)`,
		`INSERT INTO t VALUES (DATE '2002-03-25')`,
	)
	rows := mustQuery(t, en, `SELECT d FROM t WHERE d = DATE '2002-03-25'`)
	if len(rows.Data) != 1 {
		t.Errorf("date literal comparison failed")
	}
}

// TestSnapshotRestoresIndexes: CREATE INDEX and DROP INDEX are part of
// the catalog a snapshot carries. The reloaded tables list the same
// indexes — including a dropped automatic index's name reused on another
// table created before it — and the planner picks the same access paths.
func TestSnapshotRestoresIndexes(t *testing.T) {
	en := buildRichEngine(t)
	mustExec(t, en,
		`CREATE INDEX IX_Label ON Facts (label)`,
		`DROP INDEX IX_Facts_boss`,
		`CREATE INDEX IX_Facts_boss ON TabProfessor (attrPName)`,
	)
	var buf bytes.Buffer
	if err := en.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range en.DB().TableNames() {
		live, _ := en.DB().Table(name)
		back, err := restored.DB().Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(back.Indexes()), fmt.Sprint(live.Indexes()); got != want {
			t.Errorf("%s indexes after reload = %s, want %s", name, got, want)
		}
	}
	facts, _ := restored.DB().Table("Facts")
	if fmt.Sprint(facts.Indexes()) != "[{IX_Facts_id id} {IX_Label label}]" {
		t.Errorf("Facts indexes = %v", facts.Indexes())
	}
	for _, q := range []string{
		`EXPLAIN SELECT f.id FROM Facts f WHERE f.label = 'lbl'`,
		`EXPLAIN SELECT f.id FROM Facts f WHERE f.score = 3.5`,
		`EXPLAIN SELECT p.attrPName FROM TabProfessor p WHERE p.attrPName = 'Kudrass'`,
	} {
		if got, want := fmt.Sprint(mustQuery(t, restored, q).Data), fmt.Sprint(mustQuery(t, en, q).Data); got != want {
			t.Errorf("%s after reload:\n%s\nwant\n%s", q, got, want)
		}
	}
	// The explicit index is maintained by the restored rows.
	if rows, ok := facts.ProbeEqual("label", ordb.Str("lbl")); !ok || len(rows) != 1 {
		t.Errorf("probe of restored explicit index: %d rows, ok=%v", len(rows), ok)
	}
}
