package sql

import (
	"errors"
	"strings"
	"testing"

	"xmlordb/internal/ordb"
)

func newEngine(t *testing.T, mode ordb.Mode) *Engine {
	t.Helper()
	return NewEngine(ordb.New(mode))
}

func mustExec(t *testing.T, en *Engine, stmts ...string) {
	t.Helper()
	for _, s := range stmts {
		if _, err := en.Exec(s); err != nil {
			t.Fatalf("Exec(%s): %v", s, err)
		}
	}
}

func mustQuery(t *testing.T, en *Engine, q string) *Rows {
	t.Helper()
	rows, err := en.Query(q)
	if err != nil {
		t.Fatalf("Query(%s): %v", q, err)
	}
	return rows
}

// TestSection2ObjectTypes runs the paper's Section 2.1 examples verbatim.
func TestSection2ObjectTypes(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en,
		`CREATE TYPE Type_Professor AS OBJECT(
			PName VARCHAR(80),
			Subject VARCHAR(120))`,
		`CREATE TYPE Type_Course AS OBJECT(
			Name VARCHAR(100),
			Professor Type_Professor)`,
		`CREATE TABLE TabProfessor OF Type_Professor(
			PName PRIMARY KEY)`,
		`CREATE TABLE Course_Offering(
			Department VARCHAR(120),
			Course Type_Course)`,
		`INSERT INTO Course_Offering VALUES ('CS',
			Type_Course('CAD Intro', Type_Professor('Jaeger','CAD')))`,
	)
	rows := mustQuery(t, en, `SELECT c.Course.Professor.PName FROM Course_Offering c`)
	if len(rows.Data) != 1 || rows.Data[0][0] != ordb.Str("Jaeger") {
		t.Errorf("dot navigation = %v", rows.Data)
	}
	// Primary key enforcement on the object table.
	mustExec(t, en, `INSERT INTO TabProfessor VALUES ('Jaeger','CAD')`)
	if _, err := en.Exec(`INSERT INTO TabProfessor VALUES ('Jaeger','CAE')`); !errors.Is(err, ordb.ErrPrimaryKey) {
		t.Errorf("PK violation = %v", err)
	}
}

// TestSection2Collections runs the Section 2.2 examples.
func TestSection2Collections(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en,
		`CREATE TYPE TypeVA_Subject AS VARRAY(5) OF VARCHAR(200)`,
		`CREATE TYPE Type_TabSubject AS TABLE OF VARCHAR(200)`,
		`CREATE TABLE TabProfessor (
			Name VARCHAR(80),
			Subject Type_TabSubject)
			NESTED TABLE Subject STORE AS TabSubject_List`,
		`INSERT INTO TabProfessor VALUES ('Kudrass',
			Type_TabSubject('Database Systems','Operat. Systems'))`,
	)
	rows := mustQuery(t, en, `SELECT s.COLUMN_VALUE FROM TabProfessor p, TABLE(p.Subject) s`)
	if len(rows.Data) != 2 {
		t.Fatalf("unnested rows = %v", rows.Data)
	}
	if rows.Data[0][0] != ordb.Str("Database Systems") {
		t.Errorf("first subject = %v", rows.Data[0][0])
	}
}

// TestSection42NestedCollections runs the full Oracle 9i nested VARRAY
// schema and the big single INSERT of Section 4.2.
func TestSection42NestedCollections(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en,
		`CREATE TYPE TypeVA_Subject AS VARRAY(100) OF VARCHAR(4000)`,
		`CREATE TYPE Type_Professor AS OBJECT(
			attrPName VARCHAR(4000),
			attrSubject TypeVA_Subject,
			attrDept VARCHAR(4000))`,
		`CREATE TYPE TypeVA_Professor AS VARRAY(100) OF Type_Professor`,
		`CREATE TYPE Type_Course AS OBJECT(
			attrName VARCHAR(4000),
			attrProfessor TypeVA_Professor,
			attrCreditPts VARCHAR(4000))`,
		`CREATE TYPE TypeVA_Course AS VARRAY(100) OF Type_Course`,
		`CREATE TYPE Type_Student AS OBJECT(
			attrStudNr VARCHAR(4000),
			attrLName VARCHAR(4000),
			attrFName VARCHAR(4000),
			attrCourse TypeVA_Course)`,
		`CREATE TYPE TypeVA_Student AS VARRAY(100) OF Type_Student`,
		`CREATE TABLE TabUniversity(
			attrStudyCourse VARCHAR(4000),
			attrStudent TypeVA_Student)`,
		`INSERT INTO TabUniversity VALUES('Computer Science',
			TypeVA_Student(
				Type_Student('23374','Conrad','Matthias',
					TypeVA_Course(
						Type_Course('Database Systems II',
							TypeVA_Professor(
								Type_Professor('Kudrass',
									TypeVA_Subject('Database Systems','Operat. Systems'),
									'Computer Science')),'4'),
						Type_Course('CAD Intro',
							TypeVA_Professor(
								Type_Professor('Jaeger',
									TypeVA_Subject('CAD','CAE'),
									'Computer Science')),'4'))),
				Type_Student('00011','Meier','Ralf', TypeVA_Course())))`,
	)
	if got := en.DB().Stats().Inserts; got != 1 {
		t.Errorf("single-document load used %d INSERTs, want 1", got)
	}
	// The paper's Section 4.1 query adapted to the set-valued schema with
	// TABLE() unnesting: family names of students in a course of Jaeger.
	rows := mustQuery(t, en, `
		SELECT st.attrLName
		FROM TabUniversity u, TABLE(u.attrStudent) st,
		     TABLE(st.attrCourse) c, TABLE(c.attrProfessor) p
		WHERE p.attrPName = 'Jaeger'`)
	if len(rows.Data) != 1 || rows.Data[0][0] != ordb.Str("Conrad") {
		t.Errorf("Jaeger query = %v", rows.Data)
	}
}

// TestSection41SingleValuedDotQuery reproduces the Section 4.1 query
// verbatim on the single-valued variant of the schema.
func TestSection41SingleValuedDotQuery(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en,
		`CREATE TYPE Type_Professor AS OBJECT(
			attrPName VARCHAR(4000), attrSubject VARCHAR(4000), attrDept VARCHAR(4000))`,
		`CREATE TYPE Type_Course AS OBJECT(
			attrName VARCHAR(4000), attrProfessor Type_Professor, attrCreditPts VARCHAR(4000))`,
		`CREATE TYPE Type_Student AS OBJECT(
			attrStudNr VARCHAR(4000), attrLName VARCHAR(4000), attrFName VARCHAR(4000),
			attrCourse Type_Course)`,
		`CREATE TABLE TabUniversity(
			attrStudyCourse VARCHAR(4000), attrStudent Type_Student)`,
		`INSERT INTO TabUniversity VALUES ('Computer Science',
			Type_Student('23374','Conrad','Matthias',
				Type_Course('CAD Intro',
					Type_Professor('Jaeger','CAD','Computer Science'), '4')))`,
	)
	rows := mustQuery(t, en, `
		SELECT S.attrStudent.attrLName
		FROM TabUniversity S
		WHERE S.attrStudent.attrCourse.attrProfessor.attrPName = 'Jaeger'`)
	if len(rows.Data) != 1 || rows.Data[0][0] != ordb.Str("Conrad") {
		t.Errorf("paper query = %v", rows.Data)
	}
	// No joins were needed: a single row scan answers the query.
	rows2 := mustQuery(t, en, `
		SELECT S.attrStudent.attrLName FROM TabUniversity S
		WHERE S.attrStudent.attrCourse.attrProfessor.attrPName = 'Nobody'`)
	if len(rows2.Data) != 0 {
		t.Errorf("non-match = %v", rows2.Data)
	}
}

// TestSection43CheckConstraints reproduces the NOT NULL / CHECK behaviour
// of Section 4.3, including the non-desired error.
func TestSection43CheckConstraints(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en,
		`CREATE TYPE Type_Address AS OBJECT(
			attrStreet VARCHAR(4000), attrCity VARCHAR(4000))`,
		`CREATE TYPE Type_Course AS OBJECT(
			attrName VARCHAR(4000), attrAddress Type_Address)`,
		`CREATE TABLE TabCourse OF Type_Course(
			attrName NOT NULL,
			CHECK (attrAddress.attrStreet IS NOT NULL))`,
	)
	// Address missing the mandatory street: desired error.
	_, err := en.Exec(`INSERT INTO TabCourse VALUES('CAD Intro', Type_Address(NULL,'Leipzig'))`)
	if !errors.Is(err, ordb.ErrCheck) {
		t.Errorf("street-less insert = %v, want CHECK violation", err)
	}
	// No address at all: the paper's non-desired error message.
	_, err = en.Exec(`INSERT INTO TabCourse VALUES('Operating Systems', NULL)`)
	if !errors.Is(err, ordb.ErrCheck) {
		t.Errorf("NULL address insert = %v, want CHECK violation (paper's non-desired error)", err)
	}
	// NOT NULL on the simple attribute.
	_, err = en.Exec(`INSERT INTO TabCourse VALUES(NULL, Type_Address('Main','Leipzig'))`)
	if !errors.Is(err, ordb.ErrNotNull) {
		t.Errorf("NULL name insert = %v", err)
	}
	mustExec(t, en, `INSERT INTO TabCourse VALUES('DB II', Type_Address('Main','Leipzig'))`)
}

// TestSection62RecursionScript runs the forward-declaration pattern of
// Section 6.2 and DROP FORCE.
func TestSection62RecursionScript(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en,
		`CREATE TYPE Type_Professor`,
		`CREATE TYPE TabRefProfessor AS TABLE OF REF Type_Professor`,
		`CREATE TYPE Type_Dept AS OBJECT(
			attrDName VARCHAR(4000),
			attrProfessor TabRefProfessor)`,
		`CREATE TYPE Type_Professor AS OBJECT(
			attrPName VARCHAR(4000),
			attrDept Type_Dept)`,
		`CREATE TABLE TabProfessor OF Type_Professor`,
	)
	res, err := en.Exec(`INSERT INTO TabProfessor VALUES('Kudrass',
		Type_Dept('CS', TabRefProfessor()))`)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if res.LastOID == 0 {
		t.Fatal("no OID assigned")
	}
	// DROP without FORCE fails; FORCE cascades.
	if _, err := en.Exec(`DROP TYPE Type_Dept`); !errors.Is(err, ordb.ErrDependentTypes) {
		t.Errorf("drop without force = %v", err)
	}
	if _, err := en.Exec(`DROP TYPE Type_Dept FORCE`); err != nil {
		t.Errorf("drop force = %v", err)
	}
	if _, err := en.DB().Table("TabProfessor"); !errors.Is(err, ordb.ErrNotFound) {
		t.Errorf("dependent table survived: %v", err)
	}
}

// TestSection63ObjectView builds the relational schema + object view with
// CAST(MULTISET()) of Section 6.3.
func TestSection63ObjectView(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en,
		`CREATE TYPE TypeVA_Subject AS VARRAY(100) OF VARCHAR(4000)`,
		`CREATE TYPE Type_Professor AS OBJECT(
			attrPName VARCHAR(4000), attrSubject TypeVA_Subject, attrDept VARCHAR(4000))`,
		// Shredded relational tables with manual keys.
		`CREATE TABLE tabProfessor (
			IDProfessor INTEGER PRIMARY KEY,
			attrPName VARCHAR(4000),
			attrDept VARCHAR(4000))`,
		`CREATE TABLE tabSubject (
			IDSubject INTEGER PRIMARY KEY,
			IDProfessor INTEGER,
			attrSubject VARCHAR(4000))`,
		`INSERT INTO tabProfessor VALUES (1, 'Kudrass', 'CS')`,
		`INSERT INTO tabSubject VALUES (1, 1, 'Database Systems')`,
		`INSERT INTO tabSubject VALUES (2, 1, 'Operat. Systems')`,
		`INSERT INTO tabProfessor VALUES (2, 'Jaeger', 'CS')`,
		`INSERT INTO tabSubject VALUES (3, 2, 'CAD')`,
		`CREATE VIEW OView_Professor AS
			SELECT Type_Professor(p.attrPName,
				CAST(MULTISET(SELECT s.attrSubject FROM tabSubject s
					WHERE p.IDProfessor = s.IDProfessor) AS TypeVA_Subject),
				p.attrDept) AS Professor
			FROM tabProfessor p`,
	)
	rows := mustQuery(t, en, `SELECT * FROM OView_Professor`)
	if len(rows.Data) != 2 {
		t.Fatalf("view rows = %d", len(rows.Data))
	}
	obj, ok := rows.Data[0][0].(*ordb.Object)
	if !ok {
		t.Fatalf("view row = %T", rows.Data[0][0])
	}
	if obj.Attrs[0] != ordb.Str("Kudrass") {
		t.Errorf("name = %v", obj.Attrs[0])
	}
	subjects := obj.Attrs[1].(*ordb.Coll)
	if len(subjects.Elems) != 2 {
		t.Errorf("subjects = %v", subjects.Elems)
	}
	// Navigate into view output.
	rows2 := mustQuery(t, en, `SELECT v.Professor.attrPName FROM OView_Professor v WHERE v.Professor.attrDept = 'CS'`)
	if len(rows2.Data) != 2 {
		t.Errorf("view navigation rows = %v", rows2.Data)
	}
}

func TestJoinQuery(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en,
		`CREATE TABLE a (id INTEGER, name VARCHAR(100))`,
		`CREATE TABLE b (id INTEGER, aid INTEGER, val VARCHAR(100))`,
		`INSERT INTO a VALUES (1, 'one')`,
		`INSERT INTO a VALUES (2, 'two')`,
		`INSERT INTO b VALUES (10, 1, 'x')`,
		`INSERT INTO b VALUES (11, 1, 'y')`,
		`INSERT INTO b VALUES (12, 2, 'z')`,
	)
	rows := mustQuery(t, en, `SELECT a.name, b.val FROM a, b WHERE a.id = b.aid AND a.name = 'one'`)
	if len(rows.Data) != 2 {
		t.Fatalf("join rows = %v", rows.Data)
	}
	if rows.Cols[0] != "name" || rows.Cols[1] != "val" {
		t.Errorf("cols = %v", rows.Cols)
	}
}

func TestCountStar(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en, `CREATE TABLE t (x INTEGER)`)
	for i := 0; i < 5; i++ {
		mustExec(t, en, `INSERT INTO t VALUES (1)`)
	}
	mustExec(t, en, `INSERT INTO t VALUES (2)`)
	rows := mustQuery(t, en, `SELECT COUNT(*) FROM t WHERE x = 1`)
	if rows.Data[0][0] != ordb.Num(5) {
		t.Errorf("count = %v", rows.Data[0][0])
	}
}

func TestRefAndDeref(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en,
		`CREATE TYPE Type_Professor AS OBJECT(PName VARCHAR(80), Subject VARCHAR(120))`,
		`CREATE TYPE Type_Course AS OBJECT(Name VARCHAR(200), Prof_Ref REF Type_Professor)`,
		`CREATE TABLE TabProfessor OF Type_Professor`,
		`CREATE TABLE TabCourse OF Type_Course`,
	)
	res, err := en.Exec(`INSERT INTO TabProfessor VALUES ('Jaeger','CAD')`)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// REF() in a correlated insert-select style: use SELECT to fetch a ref.
	rows := mustQuery(t, en, `SELECT REF(p) FROM TabProfessor p WHERE p.PName = 'Jaeger'`)
	ref, ok := rows.Data[0][0].(ordb.Ref)
	if !ok {
		t.Fatalf("REF() = %T", rows.Data[0][0])
	}
	tab, _ := en.DB().Table("TabCourse")
	if _, err := tab.Insert([]ordb.Value{ordb.Str("CAD Intro"), ref}); err != nil {
		t.Fatalf("insert ref: %v", err)
	}
	rows2 := mustQuery(t, en, `SELECT DEREF(c.Prof_Ref) FROM TabCourse c`)
	obj := rows2.Data[0][0].(*ordb.Object)
	if obj.Attrs[0] != ordb.Str("Jaeger") {
		t.Errorf("deref = %v", obj.Attrs[0])
	}
	// Dot navigation through a REF column.
	rows3 := mustQuery(t, en, `SELECT c.Prof_Ref.PName FROM TabCourse c`)
	if rows3.Data[0][0] != ordb.Str("Jaeger") {
		t.Errorf("ref navigation = %v", rows3.Data[0][0])
	}
	// VALUE() of an object table row.
	rows4 := mustQuery(t, en, `SELECT VALUE(p) FROM TabProfessor p`)
	if _, ok := rows4.Data[0][0].(*ordb.Object); !ok {
		t.Errorf("VALUE() = %T", rows4.Data[0][0])
	}
}

func TestScopeForClause(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en,
		`CREATE TYPE Type_P AS OBJECT(a VARCHAR(10))`,
		`CREATE TABLE TabA OF Type_P`,
		`CREATE TABLE TabB OF Type_P`,
		`CREATE TABLE TabScoped (r REF Type_P SCOPE FOR (TabA))`,
		`INSERT INTO TabA VALUES ('x')`,
		`INSERT INTO TabB VALUES ('y')`,
	)
	refA := mustQuery(t, en, `SELECT REF(p) FROM TabA p`).Data[0][0]
	refB := mustQuery(t, en, `SELECT REF(p) FROM TabB p`).Data[0][0]
	tab, _ := en.DB().Table("TabScoped")
	if _, err := tab.Insert([]ordb.Value{refA}); err != nil {
		t.Errorf("in-scope: %v", err)
	}
	if _, err := tab.Insert([]ordb.Value{refB}); !errors.Is(err, ordb.ErrScope) {
		t.Errorf("out-of-scope = %v", err)
	}
}

func TestInsertWithColumnList(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en,
		`CREATE TABLE t (a VARCHAR(10), b VARCHAR(10), c VARCHAR(10))`,
		`INSERT INTO t (c, a) VALUES ('cc', 'aa')`,
	)
	rows := mustQuery(t, en, `SELECT * FROM t`)
	want := []ordb.Value{ordb.Str("aa"), ordb.Null{}, ordb.Str("cc")}
	for i, w := range want {
		if !ordb.DeepEqual(rows.Data[0][i], w) {
			t.Errorf("col %d = %v, want %v", i, rows.Data[0][i], w)
		}
	}
}

func TestDeleteWhere(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en, `CREATE TABLE t (x INTEGER)`)
	for i := 1; i <= 4; i++ {
		mustExec(t, en, `INSERT INTO t VALUES (`+string(rune('0'+i))+`)`)
	}
	res, err := en.Exec(`DELETE FROM t WHERE x > 2`)
	if err != nil || res.RowsAffected != 2 {
		t.Fatalf("delete = %+v, %v", res, err)
	}
	rows := mustQuery(t, en, `SELECT COUNT(*) FROM t`)
	if rows.Data[0][0] != ordb.Num(2) {
		t.Errorf("remaining = %v", rows.Data[0][0])
	}
	res, _ = en.Exec(`DELETE FROM t`)
	if res.RowsAffected != 2 {
		t.Errorf("delete all = %d", res.RowsAffected)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en,
		`CREATE TABLE t (a VARCHAR(10), b VARCHAR(10))`,
		`INSERT INTO t VALUES ('x', NULL)`,
	)
	// NULL comparison never matches.
	if rows := mustQuery(t, en, `SELECT a FROM t WHERE b = 'y'`); len(rows.Data) != 0 {
		t.Error("NULL = 'y' matched")
	}
	if rows := mustQuery(t, en, `SELECT a FROM t WHERE b != 'y'`); len(rows.Data) != 0 {
		t.Error("NULL != 'y' matched")
	}
	if rows := mustQuery(t, en, `SELECT a FROM t WHERE b IS NULL`); len(rows.Data) != 1 {
		t.Error("IS NULL missed")
	}
	if rows := mustQuery(t, en, `SELECT a FROM t WHERE b IS NOT NULL`); len(rows.Data) != 0 {
		t.Error("IS NOT NULL matched")
	}
	// NOT (NULL) is UNKNOWN.
	if rows := mustQuery(t, en, `SELECT a FROM t WHERE NOT (b = 'y')`); len(rows.Data) != 0 {
		t.Error("NOT UNKNOWN matched")
	}
	// OR with definite true short-circuits past NULL.
	if rows := mustQuery(t, en, `SELECT a FROM t WHERE b = 'y' OR a = 'x'`); len(rows.Data) != 1 {
		t.Error("UNKNOWN OR TRUE missed")
	}
	// AND with definite false is false.
	if rows := mustQuery(t, en, `SELECT a FROM t WHERE b = 'y' AND a = 'zzz'`); len(rows.Data) != 0 {
		t.Error("UNKNOWN AND FALSE matched")
	}
}

func TestLikeOperator(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en,
		`CREATE TABLE t (s VARCHAR(100))`,
		`INSERT INTO t VALUES ('Database Systems')`,
		`INSERT INTO t VALUES ('Operating Systems')`,
		`INSERT INTO t VALUES ('CAD')`,
	)
	if rows := mustQuery(t, en, `SELECT s FROM t WHERE s LIKE '%Systems'`); len(rows.Data) != 2 {
		t.Errorf("LIKE suffix = %v", rows.Data)
	}
	if rows := mustQuery(t, en, `SELECT s FROM t WHERE s LIKE 'C_D'`); len(rows.Data) != 1 {
		t.Errorf("LIKE underscore = %v", rows.Data)
	}
	if rows := mustQuery(t, en, `SELECT s FROM t WHERE s LIKE 'Data%'`); len(rows.Data) != 1 {
		t.Errorf("LIKE prefix = %v", rows.Data)
	}
}

func TestConcatAndArithmeticLiterals(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en, `CREATE TABLE t (a VARCHAR(10))`, `INSERT INTO t VALUES ('x')`)
	rows := mustQuery(t, en, `SELECT a || '-suffix' FROM t`)
	if rows.Data[0][0] != ordb.Str("x-suffix") {
		t.Errorf("concat = %v", rows.Data[0][0])
	}
}

func TestExistsSubquery(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en,
		`CREATE TABLE a (id INTEGER)`,
		`CREATE TABLE b (aid INTEGER)`,
		`INSERT INTO a VALUES (1)`,
		`INSERT INTO a VALUES (2)`,
		`INSERT INTO b VALUES (1)`,
	)
	rows := mustQuery(t, en, `SELECT a.id FROM a WHERE EXISTS (SELECT b.aid FROM b WHERE b.aid = a.id)`)
	if len(rows.Data) != 1 || rows.Data[0][0] != ordb.Num(1) {
		t.Errorf("EXISTS = %v", rows.Data)
	}
}

func TestReservedWordIdentifierRejected(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	// An XML element named ORDER cannot become a table name — Section 5's
	// motivation for the Tab prefix.
	_, err := en.Exec(`CREATE TABLE Order (x INTEGER)`)
	if err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Errorf("reserved table name = %v", err)
	}
	if !IsReservedWord("order") || !IsReservedWord("SELECT") || IsReservedWord("TabOrder") {
		t.Error("IsReservedWord misclassifies")
	}
}

func TestExecScript(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	script := `
-- schema for professors
CREATE TYPE Type_P AS OBJECT(a VARCHAR(10)); /* object type */
CREATE TABLE TabP OF Type_P;
INSERT INTO TabP VALUES ('x');
INSERT INTO TabP VALUES ('y');
`
	n, err := en.ExecScript(script)
	if err != nil {
		t.Fatalf("ExecScript: %v", err)
	}
	if n != 4 {
		t.Errorf("statements = %d", n)
	}
	tab, _ := en.DB().Table("TabP")
	if tab.RowCount() != 2 {
		t.Errorf("rows = %d", tab.RowCount())
	}
	// Semicolons inside string literals must not split.
	mustExec(t, en, `CREATE TABLE t (s VARCHAR(100))`)
	if _, err := en.ExecScript(`INSERT INTO t VALUES ('a;b');`); err != nil {
		t.Errorf("semicolon in literal: %v", err)
	}
	rows := mustQuery(t, en, `SELECT s FROM t`)
	if rows.Data[0][0] != ordb.Str("a;b") {
		t.Errorf("value = %v", rows.Data[0][0])
	}
}

func TestExecScriptAbortsOnError(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	_, err := en.ExecScript(`CREATE TABLE t (x INTEGER); BOGUS STATEMENT; CREATE TABLE u (y INTEGER);`)
	if err == nil {
		t.Fatal("expected error")
	}
	if _, terr := en.DB().Table("t"); terr != nil {
		t.Error("statement before error not executed")
	}
	if _, terr := en.DB().Table("u"); terr == nil {
		t.Error("statement after error executed")
	}
}

func TestOracle8ModeThroughSQL(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle8)
	mustExec(t, en, `CREATE TYPE TypeVA_S AS VARRAY(5) OF VARCHAR(200)`)
	_, err := en.Exec(`CREATE TYPE TypeVA_N AS VARRAY(5) OF TypeVA_S`)
	if !errors.Is(err, ordb.ErrNestedCollection) {
		t.Errorf("Oracle8 nested collection = %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	for _, src := range []string{
		`CREATE`,
		`CREATE TYPE`,
		`CREATE TYPE t AS`,
		`CREATE TABLE t`,
		`CREATE TABLE t ()`,
		`SELECT FROM t`,
		`SELECT a FROM`,
		`INSERT t VALUES (1)`,
		`INSERT INTO t VALUES`,
		`DROP`,
		`DROP TYPE`,
		`SELECT a FROM t WHERE`,
		`SELECT a FROM t; extra`,
		`CREATE TYPE t AS VARRAY(x) OF VARCHAR(10)`,
		`'unterminated`,
	} {
		if _, err := en.Exec(src); err == nil {
			if _, qerr := en.Query(src); qerr == nil {
				t.Errorf("no error for %q", src)
			}
		}
	}
}

func TestQueryVsExecDispatch(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en, `CREATE TABLE t (x INTEGER)`)
	if _, err := en.Exec(`SELECT * FROM t`); err == nil {
		t.Error("Exec must reject SELECT")
	}
	if _, err := en.Query(`DELETE FROM t`); err == nil {
		t.Error("Query must reject non-SELECT")
	}
}

func TestRowsString(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en,
		`CREATE TABLE t (name VARCHAR(20), n INTEGER)`,
		`INSERT INTO t VALUES ('alpha', 1)`,
		`INSERT INTO t VALUES ('b', 22)`,
	)
	s := mustQuery(t, en, `SELECT * FROM t`).String()
	for _, want := range []string{"name", "alpha", "22"} {
		if !strings.Contains(s, want) {
			t.Errorf("table dump missing %q:\n%s", want, s)
		}
	}
}

func TestFormatExprRoundTrip(t *testing.T) {
	exprs := []string{
		`(a.b.c = 'x')`,
		`(a IS NOT NULL AND (b = 1))`,
		`Type_P('x', NULL, 3)`,
		`(name LIKE 'pre%')`,
		`CAST(MULTISET(SELECT s.x FROM t s WHERE (s.y = p.z)) AS TypeVA_X)`,
	}
	for _, src := range exprs {
		toks, err := lex(src)
		if err != nil {
			t.Fatalf("lex(%q): %v", src, err)
		}
		p := &parser{toks: toks, src: src}
		e, err := p.parseExpr()
		if err != nil {
			t.Fatalf("parse(%q): %v", src, err)
		}
		formatted := FormatExpr(e)
		// The formatted text must itself re-parse.
		toks2, err := lex(formatted)
		if err != nil {
			t.Fatalf("re-lex(%q): %v", formatted, err)
		}
		p2 := &parser{toks: toks2, src: formatted}
		if _, err := p2.parseExpr(); err != nil {
			t.Errorf("FormatExpr output %q does not re-parse: %v", formatted, err)
		}
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"abc", "abc", true},
		{"abc", "a%", true},
		{"abc", "%c", true},
		{"abc", "%b%", true},
		{"abc", "a_c", true},
		{"abc", "a_b", false},
		{"abc", "", false},
		{"", "%", true},
		{"", "_", false},
		{"aXbXc", "a%b%c", true},
		{"mississippi", "%iss%pi", true},
		{"mississippi", "m%iss%ppx", false},
		{"", "%%", true},
		{"abcabd", "%ab_", true},
		{"abcabc", "%abd%", false},
		{"aaab", "%a%ab", true},
		{"a%b", "a_b", true},
		{"ab", "a%%b%", true},
	}
	for _, tc := range cases {
		if got := likeMatch(tc.s, tc.p); got != tc.want {
			t.Errorf("likeMatch(%q,%q) = %v", tc.s, tc.p, got)
		}
		if got := likeMatchDP(tc.s, tc.p); got != tc.want {
			t.Errorf("likeMatchDP(%q,%q) = %v", tc.s, tc.p, got)
		}
	}
	if n := testing.AllocsPerRun(100, func() { likeMatch("mississippi", "m%iss%pi") }); n != 0 {
		t.Errorf("likeMatch allocates %.0f times per call", n)
	}
}

func TestCharComparisonIgnoresPadding(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	mustExec(t, en,
		`CREATE TABLE t (c CHAR(5))`,
		`INSERT INTO t VALUES ('ab')`,
	)
	rows := mustQuery(t, en, `SELECT c FROM t WHERE c = 'ab'`)
	if len(rows.Data) != 1 {
		t.Error("CHAR padding broke comparison")
	}
}
