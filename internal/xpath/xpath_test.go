package xpath

import (
	"strings"
	"testing"

	"xmlordb/internal/dtd"
	"xmlordb/internal/loader"
	"xmlordb/internal/mapping"
	"xmlordb/internal/ordb"
	"xmlordb/internal/sql"
	"xmlordb/internal/workload"
)

func TestParsePath(t *testing.T) {
	p, err := ParsePath(`/University/Student[@StudNr="23374"]/Course[Name='CAD Intro']/CreditPts`)
	if err != nil {
		t.Fatalf("ParsePath: %v", err)
	}
	if len(p.Steps) != 4 {
		t.Fatalf("steps = %d", len(p.Steps))
	}
	if p.Steps[1].Preds[0].Attr != "StudNr" || p.Steps[1].Preds[0].Value != "23374" {
		t.Errorf("pred = %+v", p.Steps[1].Preds[0])
	}
	if p.Steps[2].Preds[0].Child != "Name" || p.Steps[2].Preds[0].Value != "CAD Intro" {
		t.Errorf("pred = %+v", p.Steps[2].Preds[0])
	}
}

func TestParsePathAttrSelector(t *testing.T) {
	p, err := ParsePath(`/University/Student/@StudNr`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Attr != "StudNr" || len(p.Steps) != 2 {
		t.Errorf("path = %+v", p)
	}
}

func TestParsePathPositional(t *testing.T) {
	p, err := ParsePath(`/a/b[2]`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Steps[1].Preds[0].Pos != 2 {
		t.Errorf("pos = %+v", p.Steps[1].Preds[0])
	}
}

// parseErrorPaths are outside the supported grammar.
var parseErrorPaths = []string{
	``, `relative/path`, `/a/@x/b`, `/a[`, `/a[@x]`, `/a[@x=unquoted]`,
	`/a[@x='unterminated`, `/a[0]`, `//a`,
}

func TestParseErrors(t *testing.T) {
	for _, src := range parseErrorPaths {
		if _, err := ParsePath(src); err == nil {
			t.Errorf("ParsePath(%q) should fail", src)
		}
	}
}

func setup(t testing.TB) (*mapping.Schema, *sql.Engine) {
	t.Helper()
	d := dtd.MustParse("University", workload.UniversityDTD)
	tree, err := dtd.BuildTree(d, "University")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := mapping.Generate(tree, mapping.Options{})
	if err != nil {
		t.Fatal(err)
	}
	en := sql.NewEngine(ordb.New(ordb.ModeOracle9))
	if _, err := en.ExecScript(sch.Script()); err != nil {
		t.Fatal(err)
	}
	doc := workload.UniversityWithJaeger(workload.UniversityParams{
		Students: 6, CoursesPerStudent: 2, ProfsPerCourse: 1, SubjectsPerProf: 2, Seed: 9,
	}, 2)
	if _, err := loader.New(sch, en).Load(doc, "d"); err != nil {
		t.Fatal(err)
	}
	return sch, en
}

// translateCases translate over the Appendix A schema and return at least
// minRows rows from setup's store.
var translateCases = []struct {
	xpath    string
	minRows  int
	contains string
}{
	{`/University/StudyCourse`, 1, "attrStudyCourse"},
	{`/University/Student/LName`, 6, "TABLE("},
	{`/University/Student/@StudNr`, 6, "attrListStudent.attrStudNr"},
	{`/University/Student/Course/Professor[PName="Jaeger"]/Dept`, 2, "attrPName = 'Jaeger'"},
	{`/University/Student/Course/Professor/Subject`, 12, "COLUMN_VALUE"},
}

// translateErrorPaths parse but do not translate over the schema.
var translateErrorPaths = []string{
	`/Wrong/Student`,
	`/University/Nope`,
	`/University/Student[5]/LName`,
	`/University/Student/@nope`,
	`/University/Student[Course='x']/LName`, // predicate child is complex
}

func TestTranslateAndRun(t *testing.T) {
	sch, en := setup(t)
	for _, tc := range translateCases {
		stmt, err := Translate(sch, tc.xpath)
		if err != nil {
			t.Errorf("Translate(%s): %v", tc.xpath, err)
			continue
		}
		if !strings.Contains(stmt, tc.contains) {
			t.Errorf("Translate(%s) = %s, missing %q", tc.xpath, stmt, tc.contains)
		}
		rows, err := en.Query(stmt)
		if err != nil {
			t.Errorf("query for %s failed: %v\n%s", tc.xpath, err, stmt)
			continue
		}
		if len(rows.Data) < tc.minRows {
			t.Errorf("%s: rows = %d, want >= %d\n%s", tc.xpath, len(rows.Data), tc.minRows, stmt)
		}
	}
}

const setValuedPredicatePath = `/University/Student/Course/Professor[Subject="CAD"]/PName`

func TestTranslatePredicateOnSetValuedSimple(t *testing.T) {
	sch, en := setup(t)
	stmt, err := Translate(sch, setValuedPredicatePath)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	if _, err := en.Query(stmt); err != nil {
		t.Fatalf("query: %v\n%s", err, stmt)
	}
}

func TestTranslateErrors(t *testing.T) {
	sch, _ := setup(t)
	for _, src := range translateErrorPaths {
		if _, err := Translate(sch, src); err == nil {
			t.Errorf("Translate(%q) should fail", src)
		}
	}
}

// FuzzXPath: Translate over the Appendix A schema returns an error or a
// statement for any input, never a panic, and every statement it returns
// parses and runs on a small loaded store.
func FuzzXPath(f *testing.F) {
	f.Add(`/University/Student[@StudNr="23374"]/Course[Name='CAD Intro']/CreditPts`)
	f.Add(`/a/b[2]`)
	f.Add(setValuedPredicatePath)
	for _, src := range parseErrorPaths {
		f.Add(src)
	}
	for _, tc := range translateCases {
		f.Add(tc.xpath)
	}
	for _, src := range translateErrorPaths {
		f.Add(src)
	}
	sch, en := setup(f)
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Translate(sch, src)
		if err != nil {
			return
		}
		if _, err := sql.ParseStatement(stmt); err != nil {
			t.Fatalf("Translate(%q) = %q, which does not parse: %v", src, stmt, err)
		}
		if _, err := en.Query(stmt); err != nil {
			t.Fatalf("Translate(%q) = %q, which fails: %v", src, stmt, err)
		}
	})
}
