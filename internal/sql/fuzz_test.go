package sql

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// section41 are the paper's Section 4.1 statements: the nested INSERT
// that stores a whole document in one statement, the dot-notation query
// over the single-valued schema and its TABLE() form over the set-valued
// one.
var section41 = []string{
	`INSERT INTO TabUniversity VALUES ('Computer Science',
		Type_Student('23374','Conrad','Matthias',
			Type_Course('CAD Intro',
				Type_Professor('Jaeger','CAD','Computer Science'), '4')))`,
	`SELECT S.attrStudent.attrLName
		FROM TabUniversity S
		WHERE S.attrStudent.attrCourse.attrProfessor.attrPName = 'Jaeger'`,
	`SELECT st.attrLName
		FROM TabUniversity u, TABLE(u.attrStudent) st,
		     TABLE(st.attrCourse) c, TABLE(c.attrProfessor) p
		WHERE p.attrPName = 'Jaeger'`,
}

// FuzzParseSQL: ParseStatement returns an error or a statement for any
// input, never a panic, and an accepted SELECT printed by FormatSelect
// parses again to the same AST — the property view definitions and the
// catalog listing rely on.
func FuzzParseSQL(f *testing.F) {
	scripts, err := filepath.Glob(filepath.Join("testdata", "queries", "*.sql"))
	if err != nil || len(scripts) == 0 {
		f.Fatalf("no query goldens to seed from: %v", err)
	}
	for _, script := range scripts {
		src, err := os.ReadFile(script)
		if err != nil {
			f.Fatal(err)
		}
		stmts, err := SplitScript(string(src))
		if err != nil {
			f.Fatal(err)
		}
		for _, s := range stmts {
			f.Add(s)
		}
	}
	for _, s := range section41 {
		f.Add(s)
	}
	f.Add(`SELECT - - 1 FROM t`) // once printed as "--1", a comment
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := ParseStatement(src)
		if err != nil {
			return
		}
		sel, ok := stmt.(*SelectStmt)
		if !ok {
			return
		}
		printed := FormatSelect(sel)
		again, err := ParseStatement(printed)
		if err != nil {
			t.Fatalf("accepted %q\nprinted  %q\nwhich does not parse: %v", src, printed, err)
		}
		if !reflect.DeepEqual(stmt, again) {
			t.Fatalf("accepted %q\nprinted  %q\nwhich parses to a different statement: %q", src, printed, FormatSelect(again.(*SelectStmt)))
		}
	})
}
