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

// likeMatchDP is the dynamic-programming LIKE matcher likeMatch
// replaced: quadratic time and linear space, but obviously right. It
// stays as the oracle the constant-space matcher is checked against.
func likeMatchDP(s, pattern string) bool {
	m, n := len(s), len(pattern)
	prev := make([]bool, m+1)
	curr := make([]bool, m+1)
	prev[0] = true
	for j := 1; j <= n; j++ {
		curr[0] = prev[0] && pattern[j-1] == '%'
		for i := 1; i <= m; i++ {
			switch pattern[j-1] {
			case '%':
				curr[i] = curr[i-1] || prev[i]
			case '_':
				curr[i] = prev[i-1]
			default:
				curr[i] = prev[i-1] && s[i-1] == pattern[j-1]
			}
		}
		prev, curr = curr, prev
	}
	return prev[m]
}

// FuzzLike: the constant-space LIKE matcher agrees with the
// dynamic-programming oracle on every string and pattern.
func FuzzLike(f *testing.F) {
	for _, c := range [][2]string{
		{"Database Systems", "%Systems"},
		{"CAD", "C_D"},
		{"mississippi", "m%iss%pi"},
		{"aaab", "%a%ab"},
		{"", "%_%"},
		{"100%", "1%0_"},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, s, pattern string) {
		if got, want := likeMatch(s, pattern), likeMatchDP(s, pattern); got != want {
			t.Fatalf("likeMatch(%q, %q) = %v, oracle says %v", s, pattern, got, want)
		}
	})
}
