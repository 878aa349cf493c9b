package sql

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"xmlordb/internal/ordb"
)

// The oracle of FuzzBoundEval is the evaluator the binder replaced: it
// resolves every alias, column and attribute by name on every row,
// walking a chain of scopes innermost first, and runs a SELECT as plain
// nested loops over its FROM items. It takes the same access paths as
// the executor (planJoins' probes, in the same row order), so the two
// must agree on every row and on the text of the first error.

// oenv is the oracle's evaluation environment: a chain of scopes,
// innermost last. Correlated subqueries extend the chain.
type oenv struct {
	scopes []*scope
	parent *oenv
}

func (e *oenv) lookupAlias(name string) *scope {
	for cur := e; cur != nil; cur = cur.parent {
		for i := len(cur.scopes) - 1; i >= 0; i-- {
			if strings.EqualFold(cur.scopes[i].alias, name) {
				return cur.scopes[i]
			}
		}
	}
	return nil
}

// lookupColumn finds an unqualified column across all scopes.
func (e *oenv) lookupColumn(name string) (ordb.Value, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		for i := len(cur.scopes) - 1; i >= 0; i-- {
			if v, ok := cur.scopes[i].colValue(name); ok {
				return v, true
			}
		}
	}
	return nil, false
}

// colValue resolves a column of a single scope.
func (s *scope) colValue(name string) (ordb.Value, bool) {
	for j, c := range s.cols {
		if strings.EqualFold(c, name) {
			return s.vals[j], true
		}
	}
	if s.rowView != nil {
		return s.rowView.Col(name)
	}
	return nil, false
}

// errOracleUnsupported marks a query shape the oracle does not run.
var errOracleUnsupported = errors.New("oracle: unsupported query")

type oracle struct{ en *Engine }

func (o oracle) navigate(v ordb.Value, path []string) (ordb.Value, error) {
	for _, step := range path {
		if ordb.IsNull(v) {
			return ordb.Null{}, nil
		}
		var fresh ordb.AttrSlot // resolve by name, every time
		var err error
		if v, err = o.en.db.NavigateStep(v, step, &fresh); err != nil {
			return nil, err
		}
	}
	if v == nil {
		return ordb.Null{}, nil
	}
	return v, nil
}

func (o oracle) eval(e Expr, ev *oenv) (ordb.Value, error) {
	switch x := e.(type) {
	case *Lit:
		if x.Val == nil {
			return ParseDateLiteral(x.Str)
		}
		return x.Val, nil
	case *Path:
		return o.evalPath(x, ev)
	case *Call:
		return o.evalCall(x, ev)
	case *CastMultiset:
		t, err := o.en.db.Type(x.TypeName)
		if err != nil {
			return nil, err
		}
		if !ordb.IsCollection(t) {
			return nil, fmt.Errorf("sql: CAST AS %s: not a collection type", x.TypeName)
		}
		rows, err := o.query(x.Sub, ev)
		if err != nil {
			return nil, err
		}
		elems := make([]ordb.Value, 0, len(rows.Data))
		for _, r := range rows.Data {
			if len(r) != 1 {
				return nil, fmt.Errorf("sql: MULTISET subquery must select exactly one expression")
			}
			elems = append(elems, r[0])
		}
		return &ordb.Coll{TypeName: ordb.NamedType(t), Elems: elems}, nil
	case *Binary:
		return o.evalBinary(x, ev)
	case *Unary:
		v, err := o.eval(x.E, ev)
		if err != nil {
			return nil, err
		}
		return (&unaryNode{op: x.Op}).apply(v)
	case *IsNull:
		v, err := o.eval(x.E, ev)
		if err != nil {
			return nil, err
		}
		return boolVal(ordb.IsNull(v) != x.Not), nil
	case *Exists:
		rows, err := o.query(x.Sub, ev)
		if err != nil {
			return nil, err
		}
		return boolVal(len(rows.Data) > 0), nil
	}
	return nil, fmt.Errorf("sql: unknown expression %T", e)
}

func (o oracle) evalPath(p *Path, ev *oenv) (ordb.Value, error) {
	head := p.Parts[0]
	if s := ev.lookupAlias(head); s != nil {
		if len(p.Parts) == 1 {
			if v := s.value(); v != nil {
				return v, nil
			}
			return nil, fmt.Errorf("sql: alias %q does not denote a single value", head)
		}
		base, ok := s.colValue(p.Parts[1])
		if !ok {
			if v := s.value(); v != nil {
				return o.navigate(v, p.Parts[1:])
			}
			return nil, fmt.Errorf("sql: %s has no column %q", head, p.Parts[1])
		}
		return o.navigate(base, p.Parts[2:])
	}
	base, ok := ev.lookupColumn(head)
	if !ok {
		return nil, fmt.Errorf("sql: unknown column or alias %q", head)
	}
	return o.navigate(base, p.Parts[1:])
}

func (o oracle) evalCall(c *Call, ev *oenv) (ordb.Value, error) {
	switch strings.ToUpper(c.Name) {
	case "COUNT", "MIN", "MAX", "SUM", "AVG":
		return nil, fmt.Errorf("sql: aggregate %s is only allowed in the select list", strings.ToUpper(c.Name))
	case "REF", "VALUE":
		if len(c.Args) != 1 {
			return nil, fmt.Errorf("sql: %s takes one alias argument", c.Name)
		}
		p, ok := c.Args[0].(*Path)
		if !ok || len(p.Parts) != 1 {
			return nil, fmt.Errorf("sql: %s argument must be a table alias", c.Name)
		}
		s := ev.lookupAlias(p.Parts[0])
		if s == nil {
			return nil, fmt.Errorf("sql: unknown alias %q", p.Parts[0])
		}
		if strings.EqualFold(c.Name, "VALUE") {
			if v := s.value(); v != nil {
				return v, nil
			}
			return nil, fmt.Errorf("sql: VALUE(%s): not an object table row", s.alias)
		}
		if s.oid == 0 {
			return nil, fmt.Errorf("sql: REF(%s): not an object table row", s.alias)
		}
		return ordb.Ref{Table: s.table, OID: s.oid}, nil
	case "DEREF":
		if len(c.Args) != 1 {
			return nil, fmt.Errorf("sql: DEREF takes one argument")
		}
		v, err := o.eval(c.Args[0], ev)
		if err != nil {
			return nil, err
		}
		if ordb.IsNull(v) {
			return ordb.Null{}, nil
		}
		obj, err := o.en.db.Deref(v)
		if err != nil {
			return nil, err
		}
		if obj == nil {
			return ordb.Null{}, nil
		}
		return obj, nil
	}
	t, err := o.en.db.Type(c.Name)
	if err != nil {
		return nil, fmt.Errorf("sql: unknown function or type %q", c.Name)
	}
	args := make([]ordb.Value, len(c.Args))
	for i, a := range c.Args {
		if args[i], err = o.eval(a, ev); err != nil {
			return nil, err
		}
	}
	switch ty := t.(type) {
	case *ordb.ObjectType:
		if len(args) != len(ty.Attrs) {
			return nil, fmt.Errorf("sql: constructor %s: %d arguments for %d attributes",
				ty.Name, len(args), len(ty.Attrs))
		}
		return &ordb.Object{TypeName: ty.Name, Attrs: args}, nil
	case *ordb.VarrayType, *ordb.NestedTableType:
		return &ordb.Coll{TypeName: ordb.NamedType(t), Elems: args}, nil
	}
	return nil, fmt.Errorf("sql: type %s has no constructor", c.Name)
}

// evalBinary trims both string operands of a comparison on every call.
func (o oracle) evalBinary(b *Binary, ev *oenv) (ordb.Value, error) {
	l, err := o.eval(b.L, ev)
	if err != nil {
		return nil, err
	}
	isNull, isTrue := ordb.IsNull(l), truthy(l)
	switch {
	case b.Op == "AND" && !isNull && !isTrue:
		return boolVal(false), nil
	case b.Op == "OR" && !isNull && isTrue:
		return boolVal(true), nil
	}
	r, err := o.eval(b.R, ev)
	if err != nil {
		return nil, err
	}
	n := &binaryNode{op: b.Op}
	if b.Op != "AND" && b.Op != "OR" && b.Op != "||" && b.Op != "LIKE" &&
		!ordb.IsNull(l) && !ordb.IsNull(r) {
		ls, lok := l.(ordb.Str)
		rs, rok := r.(ordb.Str)
		if lok && rok {
			// Bind both operands as literals trimmed right here.
			n.lTrim, n.lLit = strings.TrimRight(string(ls), " "), true
			n.rTrim, n.rLit = strings.TrimRight(string(rs), " "), true
		}
	}
	n.l, n.r = constNode{l}, constNode{r}
	return n.eval(nil)
}

// constNode is an already evaluated operand.
type constNode struct{ v ordb.Value }

func (c constNode) eval(*execState) (ordb.Value, error) { return c.v, nil }

// apply is the unary operator on an evaluated operand.
func (n *unaryNode) apply(v ordb.Value) (ordb.Value, error) {
	n.e = constNode{v}
	return n.eval(nil)
}

// query runs sel as nested loops, innermost leg fastest.
func (o oracle) query(sel *SelectStmt, outer *oenv) (*Rows, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("sql: SELECT requires a FROM clause")
	}
	if len(sel.GroupBy) > 0 || hasAggregate(sel) {
		return nil, errOracleUnsupported
	}
	var legCols [][]ordb.Column
	var whole []bool
	if hasStar(sel) {
		var err error
		if legCols, whole, err = o.en.starLegs(sel); err != nil {
			return nil, err
		}
	}
	aliases := make([]string, len(sel.From))
	for i, f := range sel.From {
		aliases[i] = legAlias(f, i)
	}
	joins := o.en.planJoins(sel, aliases)
	ev := &oenv{parent: outer}
	out := &Rows{Cols: resultColumns(sel, legCols)}
	var walk func(i int) error
	bind := func(i int, s *scope) error {
		ev.scopes = append(ev.scopes, s)
		err := walk(i + 1)
		ev.scopes = ev.scopes[:len(ev.scopes)-1]
		return err
	}
	walk = func(i int) error {
		if i == len(sel.From) {
			return o.emit(sel, ev, legCols, whole, out)
		}
		item := sel.From[i]
		if item.Unnest != nil {
			return o.unnest(item.Unnest, aliases[i], ev, func(s *scope) error { return bind(i, s) })
		}
		tbl, err := o.en.db.Table(item.Table)
		if err != nil {
			view, err := o.en.db.View(item.Table)
			if err != nil {
				return fmt.Errorf("sql: no table or view %q", item.Table)
			}
			rows, err := o.query(view.Compiled.(*SelectStmt), nil)
			if err != nil {
				return fmt.Errorf("sql: view %s: %w", view.Name, err)
			}
			alias := item.Alias
			if alias == "" {
				alias = view.Name
			}
			for _, r := range rows.Data {
				s := &scope{alias: alias, cols: rows.Cols, vals: r}
				if len(r) == 1 {
					s.whole = r[0]
				}
				if err := bind(i, s); err != nil {
					return err
				}
			}
			return nil
		}
		var rows []*ordb.Row
		if js := joins[i]; js != nil {
			key, err := o.eval(js.otherExpr, ev)
			if err != nil {
				return err
			}
			var ok bool
			if rows, ok = tbl.ProbeEqual(js.keyCol, key); !ok {
				want, ok := joinKey(key)
				col := tbl.ColIndex(js.keyCol)
				tbl.Scan(func(r *ordb.Row) bool {
					if k, kok := joinKey(r.Vals[col]); ok && kok && k == want {
						rows = append(rows, r)
					}
					return true
				})
			}
		} else {
			tbl.Scan(func(r *ordb.Row) bool { rows = append(rows, r); return true })
		}
		for _, r := range rows {
			s := &scope{}
			fillTableScope(s, tbl, item.Alias, r)
			if err := bind(i, s); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	if len(sel.OrderBy) > 0 {
		n := len(sel.OrderBy)
		var sortErr error
		sort.SliceStable(out.Data, func(i, j int) bool {
			a, b := out.Data[i], out.Data[j]
			for k, ob := range sel.OrderBy {
				c, err := orderCompare(a[len(a)-n+k], b[len(b)-n+k])
				if err != nil && sortErr == nil {
					sortErr = err
				}
				if ob.Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
		for i, r := range out.Data {
			out.Data[i] = r[:len(r)-n]
		}
	}
	return out, nil
}

// unnest binds each element of a TABLE() argument: an object's
// attributes (a REF's target's) as columns, a scalar as COLUMN_VALUE.
func (o oracle) unnest(e Expr, alias string, ev *oenv, bind func(*scope) error) error {
	v, err := o.eval(e, ev)
	if err != nil {
		return err
	}
	if ordb.IsNull(v) {
		return nil
	}
	coll, ok := v.(*ordb.Coll)
	if !ok {
		return fmt.Errorf("sql: TABLE() requires a collection, got %T", v)
	}
	for _, elem := range coll.Elems {
		s := &scope{alias: alias, whole: elem}
		resolved := elem
		if r, isRef := elem.(ordb.Ref); isRef {
			obj, err := o.en.db.Deref(r)
			if err != nil {
				return err
			}
			resolved, s.table, s.oid = obj, r.Table, r.OID
		}
		if obj, isObj := resolved.(*ordb.Object); isObj {
			t, err := o.en.db.Type(obj.TypeName)
			if err != nil {
				return err
			}
			for _, a := range t.(*ordb.ObjectType).Attrs {
				s.cols = append(s.cols, a.Name)
			}
			s.vals, s.whole = obj.Attrs, obj
		} else {
			s.cols, s.vals = []string{"COLUMN_VALUE"}, []ordb.Value{resolved}
		}
		if err := bind(s); err != nil {
			return err
		}
	}
	return nil
}

// emit filters and projects the current binding into out.
func (o oracle) emit(sel *SelectStmt, ev *oenv, legCols [][]ordb.Column, whole []bool, out *Rows) error {
	if sel.Where != nil {
		v, err := o.eval(sel.Where, ev)
		if err != nil {
			return err
		}
		if ordb.IsNull(v) || !truthy(v) {
			return nil
		}
	}
	var row []ordb.Value
	for _, item := range sel.Items {
		if !item.Star {
			v, err := o.eval(item.Expr, ev)
			if err != nil {
				return err
			}
			row = append(row, v)
			continue
		}
		for j, s := range ev.scopes {
			if whole[j] {
				row = append(row, s.value())
				continue
			}
			for k := range legCols[j] {
				var v ordb.Value = ordb.Null{}
				if k < len(s.vals) {
					v = s.vals[k]
				}
				row = append(row, v)
			}
		}
	}
	for _, ob := range sel.OrderBy {
		k, err := o.eval(ob.Expr, ev)
		if err != nil {
			return err
		}
		row = append(row, k)
	}
	out.Data = append(out.Data, row)
	return nil
}

// boundEvalSchema has every kind of leg the binder positions: a
// relational table with an index, an object table, an empty table, two
// views, and collections of objects, REFs and scalars, with CHAR columns
// whose blank padding comparisons trim.
var boundEvalSchema = []string{
	`CREATE TYPE TypeVA_Name AS VARRAY(5) OF VARCHAR(20)`,
	`CREATE TYPE Type_Addr AS OBJECT(Street VARCHAR(20), City CHAR(8))`,
	`CREATE TYPE Type_Prof AS OBJECT(PName VARCHAR(20), Dept CHAR(6), Addr Type_Addr, Nicks TypeVA_Name)`,
	`CREATE TABLE TabProf OF Type_Prof`,
	`CREATE TYPE TypeVA_Prof AS VARRAY(5) OF Type_Prof`,
	`CREATE TYPE TypeVA_ProfRef AS VARRAY(5) OF REF Type_Prof`,
	`CREATE TABLE TabDept(Name VARCHAR(20), Code CHAR(6), Profs TypeVA_Prof, Refs TypeVA_ProfRef, Tags TypeVA_Name)`,
	`CREATE TABLE TabEmpty(Name VARCHAR(20), Code CHAR(6), Profs TypeVA_Prof)`,
	`CREATE INDEX IdxDeptName ON TabDept(Name)`,
	`CREATE VIEW ViewDept AS SELECT d.Name, d.Code FROM TabDept d`,
	`CREATE VIEW ViewName AS SELECT d.Name FROM TabDept d`,
	`INSERT INTO TabProf VALUES ('Jaeger', 'CS', Type_Addr('Main', 'Ulm'), TypeVA_Name('J', 'Jay'))`,
	`INSERT INTO TabProf VALUES ('Kudrass', 'DB  ', Type_Addr('Side', NULL), NULL)`,
	`INSERT INTO TabDept VALUES ('CS', 'CS',
		TypeVA_Prof(Type_Prof('Jaeger', 'CS', Type_Addr('Main', 'Ulm'), TypeVA_Name('J')),
			Type_Prof('Conrad', NULL, NULL, NULL)),
		CAST(MULTISET(SELECT REF(p) FROM TabProf p) AS TypeVA_ProfRef),
		TypeVA_Name('a ', 'b'))`,
	`INSERT INTO TabDept VALUES ('DB ', NULL, NULL, NULL, TypeVA_Name())`,
	`INSERT INTO TabDept VALUES ('XML', 'DB', TypeVA_Prof(), NULL, TypeVA_Name('CS'))`,
	`INSERT INTO TabDept VALUES ('NUL', 'CS', TypeVA_Prof(Type_Prof('Ott', 'CS', NULL, NULL), NULL,
		Type_Prof('Ulm', 'DB', NULL, NULL)), NULL, TypeVA_Name(NULL, 'x'))`,
}

// boundEvalSeeds are the FuzzBoundEval seed queries.
var boundEvalSeeds = []string{
	// Duplicate and shadowed aliases: TABLE(d.Profs) sees the table leg,
	// the WHERE and select list the unnest leg that shadows it.
	`SELECT d.PName, d.Dept FROM TabDept d, TABLE(d.Profs) d WHERE d.PName = 'Jaeger'`,
	`SELECT x.Name FROM TabDept x, TABLE(x.Profs) x`,
	`SELECT t.Name FROM TabDept t, TabDept t WHERE t.Code = 'CS'`,
	`SELECT TabDept.Name, tabdept.Code FROM TabDept`,
	// Unqualified columns, innermost first.
	`SELECT Name, PName, Dept FROM TabDept d, TABLE(d.Profs) p`,
	`SELECT Code, Name FROM TabDept, ViewDept`,
	`SELECT Name FROM ViewName, TabProf`,
	`SELECT City FROM TabProf p`,
	// Correlated subqueries over outer aliases.
	`SELECT d.Name FROM TabDept d WHERE EXISTS (SELECT p.PName FROM TabProf p WHERE p.Dept = d.Code)`,
	`SELECT d.Name FROM TabDept d WHERE EXISTS (SELECT x.PName FROM TABLE(d.Profs) x WHERE x.PName = Name)`,
	`SELECT d.Name FROM TabDept d WHERE NOT EXISTS (SELECT d.Name FROM TabProf d WHERE d.Dept = Code)`,
	`SELECT d.Name, CAST(MULTISET(SELECT p.PName FROM TABLE(d.Profs) p) AS TypeVA_Name) FROM TabDept d`,
	`SELECT d.Name FROM TabDept d, TABLE(CAST(MULTISET(SELECT p.PName FROM TabProf p WHERE p.Dept = d.Code) AS TypeVA_Name)) n`,
	// Views.
	`SELECT v.Name, v.Code FROM ViewDept v WHERE v.Code = 'CS'`,
	`SELECT v FROM ViewName v`,
	`SELECT * FROM ViewDept v, TabDept d WHERE v.Name = d.Name`,
	// Scalar COLUMN_VALUE and REF elements.
	`SELECT t.COLUMN_VALUE, t, COLUMN_VALUE FROM TabDept d, TABLE(d.Tags) t`,
	`SELECT t.Nope FROM TabDept d, TABLE(d.Tags) t`,
	`SELECT r.PName, r.Addr.City, REF(r), VALUE(r), DEREF(REF(r)) FROM TabDept d, TABLE(d.Refs) r`,
	`SELECT * FROM TabDept d, TABLE(d.Refs) r`,
	`SELECT * FROM TabDept d, TABLE(d.Profs) p, TABLE(d.Tags)`,
	`SELECT p.Dept, p.Addr, p.PName FROM TabDept d, TABLE(d.Profs) p WHERE d.Name = 'NUL'`,
	`SELECT TABLE_2.COLUMN_VALUE FROM TabDept d, TABLE(d.Tags)`,
	`SELECT VALUE(p), REF(p), p.Addr.Street FROM TabProf p ORDER BY p.PName DESC`,
	// CHAR blank padding on either side of =.
	`SELECT d.Name FROM TabDept d WHERE d.Code = 'CS    '`,
	`SELECT d.Name FROM TabDept d WHERE 'DB' = d.Name`,
	`SELECT p.PName FROM TabProf p WHERE p.Dept = 'DB'`,
	`SELECT p.PName FROM TabProf p WHERE 'DB   ' = p.Dept AND p.Addr.City IS NULL`,
	`SELECT d.Name FROM TabDept d, TabProf p WHERE d.Code = p.Dept`,
	// NULL operands.
	`SELECT d.Name FROM TabDept d WHERE d.Code = NULL OR d.Profs IS NULL`,
	`SELECT d.Code || d.Name, - d.Name FROM TabDept d WHERE NULL = d.Name`,
	`SELECT d.Name FROM TabDept d WHERE d.Code != 'CS' AND NOT d.Name LIKE 'C%'`,
	// Unknown names over empty and non-empty tables.
	`SELECT e.Nope FROM TabEmpty e`,
	`SELECT Nope FROM TabEmpty`,
	`SELECT d.Nope FROM TabDept d`,
	`SELECT Nope FROM TabDept`,
	`SELECT x.Name FROM TabDept d`,
	`SELECT p.Addr.Nope FROM TabProf p`,
	`SELECT REF(zz) FROM TabDept d`,
	`SELECT * FROM TabEmpty e, TABLE(e.Profs) p`,
	`SELECT d.Name FROM TabDept d, TABLE(d.Profs) p WHERE p.Nicks.Nope = 1`,
}

// FuzzBoundEval runs a SELECT through the bound executor and through the
// name-resolving oracle: results and error texts must agree.
func FuzzBoundEval(f *testing.F) {
	for _, s := range boundEvalSeeds {
		f.Add(s)
	}
	en := NewEngine(ordb.New(ordb.ModeOracle9))
	for _, s := range boundEvalSchema {
		if _, err := en.Exec(s); err != nil {
			f.Fatalf("%s: %v", s, err)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := ParseStatement(src)
		if err != nil {
			return
		}
		sel, ok := stmt.(*SelectStmt)
		if !ok || tooLarge(sel) {
			return
		}
		want, werr := oracle{en}.query(sel, nil)
		if werr == errOracleUnsupported {
			return
		}
		got, gerr := en.querySelect(sel)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s\nbound error: %v\noracle error: %v", src, gerr, werr)
		}
		if gerr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s\nbound:  %v %v\noracle: %v %v", src, got.Cols, got.Data, want.Cols, want.Data)
		}
	})
}

// tooLarge rejects queries whose nested loops could run for long: more
// than four FROM items in one query, or subqueries nested deeper than two.
func tooLarge(sel *SelectStmt) bool {
	text := FormatSelect(sel)
	return len(sel.From) > 4 || strings.Count(strings.ToUpper(text), "SELECT") > 3
}

// TestStarMatchesColumnList: a * over TABLE() legs names as many columns
// as each row holds — an object collection's attributes, a REF
// collection's target attributes, a scalar collection's COLUMN_VALUE —
// and names them from the catalog when the result is empty.
func TestStarMatchesColumnList(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle8)
	mustExec(t, en,
		`CREATE TYPE Type_Prof AS OBJECT(PName VARCHAR(20), Dept VARCHAR(20))`,
		`CREATE TABLE TabProf OF Type_Prof`,
		`CREATE TYPE TypeVA_Prof AS VARRAY(5) OF Type_Prof`,
		`CREATE TYPE TypeVA_ProfRef AS VARRAY(5) OF REF Type_Prof`,
		`CREATE TYPE TypeVA_Name AS VARRAY(5) OF VARCHAR(20)`,
		`CREATE TABLE TabDept(Name VARCHAR(20), Profs TypeVA_Prof, Refs TypeVA_ProfRef, Tags TypeVA_Name)`,
		`CREATE TABLE TabEmpty(Name VARCHAR(20), Profs TypeVA_Prof, Refs TypeVA_ProfRef, Tags TypeVA_Name)`,
		`INSERT INTO TabProf VALUES ('Jaeger', 'CS')`,
		`INSERT INTO TabDept VALUES ('CS', TypeVA_Prof(Type_Prof('Jaeger', 'CS')),
			CAST(MULTISET(SELECT REF(p) FROM TabProf p) AS TypeVA_ProfRef), TypeVA_Name('a', 'b'))`,
	)
	base := []string{"Name", "Profs", "Refs", "Tags"}
	for _, tc := range []struct {
		coll string
		cols []string
	}{
		{"Profs", append(base[:4:4], "PName", "Dept")},
		{"Refs", append(base[:4:4], "PName", "Dept")},
		{"Tags", append(base[:4:4], "COLUMN_VALUE")},
	} {
		for _, table := range []string{"TabDept", "TabEmpty"} {
			q := fmt.Sprintf(`SELECT * FROM %s d, TABLE(d.%s) x`, table, tc.coll)
			rows := mustQuery(t, en, q)
			if !reflect.DeepEqual(rows.Cols, tc.cols) {
				t.Errorf("%s: columns %v, want %v", q, rows.Cols, tc.cols)
			}
			if table == "TabDept" && len(rows.Data) == 0 {
				t.Errorf("%s: no rows", q)
			}
			for _, r := range rows.Data {
				if len(r) != len(rows.Cols) {
					t.Errorf("%s: row %v has %d values for %d columns", q, r, len(r), len(rows.Cols))
				}
			}
		}
	}
}

// TestBoundPlanIsShared: the plan of one statement text is bound once,
// and every execution reads it without writing it.
func TestBoundPlanIsShared(t *testing.T) {
	en := newEngine(t, ordb.ModeOracle9)
	for _, s := range boundEvalSchema {
		mustExec(t, en, s)
	}
	const q = `SELECT p.PName, p.Addr.City FROM TabDept d, TABLE(d.Profs) p WHERE p.Dept = 'CS'`
	first := mustQuery(t, en, q)
	stmt, err := CachedParse(q)
	if err != nil {
		t.Fatal(err)
	}
	bp := en.planFor(stmt.(*SelectStmt))
	before := en.CacheStats()
	for i := 0; i < 3; i++ {
		if got := mustQuery(t, en, q); !reflect.DeepEqual(got, first) {
			t.Fatalf("execution %d: %v, want %v", i, got.Data, first.Data)
		}
	}
	if after := en.CacheStats(); after.PlanMisses != before.PlanMisses {
		t.Errorf("plan misses grew from %d to %d", before.PlanMisses, after.PlanMisses)
	}
	if again := en.planFor(stmt.(*SelectStmt)); again != bp {
		t.Errorf("the cached plan was rebound")
	}
}
