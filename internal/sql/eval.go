package sql

import (
	"fmt"
	"strings"

	"xmlordb/internal/ordb"
)

// scope is one row binding visible to expression evaluation: an alias and
// the current row of a FROM item.
type scope struct {
	alias string
	// cols/vals hold the named columns of a table or view row.
	cols []string
	vals []ordb.Value
	// whole is the row as a single value for TABLE() elements and
	// one-column view rows; nil otherwise. Read it through value().
	whole ordb.Value
	// rowType names the row type of an object-table row, whose object
	// value() boxes on demand so that binding the row allocates nothing.
	rowType string
	// table and oid identify the source row for REF().
	table string
	oid   ordb.OID
	// rowView, when set, resolves columns lazily (used for CHECK
	// constraint evaluation against a candidate row).
	rowView ordb.RowView
}

// env is the evaluation environment: a chain of scopes, innermost last.
// Correlated subqueries extend the chain.
type env struct {
	scopes []*scope
	parent *env
}

func (e *env) lookupAlias(name string) *scope {
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
func (e *env) lookupColumn(name string) (ordb.Value, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		for i := len(cur.scopes) - 1; i >= 0; i-- {
			if v, ok := cur.scopes[i].colValue(name); ok {
				return v, true
			}
		}
	}
	return nil, false
}

// value returns the row as a single value, or nil for a plain
// relational row. An object-table row is boxed into a fresh object on
// every call, so no two result values share one.
func (s *scope) value() ordb.Value {
	if s.whole == nil && s.rowType != "" {
		return &ordb.Object{TypeName: s.rowType, Attrs: s.vals}
	}
	return s.whole
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

// eval evaluates an expression to a value. SQL three-valued logic is
// represented with ordb.Null{} for UNKNOWN and ordb.Num(0/1) for booleans.
func (en *Engine) eval(e Expr, ev *env) (ordb.Value, error) {
	switch x := e.(type) {
	case *Lit:
		if x.Val == nil { // a malformed DATE literal: report why
			return ParseDateLiteral(x.Str)
		}
		return x.Val, nil
	case *Path:
		return en.evalPath(x, ev)
	case *Call:
		return en.evalCall(x, ev)
	case *CastMultiset:
		return en.evalCastMultiset(x, ev)
	case *Binary:
		return en.evalBinary(x, ev)
	case *Unary:
		v, err := en.eval(x.E, ev)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "NOT":
			if ordb.IsNull(v) {
				return ordb.Null{}, nil
			}
			return boolVal(!truthy(v)), nil
		case "-":
			n, ok := v.(ordb.Num)
			if !ok {
				if ordb.IsNull(v) {
					return ordb.Null{}, nil
				}
				return nil, fmt.Errorf("sql: unary minus on %T", v)
			}
			return -n, nil
		default:
			return nil, fmt.Errorf("sql: unknown unary op %q", x.Op)
		}
	case *IsNull:
		v, err := en.eval(x.E, ev)
		if err != nil {
			return nil, err
		}
		isNull := ordb.IsNull(v)
		if x.Not {
			return boolVal(!isNull), nil
		}
		return boolVal(isNull), nil
	case *Exists:
		rows, err := en.querySelect(x.Sub, ev)
		if err != nil {
			return nil, err
		}
		return boolVal(len(rows.Data) > 0), nil
	default:
		return nil, fmt.Errorf("sql: unknown expression %T", e)
	}
}

func (en *Engine) evalPath(p *Path, ev *env) (ordb.Value, error) {
	head := p.Parts[0]
	if s := ev.lookupAlias(head); s != nil {
		if len(p.Parts) == 1 {
			// Bare alias: the whole row value (for TABLE() elements and
			// object tables) or an error for plain relational rows.
			if v := s.value(); v != nil {
				return v, nil
			}
			return nil, fmt.Errorf("sql: alias %q does not denote a single value", head)
		}
		// First step after the alias is a column lookup, the rest is
		// attribute navigation.
		base, ok := s.colValue(p.Parts[1])
		if !ok {
			// TABLE() scalar elements have no columns; allow navigation
			// into the whole value instead.
			if v := s.value(); v != nil {
				return en.db.NavigatePath(v, p.Parts[1:])
			}
			return nil, fmt.Errorf("sql: %s has no column %q", head, p.Parts[1])
		}
		return en.db.NavigatePath(base, p.Parts[2:])
	}
	// Unqualified: first part is a column.
	base, ok := ev.lookupColumn(head)
	if !ok {
		return nil, fmt.Errorf("sql: unknown column or alias %q", head)
	}
	return en.db.NavigatePath(base, p.Parts[1:])
}

func (en *Engine) evalCall(c *Call, ev *env) (ordb.Value, error) {
	switch strings.ToUpper(c.Name) {
	case "COUNT", "MIN", "MAX", "SUM", "AVG":
		return nil, fmt.Errorf("sql: aggregate %s is only allowed in the select list", strings.ToUpper(c.Name))
	case "REF":
		s, err := aliasArg(c, ev)
		if err != nil {
			return nil, err
		}
		if s.oid == 0 {
			return nil, fmt.Errorf("sql: REF(%s): not an object table row", s.alias)
		}
		return ordb.Ref{Table: s.table, OID: s.oid}, nil
	case "VALUE":
		s, err := aliasArg(c, ev)
		if err != nil {
			return nil, err
		}
		v := s.value()
		if v == nil {
			return nil, fmt.Errorf("sql: VALUE(%s): not an object table row", s.alias)
		}
		return v, nil
	case "DEREF":
		if len(c.Args) != 1 {
			return nil, fmt.Errorf("sql: DEREF takes one argument")
		}
		v, err := en.eval(c.Args[0], ev)
		if err != nil {
			return nil, err
		}
		if ordb.IsNull(v) {
			return ordb.Null{}, nil
		}
		o, err := en.db.Deref(v)
		if err != nil {
			return nil, err
		}
		if o == nil {
			return ordb.Null{}, nil
		}
		return o, nil
	}
	// Constructor: the name must resolve to a user-defined type.
	t, err := en.db.Type(c.Name)
	if err != nil {
		return nil, fmt.Errorf("sql: unknown function or type %q", c.Name)
	}
	args := make([]ordb.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := en.eval(a, ev)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	switch ty := t.(type) {
	case *ordb.ObjectType:
		if len(args) != len(ty.Attrs) {
			return nil, fmt.Errorf("sql: constructor %s: %d arguments for %d attributes",
				ty.Name, len(args), len(ty.Attrs))
		}
		return &ordb.Object{TypeName: ty.Name, Attrs: args}, nil
	case *ordb.VarrayType:
		return &ordb.Coll{TypeName: ty.Name, Elems: args}, nil
	case *ordb.NestedTableType:
		return &ordb.Coll{TypeName: ty.Name, Elems: args}, nil
	default:
		return nil, fmt.Errorf("sql: type %s has no constructor", c.Name)
	}
}

func aliasArg(c *Call, ev *env) (*scope, error) {
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
	return s, nil
}

func (en *Engine) evalCastMultiset(cm *CastMultiset, ev *env) (ordb.Value, error) {
	t, err := en.db.Type(cm.TypeName)
	if err != nil {
		return nil, err
	}
	if !ordb.IsCollection(t) {
		return nil, fmt.Errorf("sql: CAST AS %s: not a collection type", cm.TypeName)
	}
	rows, err := en.querySelect(cm.Sub, ev)
	if err != nil {
		return nil, err
	}
	elems := make([]ordb.Value, 0, len(rows.Data))
	for _, r := range rows.Data {
		switch len(r) {
		case 1:
			elems = append(elems, r[0])
		default:
			return nil, fmt.Errorf("sql: MULTISET subquery must select exactly one expression")
		}
	}
	return &ordb.Coll{TypeName: ordb.NamedType(t), Elems: elems}, nil
}

func (en *Engine) evalBinary(b *Binary, ev *env) (ordb.Value, error) {
	switch b.Op {
	case "AND", "OR":
		l, err := en.eval(b.L, ev)
		if err != nil {
			return nil, err
		}
		// Short-circuit with three-valued logic.
		if b.Op == "AND" {
			if !ordb.IsNull(l) && !truthy(l) {
				return boolVal(false), nil
			}
		} else {
			if !ordb.IsNull(l) && truthy(l) {
				return boolVal(true), nil
			}
		}
		r, err := en.eval(b.R, ev)
		if err != nil {
			return nil, err
		}
		if ordb.IsNull(l) || ordb.IsNull(r) {
			// The definite branch was handled above; anything involving
			// NULL now is UNKNOWN except OR with true / AND with false
			// on the right.
			if b.Op == "OR" && !ordb.IsNull(r) && truthy(r) {
				return boolVal(true), nil
			}
			if b.Op == "AND" && !ordb.IsNull(r) && !truthy(r) {
				return boolVal(false), nil
			}
			return ordb.Null{}, nil
		}
		if b.Op == "AND" {
			return boolVal(truthy(l) && truthy(r)), nil
		}
		return boolVal(truthy(l) || truthy(r)), nil
	}
	l, err := en.eval(b.L, ev)
	if err != nil {
		return nil, err
	}
	r, err := en.eval(b.R, ev)
	if err != nil {
		return nil, err
	}
	if b.Op == "||" {
		if ordb.IsNull(l) && ordb.IsNull(r) {
			return ordb.Null{}, nil
		}
		return ordb.Str(asString(l) + asString(r)), nil
	}
	if ordb.IsNull(l) || ordb.IsNull(r) {
		return ordb.Null{}, nil // comparisons with NULL are UNKNOWN
	}
	if b.Op == "LIKE" {
		ls, lok := l.(ordb.Str)
		rs, rok := r.(ordb.Str)
		if !lok || !rok {
			return nil, fmt.Errorf("sql: LIKE requires character operands")
		}
		return boolVal(likeMatch(string(ls), string(rs))), nil
	}
	cmp, err := compareTrimmed(l, r)
	if err != nil {
		return nil, err
	}
	switch b.Op {
	case "=":
		return boolVal(cmp == 0), nil
	case "!=":
		return boolVal(cmp != 0), nil
	case "<":
		return boolVal(cmp < 0), nil
	case ">":
		return boolVal(cmp > 0), nil
	case "<=":
		return boolVal(cmp <= 0), nil
	case ">=":
		return boolVal(cmp >= 0), nil
	default:
		return nil, fmt.Errorf("sql: unknown operator %q", b.Op)
	}
}

// compareTrimmed compares two non-NULL operands. Strings compare with
// CHAR blank padding trimmed (Oracle compares CHAR with non-padded
// semantics against VARCHAR), as plain strings, so a comparison boxes
// nothing; any other pair goes to ordb.Compare, where a string against a
// non-string is an error.
func compareTrimmed(l, r ordb.Value) (int, error) {
	ls, lok := l.(ordb.Str)
	rs, rok := r.(ordb.Str)
	if lok && rok {
		return strings.Compare(strings.TrimRight(string(ls), " "), strings.TrimRight(string(rs), " ")), nil
	}
	return ordb.Compare(l, r)
}

func asString(v ordb.Value) string {
	if ordb.IsNull(v) {
		return ""
	}
	return ordb.FormatValue(v)
}

// trueVal and falseVal are pre-boxed so boolVal never allocates (boxing
// a Num into the Value interface costs a heap allocation per call on the
// hot comparison path).
var (
	trueVal  ordb.Value = ordb.Num(1)
	falseVal ordb.Value = ordb.Num(0)
)

func boolVal(b bool) ordb.Value {
	if b {
		return trueVal
	}
	return falseVal
}

func truthy(v ordb.Value) bool {
	n, ok := v.(ordb.Num)
	return ok && n != 0
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single
// byte) in constant space. It matches left to right and, on a mismatch,
// backtracks to the last % seen and lets it absorb one more byte of s;
// an earlier % never needs revisiting, because the last one can absorb
// anything an earlier one could.
func likeMatch(s, pattern string) bool {
	i, j := 0, 0
	star, mark := -1, 0 // last % in pattern, and where in s it resumes
	for i < len(s) {
		switch {
		case j < len(pattern) && pattern[j] == '%':
			star, mark = j, i
			j++
		case j < len(pattern) && (pattern[j] == '_' || pattern[j] == s[i]):
			i++
			j++
		case star >= 0:
			mark++
			i, j = mark, star+1
		default:
			return false
		}
	}
	for j < len(pattern) && pattern[j] == '%' {
		j++
	}
	return j == len(pattern)
}

// ParseDateLiteral parses the body of a DATE 'yyyy-mm-dd' literal.
func ParseDateLiteral(s string) (ordb.Value, error) {
	d, err := ordb.ParseDateString(s)
	if err != nil {
		return nil, fmt.Errorf("sql: bad date literal %q: %w", s, err)
	}
	return d, nil
}
