package sql

import (
	"fmt"
	"strings"

	"xmlordb/internal/ordb"
)

// scope is one row binding visible to expression evaluation: the current
// row of a FROM leg.
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

// value returns the row as a single value, or nil for a plain
// relational row. An object-table row is boxed into a fresh object on
// every call, so no two result values share one.
func (s *scope) value() ordb.Value {
	if s.whole == nil && s.rowType != "" {
		return &ordb.Object{TypeName: s.rowType, Attrs: s.vals}
	}
	return s.whole
}

// The evaluator: each bound node evaluates itself against the execution
// state. SQL three-valued logic is represented with ordb.Null{} for
// UNKNOWN and ordb.Num(0/1) for booleans.

func (l *Lit) eval(*execState) (ordb.Value, error) {
	if l.Val == nil { // a malformed DATE literal: report why
		return ParseDateLiteral(l.Str)
	}
	return l.Val, nil
}

// errNode is a name or construct that did not bind; evaluating it
// reports why, so a query that never evaluates it still succeeds.
type errNode struct{ err error }

func (n errNode) eval(*execState) (ordb.Value, error) { return nil, n.err }

// aliasNode is a bare alias: the whole row value (for TABLE() elements
// and object tables).
type aliasNode struct {
	at   legRef
	name string
}

func (n *aliasNode) eval(st *execState) (ordb.Value, error) {
	if v := st.scope(n.at).value(); v != nil {
		return v, nil
	}
	return nil, fmt.Errorf("sql: alias %q does not denote a single value", n.name)
}

// columnNode is alias.column[.attr...]. steps navigates from the column
// name on: steps[1:] from the column's value, all of them from the whole
// value of a scalar TABLE() element, which has no columns.
type columnNode struct {
	at        legRef
	head, col string
	slot      int
	steps     []navStep
}

func (n *columnNode) eval(st *execState) (ordb.Value, error) {
	s := st.scope(n.at)
	base, ok := st.column(s, n.slot, n.col)
	if !ok {
		if v := s.value(); v != nil {
			return st.navigate(v, n.steps)
		}
		return nil, fmt.Errorf("sql: %s has no column %q", n.head, n.col)
	}
	if len(n.steps) == 1 && base != nil {
		return base, nil // no attribute steps
	}
	return st.navigate(base, n.steps[1:])
}

// unqualNode is a column named without an alias, looked up in every
// visible leg innermost first, followed by attribute steps.
type unqualNode struct {
	name  string
	cands []colCand
	steps []navStep
}

// colCand is one leg that may hold an unqualified column, with the memo
// slot of the column's position there.
type colCand struct {
	at   legRef
	slot int
}

func (n *unqualNode) eval(st *execState) (ordb.Value, error) {
	for _, c := range n.cands {
		if base, ok := st.column(st.scope(c.at), c.slot, n.name); ok {
			return st.navigate(base, n.steps)
		}
	}
	return nil, fmt.Errorf("sql: unknown column or alias %q", n.name)
}

// rowCallNode is REF(alias) or VALUE(alias).
type rowCallNode struct {
	value bool
	at    legRef
}

func (n *rowCallNode) eval(st *execState) (ordb.Value, error) {
	s := st.scope(n.at)
	if n.value {
		if v := s.value(); v != nil {
			return v, nil
		}
		return nil, fmt.Errorf("sql: VALUE(%s): not an object table row", s.alias)
	}
	if s.oid == 0 {
		return nil, fmt.Errorf("sql: REF(%s): not an object table row", s.alias)
	}
	return ordb.Ref{Table: s.table, OID: s.oid}, nil
}

type derefNode struct{ arg bexpr }

func (n *derefNode) eval(st *execState) (ordb.Value, error) {
	v, err := n.arg.eval(st)
	if err != nil {
		return nil, err
	}
	if ordb.IsNull(v) {
		return ordb.Null{}, nil
	}
	o, err := st.en.db.Deref(v)
	if err != nil {
		return nil, err
	}
	if o == nil {
		return ordb.Null{}, nil
	}
	return o, nil
}

// ctorNode is a call whose name must resolve to a user-defined type.
type ctorNode struct {
	name string
	args []bexpr
}

func (n *ctorNode) eval(st *execState) (ordb.Value, error) {
	t, err := st.en.db.Type(n.name)
	if err != nil {
		return nil, fmt.Errorf("sql: unknown function or type %q", n.name)
	}
	args := make([]ordb.Value, len(n.args))
	for i, a := range n.args {
		v, err := a.eval(st)
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
		return nil, fmt.Errorf("sql: type %s has no constructor", n.name)
	}
}

// castNode is CAST(MULTISET(subquery) AS typename).
type castNode struct {
	typeName string
	sub      *boundSelect
}

func (n *castNode) eval(st *execState) (ordb.Value, error) {
	t, err := st.en.db.Type(n.typeName)
	if err != nil {
		return nil, err
	}
	if !ordb.IsCollection(t) {
		return nil, fmt.Errorf("sql: CAST AS %s: not a collection type", n.typeName)
	}
	rows, err := st.en.run(n.sub.sel, n.sub, st)
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
}

type existsNode struct{ sub *boundSelect }

func (n *existsNode) eval(st *execState) (ordb.Value, error) {
	rows, err := st.en.run(n.sub.sel, n.sub, st)
	if err != nil {
		return nil, err
	}
	return boolVal(len(rows.Data) > 0), nil
}

type unaryNode struct {
	op string
	e  bexpr
}

func (n *unaryNode) eval(st *execState) (ordb.Value, error) {
	v, err := n.e.eval(st)
	if err != nil {
		return nil, err
	}
	switch n.op {
	case "NOT":
		if ordb.IsNull(v) {
			return ordb.Null{}, nil
		}
		return boolVal(!truthy(v)), nil
	case "-":
		num, ok := v.(ordb.Num)
		if !ok {
			if ordb.IsNull(v) {
				return ordb.Null{}, nil
			}
			return nil, fmt.Errorf("sql: unary minus on %T", v)
		}
		return -num, nil
	default:
		return nil, fmt.Errorf("sql: unknown unary op %q", n.op)
	}
}

type isNullNode struct {
	e   bexpr
	not bool
}

func (n *isNullNode) eval(st *execState) (ordb.Value, error) {
	v, err := n.e.eval(st)
	if err != nil {
		return nil, err
	}
	return boolVal(ordb.IsNull(v) != n.not), nil
}

// binaryNode is a binary operation. A string literal operand carries its
// blank-trimmed text (lTrim/rTrim, marked by lLit/rLit), trimmed once
// when the plan was bound.
type binaryNode struct {
	op           string
	l, r         bexpr
	lTrim, rTrim string
	lLit, rLit   bool
}

func (n *binaryNode) eval(st *execState) (ordb.Value, error) {
	switch n.op {
	case "AND", "OR":
		l, err := n.l.eval(st)
		if err != nil {
			return nil, err
		}
		// Short-circuit with three-valued logic.
		if n.op == "AND" {
			if !ordb.IsNull(l) && !truthy(l) {
				return boolVal(false), nil
			}
		} else {
			if !ordb.IsNull(l) && truthy(l) {
				return boolVal(true), nil
			}
		}
		r, err := n.r.eval(st)
		if err != nil {
			return nil, err
		}
		if ordb.IsNull(l) || ordb.IsNull(r) {
			// The definite branch was handled above; anything involving
			// NULL now is UNKNOWN except OR with true / AND with false
			// on the right.
			if n.op == "OR" && !ordb.IsNull(r) && truthy(r) {
				return boolVal(true), nil
			}
			if n.op == "AND" && !ordb.IsNull(r) && !truthy(r) {
				return boolVal(false), nil
			}
			return ordb.Null{}, nil
		}
		if n.op == "AND" {
			return boolVal(truthy(l) && truthy(r)), nil
		}
		return boolVal(truthy(l) || truthy(r)), nil
	}
	l, err := n.l.eval(st)
	if err != nil {
		return nil, err
	}
	r, err := n.r.eval(st)
	if err != nil {
		return nil, err
	}
	if n.op == "||" {
		if ordb.IsNull(l) && ordb.IsNull(r) {
			return ordb.Null{}, nil
		}
		return ordb.Str(asString(l) + asString(r)), nil
	}
	if ordb.IsNull(l) || ordb.IsNull(r) {
		return ordb.Null{}, nil // comparisons with NULL are UNKNOWN
	}
	if n.op == "LIKE" {
		ls, lok := l.(ordb.Str)
		rs, rok := r.(ordb.Str)
		if !lok || !rok {
			return nil, fmt.Errorf("sql: LIKE requires character operands")
		}
		return boolVal(likeMatch(string(ls), string(rs))), nil
	}
	cmp, err := n.compare(l, r)
	if err != nil {
		return nil, err
	}
	switch n.op {
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
		return nil, fmt.Errorf("sql: unknown operator %q", n.op)
	}
}

// compare compares two non-NULL operands. Strings compare with CHAR
// blank padding trimmed (Oracle compares CHAR with non-padded semantics
// against VARCHAR), as plain strings, so a comparison boxes nothing; any
// other pair goes to ordb.Compare, where a string against a non-string
// is an error.
func (n *binaryNode) compare(l, r ordb.Value) (int, error) {
	ls, lok := l.(ordb.Str)
	rs, rok := r.(ordb.Str)
	if !lok || !rok {
		return ordb.Compare(l, r)
	}
	lt, rt := n.lTrim, n.rTrim
	if !n.lLit {
		lt = strings.TrimRight(string(ls), " ")
	}
	if !n.rLit {
		rt = strings.TrimRight(string(rs), " ")
	}
	return strings.Compare(lt, rt), nil
}

// truth evaluates a condition: only definite TRUE passes.
func truth(e bexpr, st *execState) (bool, error) {
	v, err := e.eval(st)
	if err != nil {
		return false, err
	}
	return !ordb.IsNull(v) && truthy(v), nil
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
