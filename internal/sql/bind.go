package sql

import (
	"fmt"
	"strings"

	"xmlordb/internal/ordb"
)

// Binding. bindSelect turns the expressions of a SELECT into bound trees
// once per cached plan (planFor), between parse and execution: every
// alias head becomes a (depth, leg) position, every unqualified column a
// list of candidate legs searched innermost first, and a name that
// resolves nowhere a node that reports the error when it is evaluated.
// Aliases are syntax, so a bound plan holds no table pointer and serves
// every reader version. What depends on the rows — the position of a
// column name in a scope, the attribute a navigation step selects in an
// object type — is memoised per execution in the execState's slot array,
// keyed on the identity of the scope's column-name slice or on the
// object's type name, and re-resolved only when that key changes. The
// binder and those memo misses are the only places that match names.

// legRef locates a FROM leg: depth counts enclosing queries outward (0
// is the query the expression belongs to), leg is the position in FROM.
type legRef struct{ depth, leg int }

// bexpr is a bound expression, evaluated against one execution's state.
type bexpr interface {
	eval(st *execState) (ordb.Value, error)
}

// bindScope lists the aliases an expression can see: those of its own
// query's legs bound when it is evaluated, in FROM order, then those its
// enclosing query had bound where the subquery is evaluated.
type bindScope struct {
	aliases []string
	outer   *bindScope
}

// binder binds the expressions of one query. slots counts the memo slots
// they need in the query's execState.
type binder struct {
	en    *Engine
	sc    bindScope
	slots int
}

func (b *binder) slot() int {
	b.slots++
	return b.slots - 1
}

// alias resolves an alias innermost first, as SQL shadowing requires.
func (b *binder) alias(name string) (legRef, bool) {
	d := 0
	for sc := &b.sc; sc != nil; sc = sc.outer {
		for i := len(sc.aliases) - 1; i >= 0; i-- {
			if strings.EqualFold(sc.aliases[i], name) {
				return legRef{d, i}, true
			}
		}
		d++
	}
	return legRef{}, false
}

// boundSelect is a SELECT with its names bound, shared by every
// execution of a cached statement and never written after binding.
type boundSelect struct {
	sel *SelectStmt
	// err is a select-list error (aggregate or GROUP BY misuse) that the
	// query reports when it runs, never at bind time.
	err     error
	legs    []boundLeg
	where   bexpr
	items   []bexpr   // per select item; nil for * and aggregate items
	aggs    []aggSpec // per select item; fn is "" for a row expression
	orderBy []bexpr
	groupBy []bexpr
	// orderCols maps each ORDER BY key of a GROUP BY query to its select
	// item; orderErr is reported when such a query sorts.
	orderCols []int
	orderErr  error
	// aggregate marks a query without GROUP BY whose select list
	// aggregates.
	aggregate bool
	// cols names the result columns; nil when a * item expands them from
	// the catalog at each execution.
	cols   []string
	nslots int
}

// boundLeg is one FROM item.
type boundLeg struct {
	// alias is the leg's alias, its table or view name, or TABLE_n.
	alias string
	// unnest is the bound TABLE() argument.
	unnest bexpr
	// join, when set, fetches a table leg's rows by key instead of a scan.
	join *joinSpec
}

// aggSpec is one aggregate call of the select list.
type aggSpec struct {
	fn  string // upper-cased name
	arg bexpr  // nil for COUNT(*)
}

// bindSelect binds sel. outer lists the aliases visible where sel is
// evaluated as a subquery; nil for a top-level query or a view.
func (en *Engine) bindSelect(sel *SelectStmt, outer *bindScope) *boundSelect {
	bp := &boundSelect{sel: sel, legs: make([]boundLeg, len(sel.From))}
	aliases := make([]string, len(sel.From))
	for i, f := range sel.From {
		aliases[i] = legAlias(f, i)
		bp.legs[i].alias = aliases[i]
	}
	b := &binder{en: en, sc: bindScope{outer: outer}}
	joins := en.planJoins(sel, aliases)
	for i, f := range sel.From {
		// A leg's TABLE() argument and probe key see the legs to its left.
		b.sc.aliases = aliases[:i]
		if f.Unnest != nil {
			bp.legs[i].unnest = b.bind(f.Unnest)
		}
		if js := joins[i]; js != nil {
			js.key = b.bind(js.otherExpr)
			bp.legs[i].join = js
		}
	}
	b.sc.aliases = aliases
	if sel.Where != nil {
		bp.where = b.bind(sel.Where)
	}
	bp.items = make([]bexpr, len(sel.Items))
	bp.aggs = make([]aggSpec, len(sel.Items))
	for i, item := range sel.Items {
		switch {
		case item.Star:
		case isAggregate(item.Expr):
			bp.aggs[i] = b.bindAggregate(item.Expr.(*Call))
		default:
			bp.items[i] = b.bind(item.Expr)
		}
	}
	for _, o := range sel.OrderBy {
		bp.orderBy = append(bp.orderBy, b.bind(o.Expr))
	}
	for _, g := range sel.GroupBy {
		bp.groupBy = append(bp.groupBy, b.bind(g))
	}
	switch {
	case len(sel.GroupBy) > 0:
		bp.err = checkGrouped(sel)
		bp.orderCols, bp.orderErr = groupOrderKeyCols(sel)
	case hasAggregate(sel):
		bp.aggregate = true
		bp.err = checkAggregate(sel)
	}
	if !hasStar(sel) {
		bp.cols = resultColumns(sel, nil)
	}
	bp.nslots = b.slots
	return bp
}

// bindRow binds the expressions of a statement evaluated against one row
// with the given alias (DML) or against no row (alias list empty).
func (en *Engine) bindRow(aliases []string, exprs ...Expr) ([]bexpr, int) {
	b := &binder{en: en, sc: bindScope{aliases: aliases}}
	out := make([]bexpr, len(exprs))
	for i, e := range exprs {
		if e != nil {
			out[i] = b.bind(e)
		}
	}
	return out, b.slots
}

// legAlias is the alias a FROM item binds: its own, its table or view
// name, or TABLE_n for an unaliased TABLE() item.
func legAlias(f FromItem, i int) string {
	switch {
	case f.Alias != "":
		return f.Alias
	case f.Table != "":
		return f.Table
	default:
		return fmt.Sprintf("TABLE_%d", i+1)
	}
}

func hasStar(sel *SelectStmt) bool {
	for _, item := range sel.Items {
		if item.Star {
			return true
		}
	}
	return false
}

func (b *binder) bindAggregate(c *Call) aggSpec {
	a := aggSpec{fn: strings.ToUpper(c.Name)}
	switch {
	case c.Star:
	case len(c.Args) == 1:
		a.arg = b.bind(c.Args[0])
	default:
		a.arg = errNode{fmt.Errorf("sql: %s takes one argument", c.Name)}
	}
	return a
}

// bind binds one expression against the binder's current scope.
func (b *binder) bind(e Expr) bexpr {
	switch x := e.(type) {
	case *Lit:
		return x
	case *Path:
		return b.bindPath(x)
	case *Call:
		return b.bindCall(x)
	case *CastMultiset:
		return &castNode{typeName: x.TypeName, sub: b.bindSub(x.Sub)}
	case *Binary:
		n := &binaryNode{op: x.Op, l: b.bind(x.L), r: b.bind(x.R)}
		n.lTrim, n.lLit = trimmedLit(x.L)
		n.rTrim, n.rLit = trimmedLit(x.R)
		return n
	case *Unary:
		return &unaryNode{op: x.Op, e: b.bind(x.E)}
	case *IsNull:
		return &isNullNode{e: b.bind(x.E), not: x.Not}
	case *Exists:
		return &existsNode{sub: b.bindSub(x.Sub)}
	default:
		return errNode{fmt.Errorf("sql: unknown expression %T", e)}
	}
}

// bindSub binds a correlated subquery against the legs visible here.
func (b *binder) bindSub(sub *SelectStmt) *boundSelect {
	outer := b.sc
	return b.en.bindSelect(sub, &outer)
}

// trimmedLit reports the blank-trimmed text of a string literal, which a
// comparison then trims once here instead of on every row.
func trimmedLit(e Expr) (string, bool) {
	if l, ok := e.(*Lit); ok {
		if s, ok := l.Val.(ordb.Str); ok {
			return strings.TrimRight(string(s), " "), true
		}
	}
	return "", false
}

func (b *binder) bindPath(p *Path) bexpr {
	head := p.Parts[0]
	if at, ok := b.alias(head); ok {
		if len(p.Parts) == 1 {
			return &aliasNode{at: at, name: head}
		}
		return &columnNode{at: at, head: head, col: p.Parts[1], slot: b.slot(), steps: b.steps(p.Parts[1:])}
	}
	// Unqualified: the first part is a column of the innermost leg that
	// has one.
	n := &unqualNode{name: head}
	d := 0
	for sc := &b.sc; sc != nil; sc = sc.outer {
		for i := len(sc.aliases) - 1; i >= 0; i-- {
			n.cands = append(n.cands, colCand{at: legRef{d, i}, slot: b.slot()})
		}
		d++
	}
	if len(n.cands) == 0 {
		return errNode{fmt.Errorf("sql: unknown column or alias %q", head)}
	}
	n.steps = b.steps(p.Parts[1:])
	return n
}

func (b *binder) steps(names []string) []navStep {
	out := make([]navStep, len(names))
	for i, name := range names {
		out[i] = navStep{name: name, slot: b.slot()}
	}
	return out
}

func (b *binder) bindCall(c *Call) bexpr {
	upper := strings.ToUpper(c.Name)
	switch upper {
	case "COUNT", "MIN", "MAX", "SUM", "AVG":
		return errNode{fmt.Errorf("sql: aggregate %s is only allowed in the select list", upper)}
	case "REF", "VALUE":
		at, err := b.aliasArg(c)
		if err != nil {
			return errNode{err}
		}
		return &rowCallNode{value: upper == "VALUE", at: at}
	case "DEREF":
		if len(c.Args) != 1 {
			return errNode{fmt.Errorf("sql: DEREF takes one argument")}
		}
		return &derefNode{arg: b.bind(c.Args[0])}
	}
	n := &ctorNode{name: c.Name, args: make([]bexpr, len(c.Args))}
	for i, a := range c.Args {
		n.args[i] = b.bind(a)
	}
	return n
}

func (b *binder) aliasArg(c *Call) (legRef, error) {
	if len(c.Args) != 1 {
		return legRef{}, fmt.Errorf("sql: %s takes one alias argument", c.Name)
	}
	p, ok := c.Args[0].(*Path)
	if !ok || len(p.Parts) != 1 {
		return legRef{}, fmt.Errorf("sql: %s argument must be a table alias", c.Name)
	}
	at, ok := b.alias(p.Parts[0])
	if !ok {
		return legRef{}, fmt.Errorf("sql: unknown alias %q", p.Parts[0])
	}
	return at, nil
}

// Per-execution memo -----------------------------------------------------

// slot memoises one name's resolution for one execution: a column slot
// keeps the position of a column name in the scope's column-name slice,
// a navigation slot the attribute a step selects in an object type.
type slot struct {
	cols []string
	idx  int
	ok   bool
	attr ordb.AttrSlot
}

// sameCols reports whether two column-name slices are the same slice.
func sameCols(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// column returns the named column of scope s through memo slot i.
func (st *execState) column(s *scope, i int, name string) (ordb.Value, bool) {
	sl := &st.slots[i]
	if !sl.ok || !sameCols(sl.cols, s.cols) {
		sl.resolve(s.cols, name)
	}
	if sl.idx >= 0 {
		return s.vals[sl.idx], true
	}
	if s.rowView != nil {
		return s.rowView.Col(name)
	}
	return nil, false
}

// resolve memoises the position of column name in cols.
func (sl *slot) resolve(cols []string, name string) {
	sl.cols, sl.idx, sl.ok = cols, -1, true
	for j, c := range cols {
		if strings.EqualFold(c, name) {
			sl.idx = j
			return
		}
	}
}

// scope returns the binding of leg at.
func (st *execState) scope(at legRef) *scope {
	for d := at.depth; d > 0; d-- {
		st = st.outer
	}
	return &st.scopes[at.leg]
}

// navStep is one dot-notation attribute step with its memo slot.
type navStep struct {
	name string
	slot int
}

// navigate walks steps from v. A NULL anywhere along the path yields NULL.
func (st *execState) navigate(v ordb.Value, steps []navStep) (ordb.Value, error) {
	for _, s := range steps {
		if ordb.IsNull(v) {
			return ordb.Null{}, nil
		}
		var err error
		if v, err = st.en.db.NavigateStep(v, s.name, &st.slots[s.slot].attr); err != nil {
			return nil, err
		}
	}
	if v == nil {
		return ordb.Null{}, nil
	}
	return v, nil
}
