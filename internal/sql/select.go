package sql

import (
	"fmt"
	"strings"

	"xmlordb/internal/ordb"
)

// querySelect executes a top-level SELECT or a view definition. The
// statement is bound once per cached plan (bind.go), compiled into a
// Volcano-style iterator pipeline (see volcano.go and internal/exec) and
// drained into a materialized Rows result. FROM items are evaluated left
// to right with lateral visibility: a TABLE(expr) item may reference the
// aliases bound by items to its left, as Oracle's collection unnesting
// permits.
//
// Equality predicates between base-table columns are executed as hash
// joins: the inner table is indexed once per query and probed with the
// outer key, so equi-joins cost O(n+m) rather than O(n*m).
func (en *Engine) querySelect(sel *SelectStmt) (*Rows, error) {
	return en.run(sel, nil, nil)
}

// run executes sel with its bound plan bp — nil to take it from the plan
// cache — and outer, the execution state of the enclosing query of a
// correlated subquery.
func (en *Engine) run(sel *SelectStmt, bp *boundSelect, outer *execState) (*Rows, error) {
	node, cols, err := en.buildSelect(sel, bp, outer)
	if err != nil {
		return nil, err
	}
	out := &Rows{Cols: cols}
	it, err := node.Open()
	if err != nil {
		return nil, err
	}
	for {
		r, err := it.Next()
		if err != nil {
			it.Close()
			return nil, err
		}
		if r == nil {
			break
		}
		out.Data = append(out.Data, r)
	}
	if err := it.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// orderCompare orders values with NULLs last (Oracle's ascending default).
func orderCompare(a, b ordb.Value) (int, error) {
	an, bn := ordb.IsNull(a), ordb.IsNull(b)
	switch {
	case an && bn:
		return 0, nil
	case an:
		return 1, nil
	case bn:
		return -1, nil
	}
	return ordb.Compare(a, b)
}

// aggregate machinery -------------------------------------------------

var aggregateNames = map[string]bool{
	"COUNT": true, "MIN": true, "MAX": true, "SUM": true, "AVG": true,
}

// hasAggregate reports whether the select list aggregates.
func hasAggregate(sel *SelectStmt) bool {
	for _, item := range sel.Items {
		if isAggregate(item.Expr) {
			return true
		}
	}
	return false
}

// isAggregate reports an aggregate call.
func isAggregate(e Expr) bool {
	c, ok := e.(*Call)
	return ok && aggregateNames[strings.ToUpper(c.Name)]
}

type accumulator struct {
	aggSpec
	n    int
	sum  float64
	best ordb.Value // MIN/MAX running value
}

// checkAggregate validates that every select item of a query without
// GROUP BY is an aggregate of one argument (or COUNT(*)).
func checkAggregate(sel *SelectStmt) error {
	for _, item := range sel.Items {
		if !isAggregate(item.Expr) {
			return fmt.Errorf("sql: cannot mix aggregates with row expressions (no GROUP BY support)")
		}
		c := item.Expr.(*Call)
		if !c.Star && len(c.Args) != 1 {
			return fmt.Errorf("sql: %s takes one argument", c.Name)
		}
	}
	return nil
}

func (a *accumulator) add(st *execState) error {
	if a.arg == nil {
		a.n++
		return nil
	}
	v, err := a.arg.eval(st)
	if err != nil {
		return err
	}
	if ordb.IsNull(v) {
		return nil // aggregates skip NULLs
	}
	switch a.fn {
	case "COUNT":
		a.n++
	case "SUM", "AVG":
		n, ok := v.(ordb.Num)
		if !ok {
			return fmt.Errorf("sql: %s requires numeric values, got %T", a.fn, v)
		}
		a.n++
		a.sum += float64(n)
	case "MIN", "MAX":
		if a.best == nil {
			a.best = v
			return nil
		}
		c, err := ordb.Compare(v, a.best)
		if err != nil {
			return err
		}
		if (a.fn == "MIN" && c < 0) || (a.fn == "MAX" && c > 0) {
			a.best = v
		}
	}
	return nil
}

func (a *accumulator) result() ordb.Value {
	switch a.fn {
	case "COUNT":
		return ordb.Num(a.n)
	case "SUM":
		if a.n == 0 {
			return ordb.Null{}
		}
		return ordb.Num(a.sum)
	case "AVG":
		if a.n == 0 {
			return ordb.Null{}
		}
		return ordb.Num(a.sum / float64(a.n))
	default: // MIN, MAX
		if a.best == nil {
			return ordb.Null{}
		}
		return a.best
	}
}

// join planning --------------------------------------------------------

// joinSpec accelerates one FROM item: rows whose keyCol equals the value
// of key (otherExpr bound against the legs to the item's left) are
// fetched by a persistent-index probe when the column is indexed, or from
// a hash table built once per execution otherwise. The spec itself is
// immutable — plans are cached per statement (see cache.go) — while
// per-execution hash state lives in execState.
type joinSpec struct {
	keyCol    string
	otherExpr Expr
	key       bexpr
}

// execState is the per-execution state of one SELECT, or of one DML
// statement or CHECK evaluation: the row binding of each FROM leg, the
// memo slots of the bound expressions (bind.go), and the lazily built
// fallback hash tables. A correlated subquery's state points at the
// state of the query it is evaluated in.
type execState struct {
	en     *Engine
	outer  *execState
	scopes []scope // one per FROM leg, in FROM order
	slots  []slot
	hashes []joinHash // one per FROM leg once a hash join needs one
}

func (en *Engine) newExecState(outer *execState, legs, slots int) *execState {
	return &execState{en: en, outer: outer, scopes: make([]scope, legs), slots: make([]slot, slots)}
}

type joinHash struct {
	index map[string][]*ordb.Row
	built bool
}

// planJoins finds equality conjuncts that let a FROM item avoid a full
// scan: `a.x = b.y` joining the item to an earlier one, or `a.x = const`
// filtering it directly. aliases are the legs' aliases.
func (en *Engine) planJoins(sel *SelectStmt, aliases []string) []*joinSpec {
	joins := make([]*joinSpec, len(sel.From))
	conjuncts := flattenAnd(sel.Where)
	boundBefore := func(idx int, alias string) bool {
		for j := 0; j < idx; j++ {
			if strings.EqualFold(aliases[j], alias) {
				return true
			}
		}
		return false
	}
	for i, f := range sel.From {
		if f.Table == "" {
			continue
		}
		tbl, err := en.db.Table(f.Table)
		if err != nil {
			continue // views and TABLE() items scan normally
		}
		for _, c := range conjuncts {
			b, ok := c.(*Binary)
			if !ok || b.Op != "=" {
				continue
			}
			var mine *Path
			var other Expr
			lp, lok := b.L.(*Path)
			rp, rok := b.R.(*Path)
			switch {
			case i > 0 && lok && rok && len(lp.Parts) == 2 && len(rp.Parts) == 2 &&
				strings.EqualFold(lp.Parts[0], aliases[i]) && boundBefore(i, rp.Parts[0]):
				mine, other = lp, rp
			case i > 0 && lok && rok && len(lp.Parts) == 2 && len(rp.Parts) == 2 &&
				strings.EqualFold(rp.Parts[0], aliases[i]) && boundBefore(i, lp.Parts[0]):
				mine, other = rp, lp
			case lok && len(lp.Parts) == 2 && strings.EqualFold(lp.Parts[0], aliases[i]) && isConstExpr(b.R):
				mine, other = lp, b.R
			case rok && len(rp.Parts) == 2 && strings.EqualFold(rp.Parts[0], aliases[i]) && isConstExpr(b.L):
				mine, other = rp, b.L
			default:
				continue
			}
			if tbl.ColIndex(mine.Parts[1]) < 0 {
				continue
			}
			joins[i] = &joinSpec{keyCol: mine.Parts[1], otherExpr: other}
			break
		}
	}
	return joins
}

// isConstExpr reports expressions whose value cannot depend on any row
// binding — usable as a probe key for any FROM item, including the first.
func isConstExpr(e Expr) bool {
	_, ok := e.(*Lit)
	return ok
}

// flattenAnd splits a WHERE tree into its top-level AND conjuncts.
func flattenAnd(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return append(flattenAnd(b.L), flattenAnd(b.R)...)
	}
	return []Expr{e}
}

// columnValueCols is the shared column-name slice of scalar TABLE()
// elements.
var columnValueCols = []string{"COLUMN_VALUE"}

// joinKey is v's key in the per-execution hash join: SQL `=`'s one
// normalisation (appendJoinKey). NULL has none: it never joins.
func joinKey(v ordb.Value) (string, bool) {
	var buf [64]byte
	k, ok := appendJoinKey(buf[:0], v)
	return string(k), ok
}

// appendJoinKey appends v's part of a hash-join or GROUP BY key, or
// reports false for NULL. Scalars and REFs take their equality key
// (ordb.AppendEqualKey), so values equal under `=` share a key: CHAR
// padding, -0 and a DATE's location do not split them. Objects and
// collections take their SQL text, marked apart from the scalar kinds.
// Every part delimits itself, so parts concatenate without a separator.
func appendJoinKey(dst []byte, v ordb.Value) ([]byte, bool) {
	if ordb.IsNull(v) {
		return dst, false
	}
	if k, ok := ordb.AppendEqualKey(dst, v); ok {
		return k, true
	}
	return ordb.AppendEqualKey(append(dst, 'o'), ordb.Str(v.SQL()))
}

// build constructs the per-execution fallback hash over keyCol. Used
// only when the column has no persistent index.
func (jh *joinHash) build(t *ordb.Table, keyCol string) {
	if jh.built {
		return
	}
	jh.built = true
	jh.index = map[string][]*ordb.Row{}
	idx := t.ColIndex(keyCol)
	if idx < 0 {
		return // column vanished under a stale plan; empty hash is safe
	}
	t.Scan(func(r *ordb.Row) bool {
		if k, ok := joinKey(r.Vals[idx]); ok {
			jh.index[k] = append(jh.index[k], r)
		}
		return true
	})
}

// projectRow evaluates the select list for the current row binding and
// appends the ORDER BY keys after it. A * item expands each FROM leg to
// the columns starLegs named for it (legCols), or to its whole value
// where whole is set.
func projectRow(bp *boundSelect, st *execState, legCols [][]ordb.Column, whole []bool) ([]ordb.Value, error) {
	out := make([]ordb.Value, 0, len(bp.items)+len(bp.orderBy))
	for i, e := range bp.items {
		if e != nil {
			v, err := e.eval(st)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
			continue
		}
		if !bp.sel.Items[i].Star {
			continue
		}
		// Expand every leg of this query, as its columns were named; a
		// NULL element of an object collection reads as NULL attributes.
		for j := range st.scopes {
			s := &st.scopes[j]
			if whole[j] {
				out = append(out, s.value())
				continue
			}
			for k := range legCols[j] {
				var v ordb.Value = ordb.Null{}
				if k < len(s.vals) {
					v = s.vals[k]
				}
				out = append(out, v)
			}
		}
	}
	for _, o := range bp.orderBy {
		k, err := o.eval(st)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// resultColumns derives the output column names. legCols names the
// columns of each FROM leg that a * item expands to; it is needed only
// when the select list has one.
func resultColumns(sel *SelectStmt, legCols [][]ordb.Column) []string {
	var cols []string
	for _, item := range sel.Items {
		switch {
		case item.Star:
			for _, lc := range legCols {
				for _, c := range lc {
					cols = append(cols, c.Name)
				}
			}
		case item.Alias != "":
			cols = append(cols, item.Alias)
		default:
			cols = append(cols, defaultColumnName(item.Expr))
		}
	}
	return cols
}

// starLegs resolves, against the catalog, the columns of each FROM leg
// as a * item expands them, with their types where the catalog knows
// them. A table or view leg expands to its columns. A TABLE() leg
// expands to the attributes of its element type (of the REF target for
// REF elements) when that type follows statically from the argument,
// and otherwise to one COLUMN_VALUE holding the whole element; whole
// marks those legs.
func (en *Engine) starLegs(sel *SelectStmt) (legs [][]ordb.Column, whole []bool, err error) {
	legs = make([][]ordb.Column, len(sel.From))
	whole = make([]bool, len(sel.From))
	aliases := make([]string, len(sel.From))
	for i, f := range sel.From {
		aliases[i] = legAlias(f, i)
		if f.Table == "" {
			legs[i], whole[i] = elemColumns(en.exprType(f.Unnest, aliases[:i], legs[:i]))
			continue
		}
		if tbl, err := en.db.Table(f.Table); err == nil {
			legs[i] = tbl.Cols
			continue
		}
		if view, err := en.db.View(f.Table); err == nil {
			if vsel, ok := view.Compiled.(*SelectStmt); ok {
				vlegs, _, err := en.starLegs(vsel)
				if err != nil {
					return nil, nil, err
				}
				for _, name := range resultColumns(vsel, vlegs) {
					legs[i] = append(legs[i], ordb.Column{Name: name})
				}
				continue
			}
		}
		return nil, nil, fmt.Errorf("sql: no table or view %q", f.Table)
	}
	return legs, whole, nil
}

// elemColumns names the columns of a TABLE() leg over a collection of
// type t (nil when unknown), reporting whether the leg expands to its
// whole element.
func elemColumns(t ordb.Type) ([]ordb.Column, bool) {
	elem := ordb.ElemType(t)
	if r, ok := elem.(*ordb.RefType); ok {
		elem = r.Target
	}
	if o, ok := elem.(*ordb.ObjectType); ok {
		cols := make([]ordb.Column, len(o.Attrs))
		for i, a := range o.Attrs {
			cols[i] = ordb.Column{Name: a.Name, Type: a.Type}
		}
		return cols, false
	}
	return []ordb.Column{{Name: "COLUMN_VALUE", Type: elem}}, true
}

// exprType is the static type of a TABLE() argument, resolved the way the
// binder resolves its names against the legs to its left, or nil when it
// does not follow from the catalog.
func (en *Engine) exprType(e Expr, aliases []string, legs [][]ordb.Column) ordb.Type {
	switch x := e.(type) {
	case *CastMultiset:
		t, _ := en.db.Type(x.TypeName)
		return t
	case *Path:
		t, steps, ok := headType(x.Parts, aliases, legs)
		if !ok {
			return nil
		}
		for _, step := range steps {
			if r, isRef := t.(*ordb.RefType); isRef {
				t = r.Target
			}
			o, isObj := t.(*ordb.ObjectType)
			if !isObj {
				return nil
			}
			a := o.Attr(step)
			if a == nil {
				return nil
			}
			t = a.Type
		}
		return t
	}
	return nil
}

// headType types the column a path starts from — an alias's column, or
// else an unqualified column of the innermost leg that has one — and
// returns the attribute steps that follow it.
func headType(parts, aliases []string, legs [][]ordb.Column) (ordb.Type, []string, bool) {
	for j := len(aliases) - 1; j >= 0; j-- {
		if strings.EqualFold(aliases[j], parts[0]) {
			if len(parts) < 2 {
				return nil, nil, false
			}
			t, ok := columnType(legs[j], parts[1])
			return t, parts[2:], ok
		}
	}
	for j := len(legs) - 1; j >= 0; j-- {
		if t, ok := columnType(legs[j], parts[0]); ok {
			return t, parts[1:], true
		}
	}
	return nil, nil, false
}

func columnType(cols []ordb.Column, name string) (ordb.Type, bool) {
	for _, c := range cols {
		if strings.EqualFold(c.Name, name) {
			return c.Type, true
		}
	}
	return nil, false
}

func defaultColumnName(e Expr) string {
	switch x := e.(type) {
	case *Path:
		return x.Parts[len(x.Parts)-1]
	case *Call:
		if x.Star {
			return "COUNT(*)"
		}
		return strings.ToUpper(x.Name)
	case *CastMultiset:
		return x.TypeName
	default:
		return "EXPR"
	}
}
