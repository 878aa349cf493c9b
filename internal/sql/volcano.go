package sql

import (
	"fmt"
	"sort"
	"strings"

	"xmlordb/internal/exec"
	"xmlordb/internal/ordb"
)

// Volcano-style plan construction. buildSelect turns a SELECT into a
// tree of exec plan nodes; the nodes pull rows one at a time through
// Next(). The exec package is SQL-agnostic: every predicate, projection
// and aggregation step is a closure built here that reads the shared
// evaluation environment `ev`, which the FROM legs keep bound to the
// current row combination. The single-threaded pull discipline makes
// that side-effect binding safe. Binding a row allocates nothing: scopes
// come from the execState free list, each unnest leg reuses one iterator,
// literals are boxed by the parser and catalog lookups fold names on the
// stack. TestScanAllocations (root package) pins it: the read_mix join and
// XPath over 1 000 Appendix A documents stay under a fixed allocation
// ceiling, and a larger store adds no allocations beyond its added
// result rows.

// buildSelect compiles sel into an executable plan rooted at a node
// whose rows are the final result rows. outer supplies the environment
// of correlated subqueries.
func (en *Engine) buildSelect(sel *SelectStmt, outer *env) (exec.Node, []string, error) {
	if len(sel.From) == 0 {
		return nil, nil, fmt.Errorf("sql: SELECT requires a FROM clause")
	}
	cols, err := en.resultColumns(sel)
	if err != nil {
		return nil, nil, err
	}
	plan := en.planFor(sel)
	st := newExecState(len(sel.From))
	ev := &env{parent: outer}
	legs := make([]exec.Leg, len(sel.From))
	for i, item := range sel.From {
		if item.Unnest != nil {
			legs[i] = en.newUnnestLeg(ev, st, item, i)
		} else {
			legs[i] = en.newSourceLeg(ev, st, item, i, plan.join(i))
		}
	}
	var node exec.Node = &exec.Join{Legs: legs}
	if sel.Where != nil {
		where := sel.Where
		node = &exec.Filter{
			Child: node,
			Cond:  FormatExpr(where),
			Pred:  func() (bool, error) { return en.whereMatches(where, ev) },
		}
	}
	if len(sel.GroupBy) > 0 {
		node, err = en.buildGrouped(sel, ev, node)
		if err != nil {
			return nil, nil, err
		}
		return node, cols, nil
	}
	if aggregateCalls(sel) != nil {
		node, err = en.buildAggregate(sel, ev, node)
		if err != nil {
			return nil, nil, err
		}
		return node, cols, nil
	}
	return en.buildProjection(sel, ev, node), cols, nil
}

// buildProjection assembles Project (+ Sort) for a plain row query.
// ORDER BY keys are evaluated inside Emit, while the row binding is
// live, and carried as hidden trailing columns that Sort strips — the
// same key-per-row evaluation order as the eager path.
func (en *Engine) buildProjection(sel *SelectStmt, ev *env, child exec.Node) exec.Node {
	var node exec.Node = &exec.Project{
		Child: child,
		Cols:  selectListText(sel),
		Emit: func() (exec.Row, error) {
			row, err := en.projectRow(sel, ev)
			if err != nil {
				return nil, err
			}
			for _, o := range sel.OrderBy {
				k, err := en.eval(o.Expr, ev)
				if err != nil {
					return nil, err
				}
				row = append(row, k)
			}
			return row, nil
		},
	}
	if len(sel.OrderBy) == 0 {
		return node
	}
	nKeys := len(sel.OrderBy)
	return &exec.Sort{
		Child: node,
		By:    orderByText(sel),
		Strip: nKeys,
		SortFn: func(rows []exec.Row) error {
			var sortErr error
			sort.SliceStable(rows, func(i, j int) bool {
				a, b := rows[i], rows[j]
				for k, o := range sel.OrderBy {
					c, err := orderCompare(a[len(a)-nKeys+k], b[len(b)-nKeys+k])
					if err != nil && sortErr == nil {
						sortErr = err
					}
					if o.Desc {
						c = -c
					}
					if c != 0 {
						return c < 0
					}
				}
				return false
			})
			return sortErr
		},
	}
}

// buildAggregate assembles the no-GROUP-BY aggregation node, which emits
// exactly one row even over empty input.
func (en *Engine) buildAggregate(sel *SelectStmt, ev *env, child exec.Node) (exec.Node, error) {
	accs, err := newAccumulators(sel)
	if err != nil {
		return nil, err
	}
	return &exec.Aggregate{
		Child: child,
		Funcs: selectListText(sel),
		Add: func() error {
			for _, a := range accs {
				if err := a.add(en, ev); err != nil {
					return err
				}
			}
			return nil
		},
		Emit: func() (exec.Row, error) {
			row := make([]ordb.Value, len(accs))
			for i, a := range accs {
				row[i] = a.result()
			}
			return row, nil
		},
	}, nil
}

// groupState is the per-group accumulator state of a GroupBy node.
type groupState struct {
	accs []*accumulator
	rep  []ordb.Value
}

// buildGrouped assembles GroupBy (+ Sort). Select items are classified
// at build time — the same validation errors as the eager path, raised
// before any row is read.
func (en *Engine) buildGrouped(sel *SelectStmt, ev *env, child exec.Node) (exec.Node, error) {
	groupTexts := make([]string, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		groupTexts[i] = FormatExpr(g)
	}
	isGroupExpr := func(e Expr) bool {
		text := FormatExpr(e)
		for _, g := range groupTexts {
			if g == text {
				return true
			}
		}
		return false
	}
	aggItem := make([]bool, len(sel.Items))
	for i, item := range sel.Items {
		if item.Star {
			return nil, fmt.Errorf("sql: SELECT * cannot be combined with GROUP BY")
		}
		if c, ok := item.Expr.(*Call); ok && aggregateNames[strings.ToUpper(c.Name)] {
			aggItem[i] = true
			continue
		}
		if !isGroupExpr(item.Expr) {
			return nil, fmt.Errorf("sql: %s is neither an aggregate nor a GROUP BY expression",
				FormatExpr(item.Expr))
		}
	}
	var node exec.Node = &exec.GroupBy{
		Child: child,
		Keys:  strings.Join(groupTexts, ", "),
		Key: func() (string, error) {
			var keyParts []string
			for _, g := range sel.GroupBy {
				v, err := en.eval(g, ev)
				if err != nil {
					return "", err
				}
				k, _ := joinKey(v)
				keyParts = append(keyParts, k)
			}
			return strings.Join(keyParts, "\x00"), nil
		},
		NewGroup: func() (any, error) {
			grp := &groupState{rep: make([]ordb.Value, len(sel.Items))}
			for i, item := range sel.Items {
				if aggItem[i] {
					grp.accs = append(grp.accs, &accumulator{call: item.Expr.(*Call)})
					continue
				}
				grp.accs = append(grp.accs, nil)
				v, err := en.eval(item.Expr, ev)
				if err != nil {
					return nil, err
				}
				grp.rep[i] = v
			}
			return grp, nil
		},
		Add: func(state any) error {
			grp := state.(*groupState)
			for i := range sel.Items {
				if aggItem[i] {
					if err := grp.accs[i].add(en, ev); err != nil {
						return err
					}
				}
			}
			return nil
		},
		Emit: func(state any) (exec.Row, error) {
			grp := state.(*groupState)
			row := make([]ordb.Value, len(sel.Items))
			for i := range sel.Items {
				if aggItem[i] {
					row[i] = grp.accs[i].result()
				} else {
					row[i] = grp.rep[i]
				}
			}
			return row, nil
		},
	}
	if len(sel.OrderBy) == 0 {
		return node, nil
	}
	return &exec.Sort{
		Child: node,
		By:    orderByText(sel),
		SortFn: func(rows []exec.Row) error {
			keyCols, err := groupOrderKeyCols(sel)
			if err != nil {
				return err
			}
			var sortErr error
			sort.SliceStable(rows, func(a, b int) bool {
				for i, o := range sel.OrderBy {
					c, err := orderCompare(rows[a][keyCols[i]], rows[b][keyCols[i]])
					if err != nil && sortErr == nil {
						sortErr = err
					}
					if o.Desc {
						c = -c
					}
					if c != 0 {
						return c < 0
					}
				}
				return false
			})
			return sortErr
		},
	}, nil
}

// groupOrderKeyCols resolves each ORDER BY key of a GROUP BY query to a
// select-item column (by expression text, alias, or default name).
func groupOrderKeyCols(sel *SelectStmt) ([]int, error) {
	keyCols := make([]int, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		text := FormatExpr(o.Expr)
		idx := -1
		for j, item := range sel.Items {
			if item.Star {
				continue
			}
			if FormatExpr(item.Expr) == text {
				idx = j
				break
			}
			if p, ok := o.Expr.(*Path); ok && len(p.Parts) == 1 &&
				(strings.EqualFold(item.Alias, p.Parts[0]) ||
					(item.Alias == "" && strings.EqualFold(defaultColumnName(item.Expr), p.Parts[0]))) {
				idx = j
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("sql: ORDER BY %s does not match a select item of the GROUP BY query", text)
		}
		keyCols[i] = idx
	}
	return keyCols, nil
}

// display helpers ------------------------------------------------------

func selectListText(sel *SelectStmt) string {
	parts := make([]string, len(sel.Items))
	for i, item := range sel.Items {
		if item.Star {
			parts[i] = "*"
			continue
		}
		parts[i] = FormatExpr(item.Expr)
		if item.Alias != "" {
			parts[i] += " AS " + item.Alias
		}
	}
	return strings.Join(parts, ", ")
}

func orderByText(sel *SelectStmt) string {
	parts := make([]string, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		parts[i] = FormatExpr(o.Expr)
		if o.Desc {
			parts[i] += " DESC"
		}
	}
	return strings.Join(parts, ", ")
}

// explainSelect compiles sel (without opening any iterator) and renders
// the plan tree, one node per row in a single PLAN column.
func (en *Engine) explainSelect(sel *SelectStmt) (*Rows, error) {
	node, _, err := en.buildSelect(sel, nil)
	if err != nil {
		return nil, err
	}
	out := &Rows{Cols: []string{"PLAN"}}
	for _, line := range exec.ExplainLines(node) {
		out.Data = append(out.Data, []ordb.Value{ordb.Str(line)})
	}
	return out, nil
}

// FROM legs ------------------------------------------------------------

// sourceLeg scans or probes a base table (or materializes a view). The
// catalog is resolved lazily at Open so that an unresolvable inner
// source only errors once the outer legs actually produce a row —
// preserving lateral evaluation order. The label is computed at build
// time on a best-effort catalog peek, purely for EXPLAIN.
type sourceLeg struct {
	en    *Engine
	ev    *env
	st    *execState
	item  FromItem
	idx   int
	js    *joinSpec
	label string
}

func (en *Engine) newSourceLeg(ev *env, st *execState, item FromItem, idx int, js *joinSpec) *sourceLeg {
	l := &sourceLeg{en: en, ev: ev, st: st, item: item, idx: idx, js: js}
	alias := item.Alias
	if alias == "" {
		alias = item.Table
	}
	name := item.Table + " AS " + alias
	if tbl, err := en.db.Table(item.Table); err == nil {
		switch {
		case js == nil:
			l.label = "TableScan " + name
		case tbl.EqIndex(js.keyCol) != nil:
			l.label = fmt.Sprintf("IndexProbe %s (%s = %s)", name, js.keyCol, FormatExpr(js.otherExpr))
		default:
			l.label = fmt.Sprintf("HashJoinProbe %s (%s = %s)", name, js.keyCol, FormatExpr(js.otherExpr))
		}
	} else if _, verr := en.db.View(item.Table); verr == nil {
		l.label = "ViewScan " + name
	} else {
		l.label = "TableScan " + name
	}
	return l
}

func (l *sourceLeg) Label() string         { return l.label }
func (l *sourceLeg) Children() []exec.Plan { return nil }

func (l *sourceLeg) Open() (exec.LegIter, error) {
	tbl, err := l.en.db.Table(l.item.Table)
	if err != nil {
		return l.openView()
	}
	alias := l.item.Alias
	if alias == "" {
		alias = tbl.Name
	}
	if l.js != nil {
		// Probe key evaluated against the outer bindings before this
		// leg's own scope exists.
		key, err := l.en.eval(l.js.otherExpr, l.ev)
		if err != nil {
			return nil, err
		}
		if rows, ok := tbl.ProbeEqual(l.js.keyCol, key); ok {
			return l.openRows(tbl, alias, rows), nil
		}
		jh := &l.st.hashes[l.idx]
		jh.build(tbl, l.js.keyCol)
		k, ok := joinKey(key)
		if !ok {
			return l.openRows(tbl, alias, nil), nil // NULL key joins nothing
		}
		return l.openRows(tbl, alias, jh.index[k]), nil
	}
	s := l.st.getScope()
	l.ev.scopes = append(l.ev.scopes, s)
	return &scanLegIter{leg: l, tbl: tbl, alias: alias, s: s, cur: tbl.Cursor()}, nil
}

// openRows binds a pre-fetched row list (index probe or hash bucket).
func (l *sourceLeg) openRows(tbl *ordb.Table, alias string, rows []*ordb.Row) exec.LegIter {
	s := l.st.getScope()
	l.ev.scopes = append(l.ev.scopes, s)
	return &rowsLegIter{leg: l, tbl: tbl, alias: alias, s: s, rows: rows}
}

// popScope unwinds one leg's scope binding.
func popScope(ev *env, st *execState, s *scope) {
	ev.scopes = ev.scopes[:len(ev.scopes)-1]
	st.putScope(s)
}

type rowsLegIter struct {
	leg   *sourceLeg
	tbl   *ordb.Table
	alias string
	s     *scope
	rows  []*ordb.Row
	i     int
}

func (it *rowsLegIter) Next() (bool, error) {
	if it.i >= len(it.rows) {
		return false, nil
	}
	fillTableScope(it.s, it.tbl, it.alias, it.rows[it.i])
	it.i++
	return true, nil
}

func (it *rowsLegIter) Close() error {
	popScope(it.leg.ev, it.leg.st, it.s)
	return nil
}

type scanLegIter struct {
	leg   *sourceLeg
	tbl   *ordb.Table
	alias string
	s     *scope
	cur   *ordb.Cursor
}

func (it *scanLegIter) Next() (bool, error) {
	r, ok := it.cur.Next()
	if !ok {
		return false, nil
	}
	fillTableScope(it.s, it.tbl, it.alias, r)
	return true, nil
}

func (it *scanLegIter) Close() error {
	it.cur.Close()
	popScope(it.leg.ev, it.leg.st, it.s)
	return nil
}

// openView materializes a view definition (one querySelect per outer
// binding, as before — view results are not cached across bindings).
func (l *sourceLeg) openView() (exec.LegIter, error) {
	view, err := l.en.db.View(l.item.Table)
	if err != nil {
		return nil, fmt.Errorf("sql: no table or view %q", l.item.Table)
	}
	vsel, ok := view.Compiled.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: view %s has no compiled definition", view.Name)
	}
	rows, err := l.en.querySelect(vsel, nil)
	if err != nil {
		return nil, fmt.Errorf("sql: view %s: %w", view.Name, err)
	}
	alias := l.item.Alias
	if alias == "" {
		alias = view.Name
	}
	s := l.st.getScope()
	l.ev.scopes = append(l.ev.scopes, s)
	return &viewLegIter{leg: l, alias: alias, s: s, rows: rows}, nil
}

type viewLegIter struct {
	leg   *sourceLeg
	alias string
	s     *scope
	rows  *Rows
	i     int
}

func (it *viewLegIter) Next() (bool, error) {
	if it.i >= len(it.rows.Data) {
		return false, nil
	}
	r := it.rows.Data[it.i]
	it.i++
	*it.s = scope{alias: it.alias, cols: it.rows.Cols, vals: r}
	if len(r) == 1 {
		it.s.whole = r[0]
	}
	return true, nil
}

func (it *viewLegIter) Close() error {
	popScope(it.leg.ev, it.leg.st, it.s)
	return nil
}

// unnestLeg is a lateral TABLE(expr) item: the collection expression is
// re-evaluated against the outer bindings every time the leg opens. The
// join closes a leg before it reopens it, so the leg keeps one iterator
// and reuses it on every Open, together with the attribute-column cache:
// an unnest under an outer scan allocates nothing per outer row.
type unnestLeg struct {
	en    *Engine
	ev    *env
	st    *execState
	item  FromItem
	alias string
	it    unnestLegIter
	// attrTypeName/attrCols cache the attribute names of the element
	// object type: collection elements are homogeneous, so one lookup
	// serves every element of every open.
	attrTypeName string
	attrCols     []string
	// scalar backs the COLUMN_VALUE of a scalar element.
	scalar [1]ordb.Value
}

func (en *Engine) newUnnestLeg(ev *env, st *execState, item FromItem, idx int) *unnestLeg {
	alias := item.Alias
	if alias == "" {
		alias = fmt.Sprintf("TABLE_%d", idx+1)
	}
	return &unnestLeg{en: en, ev: ev, st: st, item: item, alias: alias}
}

func (l *unnestLeg) Label() string {
	return fmt.Sprintf("Unnest TABLE(%s) AS %s", FormatExpr(l.item.Unnest), l.alias)
}

func (l *unnestLeg) Children() []exec.Plan { return nil }

func (l *unnestLeg) Open() (exec.LegIter, error) {
	v, err := l.en.eval(l.item.Unnest, l.ev)
	if err != nil {
		return nil, err
	}
	var elems []ordb.Value
	if !ordb.IsNull(v) {
		coll, ok := v.(*ordb.Coll)
		if !ok {
			return nil, fmt.Errorf("sql: TABLE() requires a collection, got %T", v)
		}
		elems = coll.Elems
	}
	s := l.st.getScope()
	l.ev.scopes = append(l.ev.scopes, s)
	l.it = unnestLegIter{leg: l, s: s, elems: elems}
	return &l.it, nil
}

type unnestLegIter struct {
	leg   *unnestLeg
	s     *scope
	elems []ordb.Value
	i     int
}

func (it *unnestLegIter) Next() (bool, error) {
	if it.i >= len(it.elems) {
		return false, nil
	}
	elem := it.elems[it.i]
	it.i++
	l := it.leg
	s := it.s
	*s = scope{alias: l.alias, whole: elem}
	// Object elements expose their attributes as columns; a REF element
	// is dereferenced transparently for column access.
	resolved := elem
	if r, isRef := elem.(ordb.Ref); isRef {
		o, err := l.en.db.Deref(r)
		if err != nil {
			return false, err
		}
		resolved = o
		s.table = r.Table
		s.oid = r.OID
	}
	if o, isObj := resolved.(*ordb.Object); isObj {
		if l.attrCols == nil || l.attrTypeName != o.TypeName {
			t, err := l.en.db.Type(o.TypeName)
			if err != nil {
				return false, err
			}
			attrs := t.(*ordb.ObjectType).Attrs
			l.attrCols = make([]string, len(attrs))
			for i, a := range attrs {
				l.attrCols[i] = a.Name
			}
			l.attrTypeName = o.TypeName
		}
		s.cols = l.attrCols
		s.vals = o.Attrs
		s.whole = o
	} else {
		// Scalar elements expose Oracle's COLUMN_VALUE.
		l.scalar[0] = resolved
		s.cols = columnValueCols
		s.vals = l.scalar[:]
	}
	return true, nil
}

func (it *unnestLegIter) Close() error {
	popScope(it.leg.ev, it.leg.st, it.s)
	return nil
}
