package sql

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"xmlordb/internal/exec"
	"xmlordb/internal/ordb"
)

// Volcano-style plan construction. buildSelect turns a bound SELECT
// (bind.go) into a tree of exec plan nodes; the nodes pull rows one at a
// time through Next(). The exec package is SQL-agnostic: every
// predicate, projection and aggregation step is a closure built here
// that evaluates bound expressions against the execution's state `st`,
// whose per-leg scopes the FROM legs keep bound to the current row
// combination. The single-threaded pull discipline makes that
// side-effect binding safe. Names were bound to (depth, leg) positions
// once per cached plan, so the per-row path indexes slices and compares
// no name: a column's position in its scope and a navigation step's
// attribute index are memoised in st's slots, keyed on the scope's
// column-name slice and the object's type name. Binding a row allocates
// nothing: each leg owns one scope and reuses one iterator, literals are
// boxed by the parser and string literals trimmed by the binder, and the
// EXPLAIN texts are rendered only when a plan is explained.
// TestScanAllocations (root package) pins it: the read_mix join and XPath
// over 1 000 Appendix A documents stay under a fixed allocation ceiling,
// and a larger store adds no allocations beyond its added result rows.

// buildSelect compiles sel into an executable plan rooted at a node
// whose rows are the final result rows. bp is sel's bound plan, nil to
// take it from the plan cache; outer is the state of the enclosing query
// of a correlated subquery.
func (en *Engine) buildSelect(sel *SelectStmt, bp *boundSelect, outer *execState) (exec.Node, []string, error) {
	if len(sel.From) == 0 {
		return nil, nil, fmt.Errorf("sql: SELECT requires a FROM clause")
	}
	var legCols [][]ordb.Column
	var whole []bool
	var cols []string
	if hasStar(sel) {
		var err error
		if legCols, whole, err = en.starLegs(sel); err != nil {
			return nil, nil, err
		}
		cols = resultColumns(sel, legCols)
	}
	if bp == nil {
		bp = en.planFor(sel)
	}
	if bp.err != nil {
		return nil, nil, bp.err
	}
	if legCols == nil {
		cols = bp.cols
	}
	st := en.newExecState(outer, len(sel.From), bp.nslots)
	legs := make([]exec.Leg, len(sel.From))
	for i := range sel.From {
		if sel.From[i].Unnest != nil {
			legs[i] = newUnnestLeg(st, i, &bp.legs[i], &sel.From[i])
		} else {
			legs[i] = &sourceLeg{st: st, idx: i, spec: &bp.legs[i], item: &sel.From[i]}
		}
	}
	var node exec.Node = &exec.Join{Legs: legs}
	if bp.where != nil {
		node = &exec.Filter{
			Child: node,
			Cond:  (*whereText)(bp),
			Pred:  func() (bool, error) { return truth(bp.where, st) },
		}
	}
	switch {
	case len(sel.GroupBy) > 0:
		return buildGrouped(bp, st, node), cols, nil
	case bp.aggregate:
		return buildAggregate(bp, st, node), cols, nil
	}
	return buildProjection(bp, st, node, legCols, whole), cols, nil
}

// buildProjection assembles Project (+ Sort) for a plain row query.
// ORDER BY keys are evaluated inside Emit, while the row binding is
// live, and carried as hidden trailing columns that Sort strips — the
// same key-per-row evaluation order as the eager path.
func buildProjection(bp *boundSelect, st *execState, child exec.Node, legCols [][]ordb.Column, whole []bool) exec.Node {
	var node exec.Node = &exec.Project{
		Child: child,
		Cols:  (*itemsText)(bp),
		Emit:  func() (exec.Row, error) { return projectRow(bp, st, legCols, whole) },
	}
	if len(bp.orderBy) == 0 {
		return node
	}
	order := bp.sel.OrderBy
	nKeys := len(order)
	return &exec.Sort{
		Child: node,
		By:    (*orderText)(bp),
		Strip: nKeys,
		SortFn: func(rows []exec.Row) error {
			var sortErr error
			sort.SliceStable(rows, func(i, j int) bool {
				a, b := rows[i], rows[j]
				for k, o := range order {
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
func buildAggregate(bp *boundSelect, st *execState, child exec.Node) exec.Node {
	accs := make([]accumulator, len(bp.aggs))
	for i, a := range bp.aggs {
		accs[i].aggSpec = a
	}
	return &exec.Aggregate{
		Child: child,
		Funcs: (*itemsText)(bp),
		Add: func() error {
			for i := range accs {
				if err := accs[i].add(st); err != nil {
					return err
				}
			}
			return nil
		},
		Emit: func() (exec.Row, error) {
			row := make([]ordb.Value, len(accs))
			for i := range accs {
				row[i] = accs[i].result()
			}
			return row, nil
		},
	}
}

// groupState is the per-group accumulator state of a GroupBy node.
type groupState struct {
	accs []*accumulator
	rep  []ordb.Value
}

// checkGrouped classifies the select items of a GROUP BY query: each
// must be an aggregate or one of the GROUP BY expressions.
func checkGrouped(sel *SelectStmt) error {
	groupTexts := make([]string, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		groupTexts[i] = FormatExpr(g)
	}
	for _, item := range sel.Items {
		if item.Star {
			return fmt.Errorf("sql: SELECT * cannot be combined with GROUP BY")
		}
		if isAggregate(item.Expr) {
			continue
		}
		if text := FormatExpr(item.Expr); !slices.Contains(groupTexts, text) {
			return fmt.Errorf("sql: %s is neither an aggregate nor a GROUP BY expression", text)
		}
	}
	return nil
}

// buildGrouped assembles GroupBy (+ Sort). The select items were
// classified by checkGrouped when the plan was bound.
func buildGrouped(bp *boundSelect, st *execState, child exec.Node) exec.Node {
	var node exec.Node = &exec.GroupBy{
		Child: child,
		Keys:  (*groupText)(bp),
		Key: func() (string, error) {
			var keyParts []string
			for _, g := range bp.groupBy {
				v, err := g.eval(st)
				if err != nil {
					return "", err
				}
				k, _ := joinKey(v)
				keyParts = append(keyParts, k)
			}
			return strings.Join(keyParts, "\x00"), nil
		},
		NewGroup: func() (any, error) {
			grp := &groupState{rep: make([]ordb.Value, len(bp.items))}
			for i, e := range bp.items {
				if bp.aggs[i].fn != "" {
					grp.accs = append(grp.accs, &accumulator{aggSpec: bp.aggs[i]})
					continue
				}
				grp.accs = append(grp.accs, nil)
				v, err := e.eval(st)
				if err != nil {
					return nil, err
				}
				grp.rep[i] = v
			}
			return grp, nil
		},
		Add: func(state any) error {
			grp := state.(*groupState)
			for _, a := range grp.accs {
				if a != nil {
					if err := a.add(st); err != nil {
						return err
					}
				}
			}
			return nil
		},
		Emit: func(state any) (exec.Row, error) {
			grp := state.(*groupState)
			row := make([]ordb.Value, len(bp.items))
			for i, a := range grp.accs {
				if a != nil {
					row[i] = a.result()
				} else {
					row[i] = grp.rep[i]
				}
			}
			return row, nil
		},
	}
	if len(bp.orderBy) == 0 {
		return node
	}
	order := bp.sel.OrderBy
	return &exec.Sort{
		Child: node,
		By:    (*orderText)(bp),
		SortFn: func(rows []exec.Row) error {
			if bp.orderErr != nil {
				return bp.orderErr
			}
			keyCols := bp.orderCols
			var sortErr error
			sort.SliceStable(rows, func(a, b int) bool {
				for i, o := range order {
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
	}
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

// The EXPLAIN texts of a plan's nodes, rendered only when a plan is
// explained. Each is the bound plan under another name, so handing one to
// an exec node allocates nothing.
type (
	whereText boundSelect
	itemsText boundSelect
	orderText boundSelect
	groupText boundSelect
)

func (t *whereText) String() string { return FormatExpr(t.sel.Where) }
func (t *itemsText) String() string { return selectListText(t.sel) }
func (t *orderText) String() string { return orderByText(t.sel) }

func (t *groupText) String() string {
	parts := make([]string, len(t.sel.GroupBy))
	for i, g := range t.sel.GroupBy {
		parts[i] = FormatExpr(g)
	}
	return strings.Join(parts, ", ")
}

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
	node, _, err := en.buildSelect(sel, nil, nil)
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
// preserving lateral evaluation order. The join odometer closes a leg
// before it reopens it, so the leg keeps its iterators and reuses them.
type sourceLeg struct {
	st   *execState
	idx  int
	spec *boundLeg
	item *FromItem
	rows rowsLegIter
	scan scanLegIter
	view viewLegIter
}

// Label renders the leg for EXPLAIN on a best-effort catalog peek.
func (l *sourceLeg) Label() string {
	name := l.item.Table + " AS " + l.spec.alias
	js := l.spec.join
	db := l.st.en.db
	if tbl, err := db.Table(l.item.Table); err == nil {
		switch {
		case js == nil:
			return "TableScan " + name
		case tbl.EqIndex(js.keyCol) != nil:
			return fmt.Sprintf("IndexProbe %s (%s = %s)", name, js.keyCol, FormatExpr(js.otherExpr))
		default:
			return fmt.Sprintf("HashJoinProbe %s (%s = %s)", name, js.keyCol, FormatExpr(js.otherExpr))
		}
	}
	if _, err := db.View(l.item.Table); err == nil {
		return "ViewScan " + name
	}
	return "TableScan " + name
}

func (l *sourceLeg) Children() []exec.Plan { return nil }

func (l *sourceLeg) Open() (exec.LegIter, error) {
	tbl, err := l.st.en.db.Table(l.item.Table)
	if err != nil {
		return l.openView()
	}
	alias := l.item.Alias
	if alias == "" {
		alias = tbl.Name
	}
	s := &l.st.scopes[l.idx]
	js := l.spec.join
	if js == nil {
		l.scan = scanLegIter{tbl: tbl, alias: alias, s: s, cur: tbl.Cursor()}
		return &l.scan, nil
	}
	// Probe key evaluated against the outer bindings before this leg's
	// own row is bound.
	key, err := js.key.eval(l.st)
	if err != nil {
		return nil, err
	}
	rows, ok := tbl.ProbeEqual(js.keyCol, key)
	if !ok {
		if l.st.hashes == nil {
			l.st.hashes = make([]joinHash, len(l.st.scopes))
		}
		jh := &l.st.hashes[l.idx]
		jh.build(tbl, js.keyCol)
		if k, ok := joinKey(key); ok {
			rows = jh.index[k]
		} // a NULL key joins nothing
	}
	l.rows = rowsLegIter{tbl: tbl, alias: alias, s: s, rows: rows}
	return &l.rows, nil
}

// rowsLegIter binds a pre-fetched row list (index probe or hash bucket).
type rowsLegIter struct {
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

func (it *rowsLegIter) Close() error { return nil }

type scanLegIter struct {
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
	return nil
}

// openView materializes a view definition (one querySelect per outer
// binding, as before — view results are not cached across bindings).
func (l *sourceLeg) openView() (exec.LegIter, error) {
	view, err := l.st.en.db.View(l.item.Table)
	if err != nil {
		return nil, fmt.Errorf("sql: no table or view %q", l.item.Table)
	}
	vsel, ok := view.Compiled.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: view %s has no compiled definition", view.Name)
	}
	rows, err := l.st.en.querySelect(vsel)
	if err != nil {
		return nil, fmt.Errorf("sql: view %s: %w", view.Name, err)
	}
	alias := l.item.Alias
	if alias == "" {
		alias = view.Name
	}
	l.view = viewLegIter{alias: alias, s: &l.st.scopes[l.idx], rows: rows}
	return &l.view, nil
}

type viewLegIter struct {
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

func (it *viewLegIter) Close() error { return nil }

// unnestLeg is a lateral TABLE(expr) item: the collection expression is
// re-evaluated against the outer bindings every time the leg opens. The
// join closes a leg before it reopens it, so the leg keeps one iterator
// and reuses it on every Open, together with the attribute-column cache:
// an unnest under an outer scan allocates nothing per outer row.
type unnestLeg struct {
	st   *execState
	spec *boundLeg
	item *FromItem
	it   unnestLegIter
	// attrTypeName/attrCols cache the attribute names of the element
	// object type: collection elements are homogeneous, so one lookup
	// serves every element of every open. A new type makes a new slice,
	// which the column memo slots see as a new key.
	attrTypeName string
	attrCols     []string
	// scalar backs the COLUMN_VALUE of a scalar element.
	scalar [1]ordb.Value
}

func newUnnestLeg(st *execState, idx int, spec *boundLeg, item *FromItem) *unnestLeg {
	l := &unnestLeg{st: st, spec: spec, item: item}
	s := &st.scopes[idx]
	s.alias = spec.alias
	l.it = unnestLegIter{leg: l, s: s}
	return l
}

func (l *unnestLeg) Label() string {
	return fmt.Sprintf("Unnest TABLE(%s) AS %s", FormatExpr(l.item.Unnest), l.spec.alias)
}

func (l *unnestLeg) Children() []exec.Plan { return nil }

func (l *unnestLeg) Open() (exec.LegIter, error) {
	v, err := l.spec.unnest.eval(l.st)
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
	l.it.elems, l.it.i = elems, 0
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
	// The scope is rebound field by field and a field that keeps its
	// value is not written again, which spares the garbage collector's
	// write barrier while it marks: the leg owns the scope for the whole
	// execution, and its alias is set once.
	// Object elements expose their attributes as columns; a REF element
	// is dereferenced transparently for column access.
	resolved := elem
	if r, isRef := elem.(ordb.Ref); isRef {
		o, err := l.st.en.db.Deref(r)
		if err != nil {
			return false, err
		}
		resolved = o
		s.table, s.oid = r.Table, r.OID
	} else if s.oid != 0 {
		s.table, s.oid = "", 0
	}
	if o, isObj := resolved.(*ordb.Object); isObj {
		if l.attrCols == nil || l.attrTypeName != o.TypeName {
			t, err := l.st.en.db.Type(o.TypeName)
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
		if !sameCols(s.cols, l.attrCols) {
			s.cols = l.attrCols
		}
		s.vals = o.Attrs
		s.whole = o
	} else {
		// Scalar elements expose Oracle's COLUMN_VALUE.
		l.scalar[0] = resolved
		if !sameCols(s.cols, columnValueCols) {
			s.cols, s.vals = columnValueCols, l.scalar[:]
		}
		s.whole = elem
	}
	return true, nil
}

func (it *unnestLegIter) Close() error { return nil }
