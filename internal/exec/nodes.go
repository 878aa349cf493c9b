package exec

import "fmt"

// Join is the lateral nested-loop join over its legs: leg i+1 is
// (re)opened for every row of leg i, so later legs may depend on the
// bindings of earlier ones — exactly the lateral semantics of Oracle's
// TABLE() unnesting. Index probes and hash-join fallbacks live inside
// the legs (see internal/sql), which keeps the loop itself generic.
type Join struct {
	Legs []Leg
}

// Label implements Plan.
func (j *Join) Label() string {
	if len(j.Legs) == 1 {
		return j.Legs[0].Label()
	}
	return "NestedLoopJoin"
}

// Children implements Plan. A single-leg join renders as the leg itself.
func (j *Join) Children() []Plan {
	if len(j.Legs) == 1 {
		return j.Legs[0].Children()
	}
	out := make([]Plan, len(j.Legs))
	for i, l := range j.Legs {
		out[i] = l
	}
	return out
}

// Open implements Node. Legs are opened lazily during Next so that an
// unresolvable inner source only errors once the outer legs actually
// yield a row (matching lateral evaluation order).
func (j *Join) Open() (Iter, error) {
	return &joinIter{legs: j.Legs, iters: make([]LegIter, len(j.Legs))}, nil
}

type joinIter struct {
	legs    []Leg
	iters   []LegIter // iters[i] non-nil while leg i is open
	started bool
	done    bool
}

// Next advances the odometer: the innermost open leg steps first; an
// exhausted leg closes and its outer neighbour advances, reopening
// everything inside it.
func (j *joinIter) Next() (Row, error) {
	if j.done {
		return nil, nil
	}
	n := len(j.legs)
	i := n - 1
	if !j.started {
		j.started = true
		i = 0
		it, err := j.legs[0].Open()
		if err != nil {
			j.done = true
			return nil, err
		}
		j.iters[0] = it
	}
	for i >= 0 {
		ok, err := j.iters[i].Next()
		if err != nil {
			j.done = true
			return nil, err
		}
		if ok {
			if i == n-1 {
				return tick, nil
			}
			i++
			it, err := j.legs[i].Open()
			if err != nil {
				j.done = true
				return nil, err
			}
			j.iters[i] = it
			continue
		}
		if err := j.closeLeg(i); err != nil {
			j.done = true
			return nil, err
		}
		i--
	}
	j.done = true
	return nil, nil
}

func (j *joinIter) closeLeg(i int) error {
	it := j.iters[i]
	j.iters[i] = nil
	return it.Close()
}

// Close shuts any still-open legs, innermost first, so scope stacks
// unwind in order.
func (j *joinIter) Close() error {
	var first error
	for i := len(j.iters) - 1; i >= 0; i-- {
		if j.iters[i] == nil {
			continue
		}
		if err := j.closeLeg(i); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Filter passes through the bindings for which Pred holds.
type Filter struct {
	Child Node
	Cond  fmt.Stringer // display text of the predicate, rendered by EXPLAIN
	Pred  func() (bool, error)
}

func (f *Filter) Label() string    { return "Filter (" + f.Cond.String() + ")" }
func (f *Filter) Children() []Plan { return []Plan{f.Child} }

func (f *Filter) Open() (Iter, error) {
	ci, err := f.Child.Open()
	if err != nil {
		return nil, err
	}
	return &filterIter{child: ci, pred: f.Pred}, nil
}

type filterIter struct {
	child Iter
	pred  func() (bool, error)
}

func (it *filterIter) Next() (Row, error) {
	for {
		r, err := it.child.Next()
		if err != nil || r == nil {
			return nil, err
		}
		ok, err := it.pred()
		if err != nil {
			return nil, err
		}
		if ok {
			return r, nil
		}
	}
}

func (it *filterIter) Close() error { return it.child.Close() }

// Project turns the current binding into an output row.
type Project struct {
	Child Node
	Cols  fmt.Stringer // display text of the select list, rendered by EXPLAIN
	Emit  func() (Row, error)
}

func (p *Project) Label() string    { return "Project (" + p.Cols.String() + ")" }
func (p *Project) Children() []Plan { return []Plan{p.Child} }

func (p *Project) Open() (Iter, error) {
	ci, err := p.Child.Open()
	if err != nil {
		return nil, err
	}
	return &projectIter{child: ci, emit: p.Emit}, nil
}

type projectIter struct {
	child Iter
	emit  func() (Row, error)
}

func (it *projectIter) Next() (Row, error) {
	r, err := it.child.Next()
	if err != nil || r == nil {
		return nil, err
	}
	return it.emit()
}

func (it *projectIter) Close() error { return it.child.Close() }

// Sort materializes its input, reorders it with SortFn and streams the
// result. Strip trailing columns are dropped after sorting — the front
// end appends ORDER BY keys as hidden columns so keys are evaluated
// against the live binding, row by row, exactly once.
type Sort struct {
	Child  Node
	By     fmt.Stringer // display text of the sort keys, rendered by EXPLAIN
	SortFn func(rows []Row) error
	Strip  int
}

func (s *Sort) Label() string    { return "Sort (" + s.By.String() + ")" }
func (s *Sort) Children() []Plan { return []Plan{s.Child} }

func (s *Sort) Open() (Iter, error) {
	ci, err := s.Child.Open()
	if err != nil {
		return nil, err
	}
	return &sortIter{child: ci, sortFn: s.SortFn, strip: s.Strip}, nil
}

type sortIter struct {
	child   Iter
	sortFn  func(rows []Row) error
	strip   int
	rows    []Row
	i       int
	drained bool
}

func (it *sortIter) Next() (Row, error) {
	if !it.drained {
		it.drained = true
		for {
			r, err := it.child.Next()
			if err != nil {
				return nil, err
			}
			if r == nil {
				break
			}
			it.rows = append(it.rows, r)
		}
		if err := it.sortFn(it.rows); err != nil {
			return nil, err
		}
	}
	if it.i >= len(it.rows) {
		return nil, nil
	}
	r := it.rows[it.i]
	it.i++
	if it.strip > 0 {
		r = r[:len(r)-it.strip]
	}
	return r, nil
}

func (it *sortIter) Close() error { return it.child.Close() }

// GroupBy buckets bindings by Key, accumulating into per-group state,
// and emits one row per group in first-seen order.
type GroupBy struct {
	Child Node
	Keys  fmt.Stringer // display text of the group expressions, rendered by EXPLAIN
	// Key computes the group key of the current binding.
	Key func() (string, error)
	// NewGroup builds fresh group state from the current binding (the
	// group's first row supplies the representative values of
	// non-aggregate select items).
	NewGroup func() (any, error)
	// Add folds the current binding into the group state.
	Add func(state any) error
	// Emit renders a finished group as an output row.
	Emit func(state any) (Row, error)
}

func (g *GroupBy) Label() string    { return "GroupBy (" + g.Keys.String() + ")" }
func (g *GroupBy) Children() []Plan { return []Plan{g.Child} }

func (g *GroupBy) Open() (Iter, error) {
	ci, err := g.Child.Open()
	if err != nil {
		return nil, err
	}
	return &groupIter{child: ci, g: g}, nil
}

type groupIter struct {
	child   Iter
	g       *GroupBy
	groups  map[string]any
	order   []string
	i       int
	drained bool
}

func (it *groupIter) Next() (Row, error) {
	if !it.drained {
		it.drained = true
		it.groups = map[string]any{}
		for {
			r, err := it.child.Next()
			if err != nil {
				return nil, err
			}
			if r == nil {
				break
			}
			key, err := it.g.Key()
			if err != nil {
				return nil, err
			}
			state, ok := it.groups[key]
			if !ok {
				state, err = it.g.NewGroup()
				if err != nil {
					return nil, err
				}
				it.groups[key] = state
				it.order = append(it.order, key)
			}
			if err := it.g.Add(state); err != nil {
				return nil, err
			}
		}
	}
	if it.i >= len(it.order) {
		return nil, nil
	}
	state := it.groups[it.order[it.i]]
	it.i++
	return it.g.Emit(state)
}

func (it *groupIter) Close() error { return it.child.Close() }

// Aggregate folds every binding into a set of accumulators and emits a
// single row — the no-GROUP-BY aggregation form, which produces exactly
// one row even over empty input.
type Aggregate struct {
	Child Node
	Funcs fmt.Stringer // display text of the aggregate calls, rendered by EXPLAIN
	Add   func() error
	Emit  func() (Row, error)
}

func (a *Aggregate) Label() string    { return "Aggregate (" + a.Funcs.String() + ")" }
func (a *Aggregate) Children() []Plan { return []Plan{a.Child} }

func (a *Aggregate) Open() (Iter, error) {
	ci, err := a.Child.Open()
	if err != nil {
		return nil, err
	}
	return &aggIter{child: ci, a: a}, nil
}

type aggIter struct {
	child Iter
	a     *Aggregate
	done  bool
}

func (it *aggIter) Next() (Row, error) {
	if it.done {
		return nil, nil
	}
	it.done = true
	for {
		r, err := it.child.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			break
		}
		if err := it.a.Add(); err != nil {
			return nil, err
		}
	}
	return it.a.Emit()
}

func (it *aggIter) Close() error { return it.child.Close() }

// Limit passes through at most N rows. The SQL grammar does not expose
// LIMIT yet; the node exists for internal callers (EXISTS could stop at
// the first row) and for the planned FETCH FIRST syntax.
type Limit struct {
	Child Node
	N     int
}

func (l *Limit) Label() string    { return fmt.Sprintf("Limit %d", l.N) }
func (l *Limit) Children() []Plan { return []Plan{l.Child} }

func (l *Limit) Open() (Iter, error) {
	ci, err := l.Child.Open()
	if err != nil {
		return nil, err
	}
	return &limitIter{child: ci, left: l.N}, nil
}

type limitIter struct {
	child Iter
	left  int
}

func (it *limitIter) Next() (Row, error) {
	if it.left <= 0 {
		return nil, nil
	}
	r, err := it.child.Next()
	if err != nil || r == nil {
		return nil, err
	}
	it.left--
	return r, nil
}

func (it *limitIter) Close() error { return it.child.Close() }
