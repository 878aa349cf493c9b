package exec

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"xmlordb/internal/ordb"
)

// sliceLeg binds successive values from a slice into *slot. Open may be
// parameterized by the current binding of an outer leg (lateral).
type sliceLeg struct {
	name  string
	slot  *int
	gen   func() []int
	opens int
	log   *[]string
}

func (l *sliceLeg) Label() string    { return l.name }
func (l *sliceLeg) Children() []Plan { return nil }

func (l *sliceLeg) Open() (LegIter, error) {
	l.opens++
	if l.log != nil {
		*l.log = append(*l.log, "open "+l.name)
	}
	return &sliceLegIter{leg: l, vals: l.gen()}, nil
}

type sliceLegIter struct {
	leg  *sliceLeg
	vals []int
	i    int
}

func (it *sliceLegIter) Next() (bool, error) {
	if it.i >= len(it.vals) {
		return false, nil
	}
	*it.leg.slot = it.vals[it.i]
	it.i++
	return true, nil
}

func (it *sliceLegIter) Close() error {
	if it.leg.log != nil {
		*it.leg.log = append(*it.leg.log, "close "+it.leg.name)
	}
	return nil
}

func drain(t *testing.T, n Node) []Row {
	t.Helper()
	it, err := n.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []Row
	for {
		r, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			return out
		}
		out = append(out, r)
	}
}

func TestJoinLateralOdometer(t *testing.T) {
	var a, b int
	outer := &sliceLeg{name: "outer", slot: &a, gen: func() []int { return []int{1, 2, 3} }}
	// The inner leg's rows depend on the outer leg's current binding —
	// lateral visibility.
	inner := &sliceLeg{name: "inner", slot: &b, gen: func() []int { return []int{a * 10, a*10 + 1} }}
	j := &Join{Legs: []Leg{outer, inner}}
	var pairs []string
	it, err := j.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for {
		r, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			break
		}
		pairs = append(pairs, fmt.Sprintf("%d/%d", a, b))
	}
	want := "1/10 1/11 2/20 2/21 3/30 3/31"
	if got := strings.Join(pairs, " "); got != want {
		t.Errorf("join order = %q, want %q", got, want)
	}
	if outer.opens != 1 || inner.opens != 3 {
		t.Errorf("opens = %d/%d, want 1/3", outer.opens, inner.opens)
	}
}

func TestJoinCloseUnwindsInnermostFirst(t *testing.T) {
	var a, b int
	var log []string
	outer := &sliceLeg{name: "outer", slot: &a, gen: func() []int { return []int{1, 2} }, log: &log}
	inner := &sliceLeg{name: "inner", slot: &b, gen: func() []int { return []int{7} }, log: &log}
	j := &Join{Legs: []Leg{outer, inner}}
	it, err := j.Open()
	if err != nil {
		t.Fatal(err)
	}
	// Pull one row, then abandon the iterator: Close must shut the inner
	// leg before the outer one (scope stacks unwind in order).
	if r, err := it.Next(); err != nil || r == nil {
		t.Fatalf("Next = %v, %v", r, err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	want := "open outer open inner close inner close outer"
	if got := strings.Join(log, " "); got != want {
		t.Errorf("close order = %q, want %q", got, want)
	}
}

func TestJoinEmptyOuterNeverOpensInner(t *testing.T) {
	var a, b int
	outer := &sliceLeg{name: "outer", slot: &a, gen: func() []int { return nil }}
	inner := &sliceLeg{name: "inner", slot: &b, gen: func() []int { return []int{1} }}
	j := &Join{Legs: []Leg{outer, inner}}
	if rows := drain(t, j); len(rows) != 0 {
		t.Errorf("rows = %d", len(rows))
	}
	if inner.opens != 0 {
		t.Errorf("inner opened %d times over an empty outer", inner.opens)
	}
}

func TestFilterProject(t *testing.T) {
	var a int
	leg := &sliceLeg{name: "src", slot: &a, gen: func() []int { return []int{1, 2, 3, 4, 5} }}
	n := &Project{
		Child: &Filter{
			Child: &Join{Legs: []Leg{leg}},
			Cond:  text("a % 2 = 0"),
			Pred:  func() (bool, error) { return a%2 == 0, nil },
		},
		Cols: text("a"),
		Emit: func() (Row, error) { return Row{ordb.Num(a)}, nil },
	}
	rows := drain(t, n)
	if len(rows) != 2 || rows[0][0] != ordb.Num(2) || rows[1][0] != ordb.Num(4) {
		t.Errorf("rows = %v", rows)
	}
}

func TestSortStripsHiddenKeys(t *testing.T) {
	var a int
	leg := &sliceLeg{name: "src", slot: &a, gen: func() []int { return []int{3, 1, 2} }}
	n := &Sort{
		Child: &Project{
			Child: &Join{Legs: []Leg{leg}},
			Cols:  text("a"),
			// Output column plus a hidden sort key.
			Emit: func() (Row, error) { return Row{ordb.Str(fmt.Sprintf("v%d", a)), ordb.Num(a)}, nil },
		},
		By:    text("a"),
		Strip: 1,
		SortFn: func(rows []Row) error {
			sort.Slice(rows, func(i, j int) bool {
				return rows[i][1].(ordb.Num) < rows[j][1].(ordb.Num)
			})
			return nil
		},
	}
	rows := drain(t, n)
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	for i, want := range []string{"v1", "v2", "v3"} {
		if len(rows[i]) != 1 || rows[i][0] != ordb.Str(want) {
			t.Errorf("row %d = %v", i, rows[i])
		}
	}
}

func TestGroupByFirstSeenOrder(t *testing.T) {
	var a int
	leg := &sliceLeg{name: "src", slot: &a, gen: func() []int { return []int{2, 1, 2, 3, 1} }}
	type state struct{ key, n int }
	n := &GroupBy{
		Child:    &Join{Legs: []Leg{leg}},
		Keys:     text("a"),
		Key:      func() (string, error) { return fmt.Sprint(a), nil },
		NewGroup: func() (any, error) { return &state{key: a}, nil },
		Add:      func(st any) error { st.(*state).n++; return nil },
		Emit: func(st any) (Row, error) {
			s := st.(*state)
			return Row{ordb.Num(s.key), ordb.Num(s.n)}, nil
		},
	}
	rows := drain(t, n)
	want := [][2]int{{2, 2}, {1, 2}, {3, 1}}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v", rows)
	}
	for i, w := range want {
		if rows[i][0] != ordb.Num(w[0]) || rows[i][1] != ordb.Num(w[1]) {
			t.Errorf("group %d = %v, want %v", i, rows[i], w)
		}
	}
}

func TestAggregateEmitsOneRowOnEmptyInput(t *testing.T) {
	var a int
	leg := &sliceLeg{name: "src", slot: &a, gen: func() []int { return nil }}
	count := 0
	n := &Aggregate{
		Child: &Join{Legs: []Leg{leg}},
		Funcs: text("COUNT(*)"),
		Add:   func() error { count++; return nil },
		Emit:  func() (Row, error) { return Row{ordb.Num(count)}, nil },
	}
	rows := drain(t, n)
	if len(rows) != 1 || rows[0][0] != ordb.Num(0) {
		t.Errorf("rows = %v", rows)
	}
}

func TestLimitStopsPulling(t *testing.T) {
	var a int
	pulled := 0
	leg := &sliceLeg{name: "src", slot: &a, gen: func() []int { return []int{1, 2, 3, 4, 5} }}
	n := &Limit{
		N: 2,
		Child: &Project{
			Child: &Join{Legs: []Leg{leg}},
			Cols:  text("a"),
			Emit:  func() (Row, error) { pulled++; return Row{ordb.Num(a)}, nil },
		},
	}
	rows := drain(t, n)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if pulled != 2 {
		t.Errorf("emitted %d rows for LIMIT 2", pulled)
	}
}

func TestExplainLines(t *testing.T) {
	var a, b int
	outer := &sliceLeg{name: "TableScan T AS t", slot: &a, gen: func() []int { return nil }}
	inner := &sliceLeg{name: "IndexProbe U AS u (K = t.K)", slot: &b, gen: func() []int { return nil }}
	n := &Project{
		Child: &Filter{
			Child: &Join{Legs: []Leg{outer, inner}},
			Cond:  text("t.K = u.K"),
			Pred:  func() (bool, error) { return true, nil },
		},
		Cols: text("t.A"),
		Emit: func() (Row, error) { return nil, nil },
	}
	got := strings.Join(ExplainLines(n), "\n")
	want := strings.Join([]string{
		"Project (t.A)",
		"└─ Filter (t.K = u.K)",
		"   └─ NestedLoopJoin",
		"      ├─ TableScan T AS t",
		"      └─ IndexProbe U AS u (K = t.K)",
	}, "\n")
	if got != want {
		t.Errorf("explain =\n%s\nwant\n%s", got, want)
	}
}

// text is a fixed display text.
type text string

func (t text) String() string { return string(t) }
