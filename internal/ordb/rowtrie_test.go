package ordb

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// trieKeys lists a row trie's row keys in iteration order.
func trieKeys(tr rowTrie) []uint64 {
	var out []uint64
	tr.each(func(r *Row) bool { out = append(out, r.key); return true })
	return out
}

// trieNodes counts a trie's nodes and fails on a node that should have
// been pruned or folded: every node but the root holds two entries or
// more, and the root at least one.
func trieNodes(t *testing.T, n *rnode) int {
	return trieNodesBelow(t, n, true)
}

func trieNodesBelow(t *testing.T, n *rnode, root bool) int {
	if n == nil {
		return 0
	}
	entries := len(n.kids) + len(n.rows)
	if entries == 0 || (!root && entries < 2) || (root && len(n.kids) == 1 && len(n.rows) == 0) {
		t.Fatalf("node with %d children and %d rows left in the trie", len(n.kids), len(n.rows))
	}
	count := 1
	for _, kid := range n.kids {
		count += trieNodesBelow(t, kid, false)
	}
	return count
}

// fuzzTrieVals are the indexed values of FuzzRowTrie's prefixed shape:
// empty, blank-padded, and holding 0x00 and 0xFF bytes.
var fuzzTrieVals = []string{"", "a", "a  ", "a\x00", "a\xff", "ab", "\xff\xff", "b\x00c"}

// FuzzRowTrie checks both shapes of the trie against a sorted model
// through one byte-coded history: a table's row trie, keyed by fixed-width
// row keys, and an index trie, keyed by a string's equality key (of
// varying length) followed by the row key. The history sets, deletes,
// looks up, iterates from arbitrary keys, probes a value's prefix,
// captures (a capture seals the trie: the edit token changes, as at a
// publish) and rebinds keys in place. Every captured trie must still
// iterate to exactly what the model held at capture.
//
//	go test ./internal/ordb/ -run FuzzRowTrie -fuzz FuzzRowTrie
func FuzzRowTrie(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 70, 4, 0, 1, 2, 5, 1, 3, 0})
	f.Add([]byte{0, 255, 0, 1, 4, 0, 1, 255, 1, 1, 3, 0, 0, 128})
	f.Add([]byte{0, 5, 0, 6, 0, 7, 1, 6, 4, 0, 1, 5, 1, 7, 2, 6, 3, 5})
	// A capture stays as it was while the live trie rebinds, deletes and
	// adds keys under the next token.
	f.Add([]byte{0, 1, 6, 2, 12, 3, 18, 64, 24, 65, 4, 0, 5, 1, 11, 2, 1, 3, 19, 64, 0, 200, 3, 0, 4, 0})
	// Within one token the trie changes its own nodes in place: sets,
	// rebinds and deletes with no capture between them.
	f.Add([]byte{0, 1, 0, 2, 0, 3, 5, 2, 5, 3, 1, 1, 0, 64, 0, 65, 1, 2, 5, 64, 3, 0})
	// Values that differ only in trailing blanks, or in 0x00 and 0xFF bytes.
	f.Add([]byte{6, 1, 12, 2, 18, 3, 24, 4, 30, 5, 2, 0, 8, 0, 14, 0, 20, 0, 3, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		t.Run("row keys", func(t *testing.T) { runTrieScript(t, script, false) })
		t.Run("prefixed keys", func(t *testing.T) { runTrieScript(t, script, true) })
	})
}

// trieEntry is one model entry: a row under its value and row key.
type trieEntry struct {
	val string // trimmed of trailing blanks; empty in the row-key shape
	row *Row
}

func compareEntries(a, b trieEntry) int {
	return cmp.Or(strings.Compare(a.val, b.val), cmp.Compare(a.row.key, b.row.key))
}

// runTrieScript plays byte pairs (operation, argument). In the prefixed
// shape the operation byte also picks the value (fuzzTrieVals).
func runTrieScript(t *testing.T, script []byte, prefixed bool) {
	// keyOf spreads a byte over four trie levels.
	keyOf := func(b byte) uint64 { return uint64(b&0x3f) << (6 * uint(b>>6)) }
	var tr rowTrie
	if prefixed {
		tr.ixCol = 1
	}
	newRow := func(val string, k uint64) *Row { return &Row{key: k, Vals: []Value{Str(val)}} }
	model := map[[2]any]trieEntry{}
	sorted := func() []trieEntry {
		out := make([]trieEntry, 0, len(model))
		for _, e := range model {
			out = append(out, e)
		}
		slices.SortFunc(out, compareEntries)
		return out
	}
	rowsOf := func(es []trieEntry) []*Row {
		out := make([]*Row, len(es))
		for i, e := range es {
			out[i] = e.row
		}
		return out
	}
	type capture struct {
		tr   rowTrie
		rows []*Row
	}
	var captures []capture
	edit := uint64(1)
	for i := 0; i+1 < len(script); i += 2 {
		op, k := script[i]%7, keyOf(script[i+1])
		val := ""
		if prefixed {
			val = fuzzTrieVals[int(script[i]/7)%len(fuzzTrieVals)]
		}
		id := [2]any{strings.TrimRight(val, " "), k}
		switch op {
		case 0, 5: // set; 5 rebinds an existing key in place
			if op == 5 && model[id].row == nil {
				continue
			}
			r := newRow(val, k)
			tr = tr.set(edit, r)
			model[id] = trieEntry{id[0].(string), r}
		case 1:
			tr = tr.del(edit, newRow(val, k))
			delete(model, id)
		case 2:
			if !prefixed {
				if got := tr.get(k); got != model[id].row {
					t.Fatalf("step %d: get(%d) = %p, model %p", i/2, k, got, model[id].row)
				}
			}
		case 3:
			probe := trieEntry{id[0].(string), newRow(val, k)}
			all := sorted()
			from, _ := slices.BinarySearchFunc(all, probe, compareEntries)
			if from < len(all) && compareEntries(all[from], probe) == 0 {
				from++
			}
			var got []*Row
			for rows := tr.next(probe.row); len(rows) > 0; rows = tr.next(rows[len(rows)-1]) {
				got = append(got, rows...)
			}
			if want := rowsOf(all[from:]); !slices.Equal(got, want) {
				t.Fatalf("step %d: iteration after (%q, %d) = %d rows, model %d", i/2, val, k, len(got), len(want))
			}
		case 4:
			captures = append(captures, capture{tr, rowsOf(sorted())})
			edit++
		case 6:
			if !prefixed {
				continue
			}
			p, _ := AppendEqualKey(nil, Str(val))
			got, _ := tr.withPrefix(p)
			var want []*Row
			for _, e := range sorted() {
				if e.val == id[0] {
					want = append(want, e.row)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: probe %q = %d rows, model %d", i/2, val, len(got), len(want))
			}
		}
		var got []*Row
		tr.each(func(r *Row) bool { got = append(got, r); return true })
		if want := rowsOf(sorted()); !slices.Equal(got, want) || tr.n != len(want) {
			t.Fatalf("step %d: trie holds %d rows (n=%d), model %d", i/2, len(got), tr.n, len(want))
		}
		trieNodes(t, tr.root)
	}
	for j, c := range captures {
		var got []*Row
		c.tr.each(func(r *Row) bool { got = append(got, r); return true })
		if !slices.Equal(got, c.rows) || c.tr.n != len(c.rows) {
			t.Fatalf("capture %d now holds %d rows, held %d", j, len(got), len(c.rows))
		}
	}
}

// TestRowTriePrunesEmptiedNodes: a sliding window of live rows over ever
// larger keys — the shape of a store that loads new documents and deletes
// the oldest — leaves no trail of emptied nodes behind.
func TestRowTriePrunesEmptiedNodes(t *testing.T) {
	const window, cycles = 100, 10000
	var tr rowTrie
	edit := uint64(1)
	for k := uint64(1); k <= cycles; k++ {
		tr = tr.set(edit, &Row{key: k})
		if k > window {
			tr = tr.del(edit, &Row{key: k - window})
		}
		if k%7 == 0 {
			edit++ // a publish
		}
	}
	if tr.n != window {
		t.Fatalf("trie holds %d rows, want %d", tr.n, window)
	}
	want := make([]uint64, window)
	for i := range want {
		want[i] = cycles - window + 1 + uint64(i)
	}
	if got := trieKeys(tr); !slices.Equal(got, want) {
		t.Fatalf("trie keys %v", got)
	}
	// 100 consecutive keys span at most 3 runs of 64 under one branching
	// node: a root and at most 3 leaves.
	if n := trieNodes(t, tr.root); n > 4 {
		t.Errorf("%d nodes hold %d live rows after %d cycles", n, window, cycles)
	}
}

// TestRowTrieInPlaceUnderToken: within one edit token the trie updates
// its own nodes in place, and a sealed trie is never touched — in both
// key shapes.
func TestRowTrieInPlaceUnderToken(t *testing.T) {
	for _, ixCol := range []int{0, 1} {
		t.Run(fmt.Sprint("ixCol=", ixCol), func(t *testing.T) {
			tr := rowTrie{ixCol: ixCol}
			val := []Value{Str("same value in every row")}
			for k := uint64(1); k <= 1000; k++ {
				tr = tr.set(1, &Row{key: k, Vals: val})
			}
			sealed := tr
			edit := uint64(1)
			r := &Row{key: 500, Vals: val}
			if n := testing.AllocsPerRun(10, func() { edit++; tr = tr.set(edit, r) }); n < 1 {
				t.Errorf("rebinding a key under a fresh token allocated %v times, want a copied path", n)
			}
			if n := testing.AllocsPerRun(10, func() { tr = tr.set(edit, r) }); n != 0 {
				t.Errorf("rebinding a key within its token allocated %v times, want 0", n)
			}
			if n := testing.AllocsPerRun(10, func() { tr = tr.del(edit, r); tr = tr.set(edit, r) }); n != 0 {
				t.Errorf("deleting and re-adding a key within its token allocated %v times, want 0", n)
			}
			for k := uint64(1); k <= 1000; k += 2 {
				tr = tr.del(edit, &Row{key: k, Vals: val})
			}
			if got := trieKeys(sealed); len(got) != 1000 || got[499] != 500 {
				t.Fatalf("sealed trie changed: %d keys", len(got))
			}
			var sealed500 *Row
			sealed.each(func(x *Row) bool { sealed500 = x; return x.key < 500 })
			if sealed500 == r {
				t.Fatal("sealed trie sees a row rebound after it was sealed")
			}
			if got := fmt.Sprint(trieKeys(tr)[:3]); got != "[2 4 6]" {
				t.Fatalf("live trie starts %s", got)
			}
		})
	}
}

// TestRowTrieCapturesAreImmutable: a trie captured before a token's
// updates keeps every binding it held, while the live trie reflects each
// rebind, delete and insert.
func TestRowTrieCapturesAreImmutable(t *testing.T) {
	var tr rowTrie
	orig := map[uint64]*Row{}
	for k := uint64(1); k <= 500; k++ {
		orig[k] = &Row{key: k}
		tr = tr.set(1, orig[k])
	}
	captured := tr // published: the writer moves on to token 2
	live := map[uint64]*Row{}
	for k := uint64(1); k <= 500; k++ {
		if k%3 == 0 {
			tr = tr.del(2, orig[k])
		} else {
			live[k] = &Row{key: k}
			tr = tr.set(2, live[k])
		}
	}
	live[900] = &Row{key: 900}
	tr = tr.set(2, live[900])
	for k := uint64(1); k <= 500; k++ {
		if got := captured.get(k); got != orig[k] {
			t.Fatalf("captured trie: get(%d) = %p, want %p", k, got, orig[k])
		}
		if got := tr.get(k); got != live[k] {
			t.Fatalf("live trie: get(%d) = %p, want %p", k, got, live[k])
		}
	}
	if captured.n != 500 || tr.n != 335 || captured.get(900) != nil {
		t.Fatalf("n = %d captured, %d live; captured sees key 900: %v", captured.n, tr.n, captured.get(900) != nil)
	}
}

// TestPmapEpochUpdates: the row trie as a persistent map updated in
// epochs (edit tokens). A trie captured before an epoch's updates keeps
// every binding it held; within the epoch a rebind changes the live
// trie's nodes in place, while a persistent update (token 0) copies the
// path to the key.
func TestPmapEpochUpdates(t *testing.T) {
	var m rowTrie
	for k := uint64(1); k <= 500; k++ {
		m = m.set(1, &Row{key: k, Vals: []Value{Num(k)}})
	}
	snap := m // published: the writer moves on to epoch 2
	for k := uint64(1); k <= 500; k++ {
		if k%3 == 0 {
			m = m.del(2, &Row{key: k})
		} else {
			m = m.set(2, &Row{key: k, Vals: []Value{Num(-float64(k))}})
		}
	}
	m = m.set(2, &Row{key: 900, Vals: []Value{Num(900)}})
	for k := uint64(1); k <= 500; k++ {
		if r := snap.get(k); r == nil || r.Vals[0] != Num(k) {
			t.Fatalf("captured trie: get(%d) = %v; want %d", k, r, k)
		}
		r := m.get(k)
		if want := k%3 != 0; (r != nil) != want || (r != nil && r.Vals[0] != Num(-float64(k))) {
			t.Fatalf("updated trie: get(%d) = %v", k, r)
		}
	}
	if snap.n != 500 || m.n != 335 {
		t.Fatalf("n = %d captured, %d updated", snap.n, m.n)
	}
	if snap.get(900) != nil {
		t.Fatal("captured trie sees a key added after capture")
	}
	r := &Row{key: 1, Vals: []Value{Num(7)}}
	if n := testing.AllocsPerRun(10, func() { m = m.set(2, r) }); n != 0 {
		t.Errorf("rebinding a key within its epoch allocated %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { m = m.set(0, r) }); n < 1 {
		t.Errorf("a persistent update allocated %v times, want a copied path", n)
	}
}
