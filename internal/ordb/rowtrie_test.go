package ordb

import (
	"fmt"
	"slices"
	"testing"
)

// trieKeys lists a trie's keys in iteration order.
func trieKeys(tr rowTrie) []uint64 {
	var out []uint64
	tr.each(func(r *Row) bool { out = append(out, r.key); return true })
	return out
}

// trieNodes counts a trie's nodes and fails on an empty one: a delete
// prunes every node it empties.
func trieNodes(t *testing.T, n *rnode) int {
	if n == nil {
		return 0
	}
	if n.bitmap == 0 {
		t.Fatal("empty node left in the trie")
	}
	count := 1
	for _, kid := range n.kids {
		count += trieNodes(t, kid)
	}
	return count
}

// FuzzRowTrie checks the row trie against a sorted-map model through a
// byte-coded history of sets, deletes, lookups, ordered iterations from
// arbitrary keys, captures (a capture seals the trie: the edit token
// changes, as at a publish) and in-place rebinds of a key. Every captured
// trie must still iterate to exactly what the model held at capture.
//
//	go test ./internal/ordb/ -run FuzzRowTrie -fuzz FuzzRowTrie
func FuzzRowTrie(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 70, 4, 0, 1, 2, 5, 1, 3, 0})
	f.Add([]byte{0, 255, 0, 1, 4, 0, 1, 255, 1, 1, 3, 0, 0, 128})
	f.Add([]byte{0, 5, 0, 6, 0, 7, 1, 6, 4, 0, 1, 5, 1, 7, 2, 6, 3, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		// keyOf spreads a byte over four trie levels.
		keyOf := func(b byte) uint64 { return uint64(b&0x3f) << (rtBits * uint(b>>6)) }
		var tr rowTrie
		model := map[uint64]*Row{}
		type capture struct {
			tr   rowTrie
			keys []uint64
			rows []*Row
		}
		var captures []capture
		edit := uint64(1)
		sorted := func() ([]uint64, []*Row) {
			keys := make([]uint64, 0, len(model))
			for k := range model {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			rows := make([]*Row, len(keys))
			for i, k := range keys {
				rows[i] = model[k]
			}
			return keys, rows
		}
		for i := 0; i+1 < len(script); i += 2 {
			op, k := script[i]%6, keyOf(script[i+1])
			switch op {
			case 0, 5: // set; 5 rebinds an existing key in place
				if op == 5 && model[k] == nil {
					continue
				}
				r := &Row{key: k}
				tr = tr.set(edit, r)
				model[k] = r
			case 1:
				tr = tr.del(edit, k)
				delete(model, k)
			case 2:
				if got := tr.get(k); got != model[k] {
					t.Fatalf("step %d: get(%d) = %p, model %p", i/2, k, got, model[k])
				}
			case 3:
				keys, _ := sorted()
				from, _ := slices.BinarySearch(keys, k)
				var got []uint64
				for rows := tr.leafFrom(k); len(rows) > 0; rows = tr.leafFrom(rows[len(rows)-1].key + 1) {
					for _, r := range rows {
						got = append(got, r.key)
					}
				}
				if !slices.Equal(got, keys[from:]) {
					t.Fatalf("step %d: iteration from %d = %v, model %v", i/2, k, got, keys[from:])
				}
			case 4:
				keys, rows := sorted()
				captures = append(captures, capture{tr, keys, rows})
				edit++
			}
			keys, rows := sorted()
			var got []*Row
			tr.each(func(r *Row) bool { got = append(got, r); return true })
			if !slices.Equal(got, rows) || tr.n != len(keys) {
				t.Fatalf("step %d: trie holds %v (n=%d), model %v", i/2, trieKeys(tr), tr.n, keys)
			}
			trieNodes(t, tr.root)
		}
		for j, c := range captures {
			var got []*Row
			c.tr.each(func(r *Row) bool { got = append(got, r); return true })
			if !slices.Equal(got, c.rows) || c.tr.n != len(c.keys) {
				t.Fatalf("capture %d now holds %v, held %v", j, trieKeys(c.tr), c.keys)
			}
		}
	})
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
			tr = tr.del(edit, k-window)
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
	// 100 consecutive keys span at most 3 leaves; with one root and at
	// most 2 nodes per interior level below it, a 3-level trie has ≤ 6.
	if n := trieNodes(t, tr.root); n > 6 {
		t.Errorf("%d nodes hold %d live rows after %d cycles", n, window, cycles)
	}
}

// TestRowTrieInPlaceUnderToken: within one edit token the trie updates
// its own nodes in place, and a sealed trie is never touched.
func TestRowTrieInPlaceUnderToken(t *testing.T) {
	var tr rowTrie
	for k := uint64(1); k <= 1000; k++ {
		tr = tr.set(1, &Row{key: k})
	}
	sealed := tr
	edit := uint64(1)
	if n := testing.AllocsPerRun(10, func() { edit++; tr = tr.set(edit, &Row{key: 500}) }); n <= 1 {
		t.Errorf("rebinding a key under a fresh token allocated %v times, want a copied path", n)
	}
	if n := testing.AllocsPerRun(10, func() { tr = tr.set(edit, &Row{key: 500}) }); n != 1 {
		t.Errorf("rebinding a key within its token allocated %v times, want 1 (the row)", n)
	}
	for k := uint64(1); k <= 1000; k += 2 {
		tr = tr.del(edit, k)
	}
	if got := len(trieKeys(sealed)); got != 1000 || sealed.get(500) == tr.get(500) {
		t.Fatalf("sealed trie changed: %d keys", got)
	}
	if got := fmt.Sprint(trieKeys(tr)[:3]); got != "[2 4 6]" {
		t.Fatalf("live trie starts %s", got)
	}
}
