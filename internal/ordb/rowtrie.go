package ordb

import (
	"math/bits"
	"slices"
)

// rowTrie is a table's row store: a persistent radix trie over the row
// keys (Row.key), six bits per level from the most significant chunk the
// stored keys need, so iteration runs in key order. A node packs its
// children, or at shift 0 its rows, in a slot array addressed by popcount
// over a bitmap. As in pmap, a capture is a struct copy and an update
// path-copies, except nodes stamped with the caller's edit token, which no
// capture holds and which change in place (Table.edit). A delete prunes
// every node it empties: keys only grow, so an emptied subtree would never
// refill and would pile up behind a sliding window of live rows.
type rowTrie struct {
	root  *rnode
	shift uint // the root's chunk shift; the trie holds keys below 1<<(shift+6)
	n     int
}

const rtBits = 6

// rnode is an interior node (kids) or a leaf (rows): slot i belongs to
// the i-th set bit of bitmap. edit is the token the node was made under.
type rnode struct {
	bitmap, edit uint64
	kids         []*rnode
	rows         []*Row
}

// slot locates key k's chunk at shift in n: its bit, its packed index and
// whether it is occupied.
func (n *rnode) slot(k uint64, shift uint) (bit uint64, i int, has bool) {
	bit = 1 << (k >> shift & (1<<rtBits - 1))
	return bit, bits.OnesCount64(n.bitmap & (bit - 1)), n.bitmap&bit != 0
}

// get returns the row stored under k, or nil.
func (t rowTrie) get(k uint64) *Row {
	if rows := t.leafFrom(k); len(rows) > 0 && rows[0].key == k {
		return rows[0]
	}
	return nil
}

// owned returns n itself when it may change in place under edit, and
// otherwise a copy stamped with edit with room for extra more slots.
func (n *rnode) owned(edit uint64, extra int) *rnode {
	if edit != 0 && n.edit == edit {
		return n
	}
	c := &rnode{bitmap: n.bitmap, edit: edit}
	if n.kids != nil {
		c.kids = append(make([]*rnode, 0, len(n.kids)+extra), n.kids...)
	} else if n.rows != nil {
		c.rows = append(make([]*Row, 0, len(n.rows)+extra), n.rows...)
	}
	return c
}

// set returns the trie with r stored under r.key, replacing any row there.
func (t rowTrie) set(edit uint64, r *Row) rowTrie {
	for r.key>>(t.shift+rtBits) != 0 { // grow: the old root becomes child 0
		if t.root != nil {
			t.root = &rnode{bitmap: 1, edit: edit, kids: []*rnode{t.root}}
		}
		t.shift += rtBits
	}
	var added bool
	if t.root, added = t.root.set(edit, t.shift, r); added {
		t.n++
	}
	return t
}

// set stores r below n, nil standing for an empty subtree, and reports
// whether r's key is new.
func (n *rnode) set(edit uint64, shift uint, r *Row) (*rnode, bool) {
	if n == nil {
		n = &rnode{edit: edit}
	}
	bit, i, has := n.slot(r.key, shift)
	if has && shift == 0 {
		n = n.owned(edit, 0)
		n.rows[i] = r
		return n, false
	}
	if has {
		kid, added := n.kids[i].set(edit, shift-rtBits, r)
		if kid != n.kids[i] {
			n = n.owned(edit, 0)
			n.kids[i] = kid
		}
		return n, added
	}
	n = n.owned(edit, 1)
	n.bitmap |= bit
	if shift == 0 {
		n.rows = slices.Insert(n.rows, i, r)
	} else {
		kid, _ := (*rnode)(nil).set(edit, shift-rtBits, r)
		n.kids = slices.Insert(n.kids, i, kid)
	}
	return n, true
}

// del returns the trie without key k.
func (t rowTrie) del(edit uint64, k uint64) rowTrie {
	if t.root == nil || k>>(t.shift+rtBits) != 0 {
		return t
	}
	if root, removed := t.root.del(edit, t.shift, k); removed {
		t.root, t.n = root, t.n-1
	}
	return t
}

// del removes k below n and returns nil for a node it empties.
func (n *rnode) del(edit uint64, shift uint, k uint64) (*rnode, bool) {
	bit, i, has := n.slot(k, shift)
	if !has {
		return n, false
	}
	if shift > 0 {
		kid, removed := n.kids[i].del(edit, shift-rtBits, k)
		if !removed || kid == n.kids[i] {
			return n, removed
		}
		if kid != nil {
			n = n.owned(edit, 0)
			n.kids[i] = kid
			return n, true
		}
	}
	if n.bitmap == bit {
		return nil, true
	}
	n = n.owned(edit, 0)
	n.bitmap &^= bit
	if shift == 0 {
		n.rows = slices.Delete(n.rows, i, i+1)
	} else {
		n.kids = slices.Delete(n.kids, i, i+1)
	}
	return n, true
}

// leafFrom returns the rest of the first leaf holding a key >= k, from
// that key on, or nil. Scans step from leaf to leaf by asking for the key
// after the last row returned.
func (t rowTrie) leafFrom(k uint64) []*Row {
	if t.root == nil || k>>(t.shift+rtBits) != 0 {
		return nil
	}
	return t.root.leafFrom(t.shift, k)
}

func (n *rnode) leafFrom(shift uint, k uint64) []*Row {
	for c := k >> shift & (1<<rtBits - 1); c < 1<<rtBits; c, k = c+1, 0 {
		above := n.bitmap >> c << c
		if above == 0 {
			return nil
		}
		b := uint64(bits.TrailingZeros64(above))
		i := bits.OnesCount64(n.bitmap & (1<<b - 1))
		if shift == 0 {
			return n.rows[i:]
		}
		if b != c {
			k = 0 // a later subtree: all of it is >= k
		}
		if rows := n.kids[i].leafFrom(shift-rtBits, k); rows != nil {
			return rows
		}
		c = b
	}
	return nil
}

// each calls fn for every row in key order until fn returns false, and
// reports how many rows it visited.
func (t rowTrie) each(fn func(*Row) bool) int {
	n := 0
	for rows := t.leafFrom(0); len(rows) > 0; rows = t.leafFrom(rows[len(rows)-1].key + 1) {
		for _, r := range rows {
			n++
			if !fn(r) {
				return n
			}
		}
	}
	return n
}
