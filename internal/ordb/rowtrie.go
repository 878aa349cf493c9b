package ordb

import (
	"math/bits"
	"slices"
	"strings"
)

// rowTrie is the engine's one persistent ordered map: a radix trie over
// byte-string keys whose bytes are 6-bit digits, so iteration runs in key
// order. A table keeps its rows in one, keyed by Row.key, and each built
// secondary index in another, keyed by the indexed value's equality key
// followed by Row.key (index.go). Keys are derived from the rows, never
// stored: a row costs one 8-byte slot.
//
// A node branches 64 ways on the digit at one position of the key and
// packs its entries, child nodes and rows apart, in slot arrays addressed
// by popcount over a bitmap each. The keys below a node agree on every
// digit before its position, and nothing stores those digits: a walk
// follows the digits it is given and checks the key of the row it ends
// at, or of a row below the node where it stops. So a shared prefix costs
// one node, however long. A row sits in the slot of the first digit that
// sets it apart from every other key. The key sets stored are prefix-free
// (no key is a prefix of another), which is what lets a row sit in a slot
// before its key ends.
//
// A capture is a struct copy and an update path-copies, except nodes
// stamped with the caller's edit token, which no capture holds and which
// change in place (Table.edit). A delete prunes every node it empties and
// folds a node left with one entry into its parent: keys only grow, so an
// emptied subtree would never refill and would pile up behind a sliding
// window of live rows.
type rowTrie struct {
	root *rnode
	n    int
	// ixCol is 1 + the column an index trie keys on; 0 keys by Row.key.
	ixCol int
}

// rnode is one node: bit c of kidmap (rowmap) is set when the slot of
// digit c at position at holds a child node (a row). edit is the token
// the node was made under.
type rnode struct {
	at             int
	kidmap, rowmap uint64
	edit           uint64
	kids           []*rnode
	rows           []*Row
}

// keyBuf is the stack room for a key; longer keys spill to the heap.
const keyBuf = 64

// below returns the bits of m under bit.
func below(m, bit uint64) int { return bits.OnesCount64(m & (bit - 1)) }

// appendKey appends r's key in t, or reports false when r's indexed value
// has no equality key (NULL, objects, collections), so t holds no entry
// for it.
func (t rowTrie) appendKey(dst []byte, r *Row) ([]byte, bool) {
	if t.ixCol > 0 {
		var ok bool
		if dst, ok = AppendEqualKey(dst, r.Vals[t.ixCol-1]); !ok {
			return dst, false
		}
	}
	return appendDigits(dst, r.key), true
}

// get returns the row stored under row key k in a table's row trie.
func (t rowTrie) get(k uint64) *Row {
	var buf [keyBuf]byte
	key := appendDigits(buf[:0], k)
	for n := t.root; n != nil && n.at < len(key); {
		bit := uint64(1) << key[n.at]
		switch {
		case n.kidmap&bit != 0:
			n = n.kids[below(n.kidmap, bit)]
		case n.rowmap&bit != 0:
			if r := n.rows[below(n.rowmap, bit)]; r.key == k {
				return r
			}
			return nil
		default:
			return nil
		}
	}
	return nil
}

// nearest appends to dst the key of a stored row that shares the longest
// prefix with key, and returns it with the length of that prefix. The
// trie must not be empty.
func (t rowTrie) nearest(dst, key []byte) ([]byte, int) {
	n := t.root
	var r *Row
	for n.at < len(key) {
		bit := uint64(1) << key[n.at]
		if n.kidmap&bit != 0 {
			n = n.kids[below(n.kidmap, bit)]
			continue
		}
		if n.rowmap&bit != 0 {
			r = n.rows[below(n.rowmap, bit)]
		}
		break
	}
	if r == nil {
		r = n.first()[0] // every key below n shares as long a prefix
	}
	near, _ := t.appendKey(dst, r)
	return near, commonLen(near, key)
}

// commonLen is the length of the longest common prefix of a and b.
func commonLen(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// owned returns n itself when it may change in place under edit, and
// otherwise a copy stamped with edit with room for moreRows more rows and
// moreKids more children.
func (n *rnode) owned(edit uint64, moreRows, moreKids int) *rnode {
	if edit != 0 && n.edit == edit {
		return n
	}
	c := &rnode{at: n.at, kidmap: n.kidmap, rowmap: n.rowmap, edit: edit}
	if len(n.rows)+moreRows > 0 {
		c.rows = append(make([]*Row, 0, len(n.rows)+moreRows), n.rows...)
	}
	if len(n.kids)+moreKids > 0 {
		c.kids = append(make([]*rnode, 0, len(n.kids)+moreKids), n.kids...)
	}
	return c
}

// addRow puts r in the empty slot of digit c of a node owned under the
// current token.
func (n *rnode) addRow(c byte, r *Row) {
	bit := uint64(1) << c
	n.rows = slices.Insert(n.rows, below(n.rowmap, bit), r)
	n.rowmap |= bit
}

// addKid puts kid in the empty slot of digit c of an owned node.
func (n *rnode) addKid(c byte, kid *rnode) {
	bit := uint64(1) << c
	n.kids = slices.Insert(n.kids, below(n.kidmap, bit), kid)
	n.kidmap |= bit
}

// set returns the trie with r stored under its key, replacing any row
// there. A row without a key in an index trie leaves it as it is.
func (t rowTrie) set(edit uint64, r *Row) rowTrie {
	var buf, nbuf [keyBuf]byte
	key, ok := t.appendKey(buf[:0], r)
	if !ok {
		return t
	}
	if t.root == nil {
		t.root, t.n = &rnode{edit: edit, rowmap: 1 << key[0], rows: []*Row{r}}, 1
		return t
	}
	near, j := t.nearest(nbuf[:0], key)
	if t.root.kidmap == 0 && len(t.root.rows) == 1 && j < len(key) {
		t.root, t.n = pair(edit, near, t.root.rows[0], key, r, j), 2
		return t
	}
	var added bool
	if t.root, added = t.put(t.root, edit, key, near, j, r); added {
		t.n++
	}
	return t
}

// pair returns a node holding row a under key ka and row b under kb,
// which first differ at digit j.
func pair(edit uint64, ka []byte, a *Row, kb []byte, b *Row, j int) *rnode {
	n := &rnode{at: j, edit: edit}
	n.addRow(ka[j], a)
	n.addRow(kb[j], b)
	return n
}

// put stores r, whose key is key, below n, and reports whether the key is
// new. near is the nearest stored key and j the length of the prefix it
// shares with key.
func (t rowTrie) put(n *rnode, edit uint64, key, near []byte, j int, r *Row) (*rnode, bool) {
	if n.at > j { // key leaves n's keys at digit j: a node there holds both
		split := &rnode{at: j, edit: edit}
		split.addKid(near[j], n)
		split.addRow(key[j], r)
		return split, true
	}
	if n.at == j { // the slot of key's digit is free: near took another
		n = n.owned(edit, 1, 0)
		n.addRow(key[j], r)
		return n, true
	}
	bit := uint64(1) << key[n.at]
	if n.kidmap&bit != 0 {
		i := below(n.kidmap, bit)
		kid, added := t.put(n.kids[i], edit, key, near, j, r)
		if kid != n.kids[i] {
			n = n.owned(edit, 0, 0)
			n.kids[i] = kid
		}
		return n, added
	}
	i := below(n.rowmap, bit) // the slot of the row stored under near
	if j == len(key) {
		n = n.owned(edit, 0, 0)
		n.rows[i] = r
		return n, false
	}
	kid := pair(edit, near, n.rows[i], key, r, j)
	n = n.owned(edit, 0, 1)
	n.rows = slices.Delete(n.rows, i, i+1)
	n.rowmap &^= bit
	n.addKid(key[n.at], kid)
	return n, true
}

// del returns the trie without r's key.
func (t rowTrie) del(edit uint64, r *Row) rowTrie {
	var buf [keyBuf]byte
	key, ok := t.appendKey(buf[:0], r)
	if !ok || t.root == nil {
		return t
	}
	if root, removed := t.remove(t.root, edit, key); removed {
		t.root, t.n = root, t.n-1
	}
	return t
}

// remove deletes key below n. It returns nil for a node it empties and
// the one child of a node left with nothing else; a node left with one
// row stays for the parent to fold.
func (t rowTrie) remove(n *rnode, edit uint64, key []byte) (*rnode, bool) {
	if n.at >= len(key) {
		return n, false
	}
	bit := uint64(1) << key[n.at]
	switch {
	case n.kidmap&bit != 0:
		i := below(n.kidmap, bit)
		kid, removed := t.remove(n.kids[i], edit, key)
		if !removed {
			return n, false
		}
		if kid.kidmap == 0 && len(kid.rows) == 1 { // fold the lone row up
			n = n.owned(edit, 1, 0)
			n.kids = slices.Delete(n.kids, i, i+1)
			n.kidmap &^= bit
			n.addRow(key[n.at], kid.rows[0])
			return n, true
		}
		if kid != n.kids[i] {
			n = n.owned(edit, 0, 0)
			n.kids[i] = kid
		}
		return n, true
	case n.rowmap&bit != 0:
		i := below(n.rowmap, bit)
		var buf [keyBuf]byte
		if stored, _ := t.appendKey(buf[:0], n.rows[i]); string(stored) != string(key) {
			return n, false
		}
		switch {
		case n.rowmap == bit && n.kidmap == 0:
			return nil, true
		case n.rowmap == bit && n.kidmap&(n.kidmap-1) == 0:
			return n.kids[0], true
		}
		n = n.owned(edit, 0, 0)
		n.rows = slices.Delete(n.rows, i, i+1)
		n.rowmap &^= bit
		return n, true
	default:
		return n, false
	}
}

// run returns the rows of n from the one in the slot of bit up to the
// next slot holding a child: a stretch of consecutive keys.
func (n *rnode) run(bit uint64) []*Row {
	end := len(n.rows)
	if later := n.kidmap &^ (bit<<1 - 1); later != 0 {
		end = below(n.rowmap, later&-later)
	}
	return n.rows[below(n.rowmap, bit):end]
}

// first returns the first run of rows below n.
func (n *rnode) first() []*Row {
	for {
		all := n.kidmap | n.rowmap
		bit := all & -all
		if n.rowmap&bit != 0 {
			return n.run(bit)
		}
		n = n.kids[0]
	}
}

// after returns the first run of rows whose keys sort after key, or nil.
// Scans step from run to run by asking for the rows after the last row
// returned.
func (t rowTrie) after(key []byte) []*Row {
	switch {
	case t.root == nil:
		return nil
	case len(key) == 0:
		return t.root.first()
	}
	var buf [keyBuf]byte
	near, j := t.nearest(buf[:0], key)
	return afterIn(t.root, key, near, j)
}

// afterIn is after below n, given the nearest stored key and the length
// j of the prefix it shares with key.
func afterIn(n *rnode, key, near []byte, j int) []*Row {
	if n.at > j || n.at == len(key) { // n's keys all sort on near's side of key
		if j < len(near) && (j == len(key) || near[j] > key[j]) {
			return n.first()
		}
		return nil
	}
	bit := uint64(1) << key[n.at]
	if n.at < j { // key's slot leads to near
		if n.kidmap&bit != 0 {
			if rows := afterIn(n.kids[below(n.kidmap, bit)], key, near, j); rows != nil {
				return rows
			}
		} else if j < len(near) && (j == len(key) || near[j] > key[j]) {
			return n.run(bit)
		}
	}
	later := (n.kidmap | n.rowmap) &^ (bit<<1 - 1)
	if later == 0 {
		return nil
	}
	if next := later & -later; n.rowmap&next != 0 {
		return n.run(next)
	} else {
		return n.kids[below(n.kidmap, next)].first()
	}
}

// next returns the run of rows after r, the last row of the previous run.
func (t rowTrie) next(r *Row) []*Row {
	var buf [keyBuf]byte
	key, _ := t.appendKey(buf[:0], r)
	return t.after(key)
}

// each calls fn for every row in key order until fn returns false, and
// reports how many rows it visited.
func (t rowTrie) each(fn func(*Row) bool) int {
	n := 0
	for rows := t.after(nil); len(rows) > 0; rows = t.next(rows[len(rows)-1]) {
		for _, r := range rows {
			n++
			if !fn(r) {
				return n
			}
		}
	}
	return n
}

// withPrefix returns the rows whose keys start with p, in key order, and
// the edit stamp of the node whose slot array the result shares: 0 when
// the result is a fresh slice, or shares nothing.
func (t rowTrie) withPrefix(p []byte) ([]*Row, uint64) {
	n := t.root
	for n != nil && n.at < len(p) {
		bit := uint64(1) << p[n.at]
		switch {
		case n.kidmap&bit != 0:
			n = n.kids[below(n.kidmap, bit)]
		case n.rowmap&bit != 0:
			i := below(n.rowmap, bit)
			if !t.hasPrefix(n.rows[i], p) {
				return nil, 0
			}
			return n.rows[i : i+1], n.edit
		default:
			return nil, 0
		}
	}
	// Every key below n shares its first len(p) digits: one checked
	// stands for all.
	switch {
	case n == nil || !t.hasPrefix(n.first()[0], p):
		return nil, 0
	case n.kidmap == 0:
		return n.rows, n.edit
	default:
		return n.collect(nil), 0
	}
}

// hasPrefix reports whether r's key starts with p.
func (t rowTrie) hasPrefix(r *Row, p []byte) bool {
	var buf [keyBuf]byte
	key, _ := t.appendKey(buf[:0], r)
	return strings.HasPrefix(string(key), string(p))
}

// collect appends every row below n in key order.
func (n *rnode) collect(dst []*Row) []*Row {
	r, k := 0, 0
	for all := n.kidmap | n.rowmap; all != 0; all &= all - 1 {
		if bit := all & -all; n.rowmap&bit != 0 {
			dst = append(dst, n.rows[r])
			r++
		} else {
			dst = n.kids[k].collect(dst)
			k++
		}
	}
	return dst
}

// appendDigits appends k as 11 big-endian digits: 4 bits, then ten of 6.
func appendDigits(dst []byte, k uint64) []byte {
	for s := 60; s >= 0; s -= 6 {
		dst = append(dst, byte(k>>uint(s)&63))
	}
	return dst
}
