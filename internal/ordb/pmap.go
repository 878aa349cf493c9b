package ordb

import (
	"math"
	"math/bits"
)

// pmap is a persistent hash map: a hash-array-mapped trie (HAMT) with
// path-copying updates. set and del return a new map that shares all
// unmodified structure with the receiver, so capturing a snapshot of a
// map is a single struct copy — O(1) — no matter how many entries it
// holds. That property is what lets a commit publish a frozen
// version of every table's secondary indexes without cloning them (see
// version.go): the live side keeps mutating its pmap while published
// versions read theirs lock-free.
//
// Layout: interior nodes fan out 32 ways on 5-bit hash chunks, using a
// bitmap plus a packed slot array (popcount addressing). Keys whose full
// 64-bit hashes collide chain off a single leaf. Because consecutive
// chunks cover all 64 hash bits, two distinct hashes always separate at
// some depth, so splitting terminates without a depth cap. The fan-out
// sets what an update copies: hashed keys scatter, so each key a
// transaction touches copies its own full-width node below the root, and
// at 32 slots (512 B) that copy stays small as an index grows.
//
// Copying every node on the path of every update would make each row
// insert allocate a few kilobytes of trie (a full node is 32 slots), most
// of it garbage by the next insert. Updates therefore take the writer's
// publish epoch as an edit token: a node stamped with the current epoch
// was created after the last publish, so no published version can reach
// it, and it is updated in place — the rule the row trie follows with its
// table's edit token (rowtrie.go). Only nodes a published version may
// hold are copied, each at most once per epoch.
//
// The zero value is an empty map with no hash function; initialize with
// newPmap before use.
type pmap[K comparable, V any] struct {
	root *pnode[K, V]
	n    int
	hash func(K) uint64
}

const (
	pmapBits = 5
	pmapMask = 1<<pmapBits - 1
)

// pnode is one interior trie node: bit i of bitmap is set when the child
// for chunk value i exists, stored at slots[popcount(bitmap & (1<<i - 1))].
// edit is the epoch the node was created in (0: never updated in place).
// Every node owns its slots array; none is shared between nodes.
type pnode[K comparable, V any] struct {
	bitmap uint64
	edit   uint64
	slots  []pslot[K, V]
}

// pslot is either a sub-trie (child != nil) or a leaf chain.
type pslot[K comparable, V any] struct {
	child *pnode[K, V]
	leaf  *pleaf[K, V]
}

// pleaf holds one entry; next chains entries whose full hashes collide.
// Leaves are immutable once linked into a trie.
type pleaf[K comparable, V any] struct {
	hash uint64
	key  K
	val  V
	next *pleaf[K, V]
}

// newPmap returns an empty map using the given hash function.
func newPmap[K comparable, V any](hash func(K) uint64) pmap[K, V] {
	return pmap[K, V]{hash: hash}
}

// len returns the number of entries.
func (m pmap[K, V]) len() int { return m.n }

// get returns the value stored under k.
func (m pmap[K, V]) get(k K) (V, bool) {
	var zero V
	if m.root == nil {
		return zero, false
	}
	h := m.hash(k)
	node := m.root
	for shift := 0; ; shift += pmapBits {
		bit := uint64(1) << ((h >> shift) & pmapMask)
		if node.bitmap&bit == 0 {
			return zero, false
		}
		s := node.slots[bits.OnesCount64(node.bitmap&(bit-1))]
		if s.child != nil {
			node = s.child
			continue
		}
		for l := s.leaf; l != nil; l = l.next {
			if l.hash == h && l.key == k {
				return l.val, true
			}
		}
		return zero, false
	}
}

// set returns a map with k bound to v. Nodes stamped with edit are
// updated in place, so the receiver must not be used afterwards unless
// it was captured before epoch edit began; all others — and, with edit
// 0, every node — are copied, leaving maps captured earlier unchanged.
func (m pmap[K, V]) set(edit uint64, k K, v V) pmap[K, V] {
	h := m.hash(k)
	nl := &pleaf[K, V]{hash: h, key: k, val: v}
	if m.root == nil {
		bit := uint64(1) << (h & pmapMask)
		root := &pnode[K, V]{bitmap: bit, edit: edit, slots: []pslot[K, V]{{leaf: nl}}}
		return pmap[K, V]{root: root, n: 1, hash: m.hash}
	}
	root, added := psetRec(m.root, 0, nl, edit)
	n := m.n
	if added {
		n++
	}
	return pmap[K, V]{root: root, n: n, hash: m.hash}
}

// owned returns node itself when it may be updated in place under edit,
// and otherwise a copy of it stamped with edit.
func owned[K comparable, V any](node *pnode[K, V], edit uint64) *pnode[K, V] {
	if edit != 0 && node.edit == edit {
		return node
	}
	return &pnode[K, V]{bitmap: node.bitmap, edit: edit, slots: append([]pslot[K, V](nil), node.slots...)}
}

func psetRec[K comparable, V any](node *pnode[K, V], shift int, nl *pleaf[K, V], edit uint64) (*pnode[K, V], bool) {
	bit := uint64(1) << ((nl.hash >> shift) & pmapMask)
	idx := bits.OnesCount64(node.bitmap & (bit - 1))
	if node.bitmap&bit == 0 {
		slots := make([]pslot[K, V], len(node.slots)+1)
		copy(slots, node.slots[:idx])
		slots[idx] = pslot[K, V]{leaf: nl}
		copy(slots[idx+1:], node.slots[idx:])
		if edit != 0 && node.edit == edit {
			node.bitmap |= bit
			node.slots = slots
			return node, true
		}
		return &pnode[K, V]{bitmap: node.bitmap | bit, edit: edit, slots: slots}, true
	}
	s := node.slots[idx]
	var ns pslot[K, V]
	added := false
	switch {
	case s.child != nil:
		child, a := psetRec(s.child, shift+pmapBits, nl, edit)
		ns, added = pslot[K, V]{child: child}, a
	case s.leaf.hash == nl.hash:
		// Same full hash: rebuild the collision chain around the new
		// entry, dropping any previous binding of the same key. Chains
		// are almost always a single leaf, so the copy is cheap.
		chain := nl
		replaced := false
		for l := s.leaf; l != nil; l = l.next {
			if l.key == nl.key {
				replaced = true
				continue
			}
			chain = &pleaf[K, V]{hash: l.hash, key: l.key, val: l.val, next: chain}
		}
		ns, added = pslot[K, V]{leaf: chain}, !replaced
	default:
		// Distinct hashes currently sharing a slot: push both down until
		// their chunks differ.
		ns, added = pslot[K, V]{child: psplit(s.leaf, nl, shift+pmapBits, edit)}, true
	}
	node = owned(node, edit)
	node.slots[idx] = ns
	return node, added
}

// psplit builds the minimal sub-trie separating an existing leaf chain
// (whose entries share one hash) from a new leaf with a different hash.
func psplit[K comparable, V any](old, nl *pleaf[K, V], shift int, edit uint64) *pnode[K, V] {
	ob := (old.hash >> shift) & pmapMask
	nb := (nl.hash >> shift) & pmapMask
	if ob == nb {
		return &pnode[K, V]{
			bitmap: 1 << ob,
			edit:   edit,
			slots:  []pslot[K, V]{{child: psplit(old, nl, shift+pmapBits, edit)}},
		}
	}
	node := &pnode[K, V]{bitmap: 1<<ob | 1<<nb, edit: edit, slots: make([]pslot[K, V], 2)}
	if ob < nb {
		node.slots[0] = pslot[K, V]{leaf: old}
		node.slots[1] = pslot[K, V]{leaf: nl}
	} else {
		node.slots[0] = pslot[K, V]{leaf: nl}
		node.slots[1] = pslot[K, V]{leaf: old}
	}
	return node
}

// del returns a map without k, updating nodes stamped with edit in place
// as set does. Deleting an absent key returns the receiver as-is. Emptied
// nodes are kept (not collapsed into their parents) — table workloads
// reuse key ranges, so the skeleton is worth retaining.
func (m pmap[K, V]) del(edit uint64, k K) pmap[K, V] {
	if m.root == nil {
		return m
	}
	h := m.hash(k)
	root, removed := pdelRec(m.root, 0, h, k, edit)
	if !removed {
		return m
	}
	return pmap[K, V]{root: root, n: m.n - 1, hash: m.hash}
}

func pdelRec[K comparable, V any](node *pnode[K, V], shift int, h uint64, k K, edit uint64) (*pnode[K, V], bool) {
	bit := uint64(1) << ((h >> shift) & pmapMask)
	if node.bitmap&bit == 0 {
		return node, false
	}
	idx := bits.OnesCount64(node.bitmap & (bit - 1))
	s := node.slots[idx]
	var ns pslot[K, V]
	if s.child != nil {
		child, removed := pdelRec(s.child, shift+pmapBits, h, k, edit)
		if !removed {
			return node, false
		}
		ns = pslot[K, V]{child: child}
	} else {
		found := false
		var chain *pleaf[K, V]
		for l := s.leaf; l != nil; l = l.next {
			if l.hash == h && l.key == k {
				found = true
				continue
			}
			chain = &pleaf[K, V]{hash: l.hash, key: l.key, val: l.val, next: chain}
		}
		if !found {
			return node, false
		}
		if chain == nil {
			// Slot becomes empty: clear the bit and compact the slots.
			slots := make([]pslot[K, V], len(node.slots)-1)
			copy(slots, node.slots[:idx])
			copy(slots[idx:], node.slots[idx+1:])
			if edit != 0 && node.edit == edit {
				node.bitmap &^= bit
				node.slots = slots
				return node, true
			}
			return &pnode[K, V]{bitmap: node.bitmap &^ bit, edit: edit, slots: slots}, true
		}
		ns = pslot[K, V]{leaf: chain}
	}
	node = owned(node, edit)
	node.slots[idx] = ns
	return node, true
}

// hashIndexKey hashes a normalized index probe key: FNV-1a over the
// kind byte, the number's bit pattern, and the string bytes.
func hashIndexKey(k indexKey) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h ^= uint64(k.kind)
	h *= prime64
	n := math.Float64bits(k.num)
	for i := 0; i < 8; i++ {
		h ^= (n >> (8 * i)) & 0xff
		h *= prime64
	}
	for i := 0; i < len(k.str); i++ {
		h ^= uint64(k.str[i])
		h *= prime64
	}
	return h
}
