package kvstore

import (
	"math/bits"
	"slices"
	"unsafe"
)

// A store is the server's key table: a persistent hash trie that a
// process and its forks share until one of them writes. It stands in for
// what fork(2) gives the paper's servers for free — pages shared until
// written — at the granularity of one trie node or one entry.
//
// Shape: a dense 1 024-way root indexed by the low 10 hash bits, below it
// bitmap-compressed 32-way nodes consuming 5 bits a level, leaves holding
// one entry each. Keys whose 64-bit hashes are equal end in a plain list
// one level below the last hash bit.
//
// Sharing: every root, node and leaf is stamped with the token of the
// store that made it, and a store writes only what carries its current
// token. fork hands the child the same root and gives both sides a fresh
// token, so everything reachable at fork time is immutable from then on
// for both of them — which is also what lets a leader and its variants
// run on different OS threads. A read walks shared nodes untouched; a
// write copies the root-to-leaf path, and the one leaf, that its store
// does not own yet. Fork registers nothing on the parent.
//
// Allocation: leaves, nodes and the nodes' child arrays are carved from
// slabs of the store's own, so a write allocates once per chunk rather
// than once per object. A region carved for a node's array belongs to
// that node alone, and its spare capacity is written only while the
// node's store owns it: a node reachable from a fork is copied, into
// regions of the copier's own, before anybody writes it. fork gives the
// child no slab.
//
// A *entry from get is read-only and dies at the next write to its key
// (the unshared leaf is a different object); writers go through mut or
// put. The zero store is empty and ready to use.
type store struct {
	root *root
	tok  *token
	n    int

	// A slab is nobody's property: only a linked, stamped leaf or node
	// is owned, and a node owns the regions its arrays sit in.
	leafSlab    slab[leaf]
	nodeSlab    slab[node]
	leafPtrSlab slab[*leaf]
	nodePtrSlab slab[*node]
}

const (
	rootBits = 10
	nodeBits = 5
	hashBits = 64
	// A slab's first chunk holds slabMin elements, and each next one
	// twice as many while that stays within slabBytes, but never fewer
	// than slabMin. A region of more than slabMin elements is allocated
	// on its own.
	slabMin   = 32
	slabBytes = 2048
)

// token identifies one stretch of a store's life between forks; only its
// address matters (a zero-size type would not have a distinct one).
type token struct{ _ byte }

type leaf struct {
	owner *token
	hash  uint64
	key   string
	val   entry
}

// node is one bitmap-compressed level: slot i of 32 holds a leaf if
// leafmap has bit i, a sub-node if nodemap has it, and each slice is
// packed in slot order. At shift >= hashBits both maps are zero and
// leaves is the list of keys sharing one full hash.
type node struct {
	owner   *token
	leafmap uint32
	nodemap uint32
	leaves  []*leaf
	nodes   []*node
}

// rootSlot holds a leaf, a node, or nothing — never both.
type rootSlot struct {
	l *leaf
	n *node
}

type root struct {
	owner *token
	slots [1 << rootBits]rootSlot
}

// hashKey is a fixed 64-bit string hash (multiply-and-fold over 8-byte
// words). Fixed, not seeded per process: the trie's shape decides what a
// run allocates and in which order each visits keys, and both must
// repeat from run to run.
func hashKey(s string) uint64 {
	const k0, k1 = 0xa0761d6478bd642f, 0xe7037ed1a0b428db
	h := uint64(len(s)) ^ k0
	for len(s) >= 8 {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = fold(h^w, k1)
		s = s[8:]
	}
	var w uint64
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * i)
	}
	return fold(h^w, k0)
}

func fold(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// slotBit is key hash h's slot at the level consuming bits from shift.
func slotBit(h uint64, shift uint) uint32 { return 1 << (h >> shift & (1<<nodeBits - 1)) }

// rank is the packed index of bit's slot within m.
func rank(m, bit uint32) int { return bits.OnesCount32(m & (bit - 1)) }

func (r *root) slot(h uint64) *rootSlot { return &r.slots[h&(1<<rootBits-1)] }

func (l *leaf) is(h uint64, key string) bool { return l.hash == h && l.key == key }

// listIndex finds key in a collision list, -1 if it is not there.
func (n *node) listIndex(key string) int {
	for i, l := range n.leaves {
		if l.key == key {
			return i
		}
	}
	return -1
}

func (s *store) len() int { return s.n }

// fork returns a store sharing everything s holds. Both continue under
// fresh tokens: neither may write what was reachable until now.
func (s *store) fork() store {
	s.tok = new(token)
	return store{root: s.root, n: s.n, tok: new(token)}
}

// get returns key's entry for reading, nil if absent.
func (s *store) get(key string) *entry { return s.find(hashKey(key), key) }

// keyFor returns the string s stores key under, or a copy of key when s
// holds no such key: a writer that keeps a key it was handed as a view
// copies it only when it is new.
func (s *store) keyFor(key []byte) string {
	if l := s.leafOf(hashKey(string(key)), string(key)); l != nil {
		return l.key
	}
	return string(key)
}

// mut returns key's entry for writing, unshared first (nil if absent).
func (s *store) mut(key string) *entry { return s.edit(hashKey(key), key) }

// put stores e under key, replacing what was there, and returns the
// stored entry for further writing.
func (s *store) put(key string, e entry) *entry { return s.set(hashKey(key), key, e) }

// del removes key and reports whether it was present.
func (s *store) del(key string) bool { return s.remove(hashKey(key), key) }

// each calls fn for every entry, read-only, in an order that depends on
// the keys alone.
func (s *store) each(fn func(key string, e *entry)) {
	if s.root == nil {
		return
	}
	for i := range s.root.slots {
		if rs := &s.root.slots[i]; rs.l != nil {
			fn(rs.l.key, &rs.l.val)
		} else if rs.n != nil {
			rs.n.each(fn)
		}
	}
}

func (n *node) each(fn func(key string, e *entry)) {
	for _, l := range n.leaves {
		fn(l.key, &l.val)
	}
	for _, c := range n.nodes {
		c.each(fn)
	}
}

// find, edit, set and remove are get, mut, put and del with the hash
// supplied by the caller, so that tests can drive the trie with a
// degenerate one. Only set keeps the key it is handed: the others only
// compare it, so a caller may pass a string that lives on its stack.

func (s *store) find(h uint64, key string) *entry {
	if l := s.leafOf(h, key); l != nil {
		return &l.val
	}
	return nil
}

// leafOf is find's walk: key's leaf, nil if absent.
func (s *store) leafOf(h uint64, key string) *leaf {
	if s.root == nil {
		return nil
	}
	rs := s.root.slot(h)
	l := rs.l
	for n, shift := rs.n, uint(rootBits); n != nil; shift += nodeBits {
		if shift >= hashBits {
			if i := n.listIndex(key); i >= 0 {
				return n.leaves[i]
			}
			return nil
		}
		bit := slotBit(h, shift)
		if n.leafmap&bit != 0 {
			l = n.leaves[rank(n.leafmap, bit)]
			break
		}
		if n.nodemap&bit == 0 {
			return nil
		}
		n = n.nodes[rank(n.nodemap, bit)]
	}
	if l != nil && l.is(h, key) {
		return l
	}
	return nil
}

func (s *store) edit(h uint64, key string) *entry {
	pl := s.place(h, key, nil)
	if pl == nil {
		return nil
	}
	l := *pl
	if l.owner != s.tok {
		*pl = s.newLeaf(h, l.key) // l's key: the caller's may live on its stack
		(*pl).val = cloneEntry(l.val)
	}
	return &(*pl).val
}

func (s *store) set(h uint64, key string, e entry) *entry {
	pl := s.place(h, key, &key)
	if l := *pl; l.owner != s.tok {
		*pl = s.newLeaf(h, l.key)
	}
	(*pl).val = e
	return &(*pl).val
}

// place returns the pointer to key's leaf inside a root or node this
// store owns, unsharing the path down to it on the way; the leaf itself
// may still be shared. A missing key yields nil, or with create (which
// points at key) a fresh leaf linked in. key itself is only compared.
func (s *store) place(h uint64, key string, create *string) **leaf {
	rs := s.ownRoot().slot(h)
	if rs.n == nil {
		switch {
		case rs.l == nil:
			if create == nil {
				return nil
			}
			rs.l = s.newLeaf(h, *create)
			s.n++
			return &rs.l
		case rs.l.is(h, key):
			return &rs.l
		case create == nil:
			return nil
		}
		rs.n, rs.l = s.pushDown(rs.l, rootBits), nil
	}
	pn := &rs.n
	for shift := uint(rootBits); ; shift += nodeBits {
		n := s.ownNode(pn)
		if shift >= hashBits {
			if i := n.listIndex(key); i >= 0 {
				return &n.leaves[i]
			}
			if create == nil {
				return nil
			}
			n.leaves = insert(&s.leafPtrSlab, n.leaves, len(n.leaves), s.newLeaf(h, *create))
			s.n++
			return &n.leaves[len(n.leaves)-1]
		}
		bit := slotBit(h, shift)
		if n.nodemap&bit != 0 {
			pn = &n.nodes[rank(n.nodemap, bit)]
			continue
		}
		i := rank(n.leafmap, bit)
		if n.leafmap&bit == 0 {
			if create == nil {
				return nil
			}
			n.leaves = insert(&s.leafPtrSlab, n.leaves, i, s.newLeaf(h, *create))
			n.leafmap |= bit
			s.n++
			return &n.leaves[i]
		}
		if n.leaves[i].is(h, key) {
			return &n.leaves[i]
		}
		if create == nil {
			return nil
		}
		// Another key lives in this slot: move it one level down and
		// follow it; the next round finds room beside it or moves it
		// again.
		sub := s.pushDown(n.leaves[i], shift+nodeBits)
		n.leaves = slices.Delete(n.leaves, i, i+1)
		n.leafmap &^= bit
		i = rank(n.nodemap, bit)
		n.nodes = insert(&s.nodePtrSlab, n.nodes, i, sub)
		n.nodemap |= bit
		pn = &n.nodes[i]
	}
}

// pushDown wraps l in a new owned node for the level at shift.
func (s *store) pushDown(l *leaf, shift uint) *node {
	n := s.newNode()
	n.leaves = s.leafPtrSlab.carve(1, 2) // company is on its way
	n.leaves[0] = l
	if shift < hashBits {
		n.leafmap = slotBit(l.hash, shift)
	}
	return n
}

func (s *store) remove(h uint64, key string) bool {
	if s.root == nil {
		return false
	}
	rs := s.ownRoot().slot(h)
	if rs.n == nil {
		if rs.l == nil || !rs.l.is(h, key) {
			return false
		}
		s.dropLeaf(rs.l)
		rs.l = nil
		return true
	}
	if !s.removeIn(&rs.n, rootBits, h, key) {
		return false
	}
	if l, ok := dissolve(rs.n); ok {
		rs.n, rs.l = nil, l
	}
	return true
}

// removeIn deletes key from the subtree at *pn. A child left with a lone
// leaf and no sub-nodes is dissolved into its parent, so a lookup never
// walks deeper than its key's neighbours require.
func (s *store) removeIn(pn **node, shift uint, h uint64, key string) bool {
	n := s.ownNode(pn)
	if shift >= hashBits {
		i := n.listIndex(key)
		if i < 0 {
			return false
		}
		s.dropLeaf(n.leaves[i])
		n.leaves = slices.Delete(n.leaves, i, i+1)
		return true
	}
	bit := slotBit(h, shift)
	if n.leafmap&bit != 0 {
		i := rank(n.leafmap, bit)
		if !n.leaves[i].is(h, key) {
			return false
		}
		s.dropLeaf(n.leaves[i])
		n.leaves = slices.Delete(n.leaves, i, i+1)
		n.leafmap &^= bit
		return true
	}
	if n.nodemap&bit == 0 {
		return false
	}
	i := rank(n.nodemap, bit)
	if !s.removeIn(&n.nodes[i], shift+nodeBits, h, key) {
		return false
	}
	if l, ok := dissolve(n.nodes[i]); ok {
		n.nodes = slices.Delete(n.nodes, i, i+1)
		n.nodemap &^= bit
		if l != nil {
			n.leaves = insert(&s.leafPtrSlab, n.leaves, rank(n.leafmap, bit), l)
			n.leafmap |= bit
		}
	}
	return true
}

// dissolve reports whether c, which removeIn has just been through and
// its store therefore owns, is down to at most one leaf and no sub-node.
// If so it hands the leaf (or nil) to the parent and wipes c and its
// region.
func dissolve(c *node) (*leaf, bool) {
	if len(c.nodes) > 0 || len(c.leaves) > 1 {
		return nil, false
	}
	var l *leaf
	if len(c.leaves) == 1 {
		l = c.leaves[0]
	}
	clear(c.leaves)
	*c = node{}
	return l, true
}

// dropLeaf accounts for an unlinked leaf. One this store owns is
// unreachable for everybody, and is wiped so that its slab does not keep
// the key, value and hash map alive.
func (s *store) dropLeaf(l *leaf) {
	s.n--
	if l.owner == s.tok {
		*l = leaf{}
	}
}

func (s *store) ownRoot() *root {
	switch r := s.root; {
	case r == nil:
		s.root = &root{owner: s.tok}
	case r.owner != s.tok:
		c := *r
		c.owner = s.tok
		s.root = &c
	}
	return s.root
}

// ownNode makes *pn — a field of a root or node s owns — point to a
// node s owns, copying the shared one first.
func (s *store) ownNode(pn **node) *node {
	n := *pn
	if n.owner != s.tok {
		c := s.newNode()
		c.leafmap, c.nodemap = n.leafmap, n.nodemap
		c.leaves, c.nodes = clone(&s.leafPtrSlab, n.leaves), clone(&s.nodePtrSlab, n.nodes)
		*pn, n = c, c
	}
	return n
}

func (s *store) newLeaf(h uint64, key string) *leaf {
	l := &s.leafSlab.carve(1, 1)[0]
	l.owner, l.hash, l.key = s.tok, h, key
	return l
}

func (s *store) newNode() *node {
	n := &s.nodeSlab.carve(1, 1)[0]
	n.owner = s.tok
	return n
}

// slab carves regions out of the chunks it allocates. What is left of a
// chunk too short for a region is dropped.
type slab[T any] struct {
	free []T
	last int // length asked for the last chunk
}

// carve returns a region of n zeroed elements and capacity c, which no
// other region overlaps.
func (sl *slab[T]) carve(n, c int) []T {
	if c > slabMin {
		return make([]T, n, c)
	}
	if c > len(sl.free) {
		var zero T
		sl.last = max(slabMin, min(2*sl.last, slabBytes/int(unsafe.Sizeof(zero))))
		// Grow rounds the chunk up to its allocation's size class, so
		// the bytes the allocator hands out anyway are carved too.
		sl.free = slices.Grow([]T(nil), sl.last)
		sl.free = sl.free[:cap(sl.free)]
	}
	r := sl.free[:n:c]
	sl.free = sl.free[c:]
	return r
}

// clone copies a shared node's array into a region of sl's.
func clone[T any](sl *slab[T], a []T) []T {
	if len(a) == 0 {
		return nil
	}
	c := sl.carve(len(a), len(a))
	copy(c, a)
	return c
}

// insert puts v at a[i] in a, an owned node's array. A full a moves to a
// region of sl's with twice the capacity, and its old region is cleared
// so that no slab keeps what it held alive.
func insert[T any](sl *slab[T], a []T, i int, v T) []T {
	if len(a) == cap(a) {
		b := sl.carve(len(a)+1, max(2*len(a), 1))
		copy(b, a[:i])
		copy(b[i+1:], a[i:])
		clear(a)
		a = b
	} else {
		a = a[:len(a)+1]
		copy(a[i+1:], a[i:])
	}
	a[i] = v
	return a
}
