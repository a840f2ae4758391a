package netaddr

// PrefixTrie is a binary (path-uncompressed) trie mapping prefixes of
// either family to values of type V, supporting exact insert and
// longest-prefix match. It is the substrate for EIA sets and the BGP
// RIB. Internally it keeps one root per family, so a v4 walk descends at
// most 32 levels exactly as the pre-dual-stack trie did (the v4 fast
// path), while v6 keys walk up to 128 levels of their own subtree. The
// zero value is not usable; construct with NewPrefixTrie.
type PrefixTrie[V any] struct {
	root4 *trieNode[V]
	root6 *trieNode[V]
	size  int
}

type trieNode[V any] struct {
	child [2]*trieNode[V]
	val   V
	set   bool
}

// NewPrefixTrie returns an empty trie.
func NewPrefixTrie[V any]() *PrefixTrie[V] {
	return &PrefixTrie[V]{root4: &trieNode[V]{}, root6: &trieNode[V]{}}
}

// Len returns the number of prefixes stored.
func (t *PrefixTrie[V]) Len() int { return t.size }

// keyWords returns the walk key of a as two 64-bit words, MSB-first: a
// v4 address contributes its 32 bits at the top of k0 (so bit i of the
// walk is always bit i of k0/k1), a v6 address its full 128 bits.
func keyWords(a Addr) (k0, k1 uint64) {
	if a.fam == FamilyV4 {
		return a.lo << 32, 0
	}
	return a.hi, a.lo
}

// keyBit extracts bit i (0 = MSB) from a walk key.
func keyBit(k0, k1 uint64, i int) uint64 {
	if i < 64 {
		return (k0 >> (63 - uint(i))) & 1
	}
	return (k1 >> (127 - uint(i))) & 1
}

// rootFor returns the family subtree root for f (nil for FamilyNone).
func (t *PrefixTrie[V]) rootFor(f Family) *trieNode[V] {
	switch f {
	case FamilyV4:
		return t.root4
	case FamilyV6:
		return t.root6
	default:
		return nil
	}
}

// Insert stores v at p, replacing any previous value. It reports whether
// the prefix was newly added (false means replaced). Inserting the zero
// Prefix panics: it belongs to no family.
func (t *PrefixTrie[V]) Insert(p Prefix, v V) bool {
	n := t.rootFor(p.addr.fam)
	if n == nil {
		panic("netaddr: Insert of zero Prefix")
	}
	k0, k1 := keyWords(p.addr)
	for i := 0; i < p.Bits(); i++ {
		b := keyBit(k0, k1, i)
		if n.child[b] == nil {
			n.child[b] = &trieNode[V]{}
		}
		n = n.child[b]
	}
	added := !n.set
	n.val, n.set = v, true
	if added {
		t.size++
	}
	return added
}

// Get returns the value stored exactly at p.
func (t *PrefixTrie[V]) Get(p Prefix) (V, bool) {
	n := t.rootFor(p.addr.fam)
	if n == nil {
		var zero V
		return zero, false
	}
	k0, k1 := keyWords(p.addr)
	for i := 0; i < p.Bits(); i++ {
		b := keyBit(k0, k1, i)
		if n.child[b] == nil {
			var zero V
			return zero, false
		}
		n = n.child[b]
	}
	if !n.set {
		var zero V
		return zero, false
	}
	return n.val, true
}

// InsertPersistent returns a new trie equal to the receiver plus v stored
// at p, without modifying the receiver. Only the nodes on the insertion
// path (at most p.Bits()+1 of them) are copied; every other subtree —
// including the entire other-family subtree — is shared between the old
// and new trie. This is the substrate for copy-on-write snapshot stores:
// a reader traversing the old trie never observes a write, so published
// tries can be read lock-free while a writer prepares the next version.
func (t *PrefixTrie[V]) InsertPersistent(p Prefix, v V) *PrefixTrie[V] {
	old := t.rootFor(p.addr.fam)
	if old == nil {
		panic("netaddr: InsertPersistent of zero Prefix")
	}
	k0, k1 := keyWords(p.addr)
	newRoot := old.clone()
	n := newRoot
	for i := 0; i < p.Bits(); i++ {
		b := keyBit(k0, k1, i)
		if old != nil {
			old = old.child[b]
		}
		if old != nil {
			n.child[b] = old.clone()
		} else {
			n.child[b] = &trieNode[V]{}
		}
		n = n.child[b]
	}
	size := t.size
	if !n.set {
		size++
	}
	n.val, n.set = v, true
	nt := &PrefixTrie[V]{root4: t.root4, root6: t.root6, size: size}
	if p.addr.fam == FamilyV4 {
		nt.root4 = newRoot
	} else {
		nt.root6 = newRoot
	}
	return nt
}

// clone copies one node; the children arrays are copied by value so both
// tries share the subtrees hanging off them.
func (n *trieNode[V]) clone() *trieNode[V] {
	c := *n
	return &c
}

// Lookup returns the value of the longest prefix containing a. The walk
// loops are specialized per family: the v4 loop shifts a single uint32
// exactly like the pre-dual-stack trie (no per-bit word-select branch),
// which keeps the v4 per-check cost at its pre-refactor level; the v6
// loop shifts through hi then lo.
func (t *PrefixTrie[V]) Lookup(a Addr) (V, bool) {
	var (
		best  V
		found bool
	)
	if a.fam == FamilyV4 {
		n := t.root4
		if n.set {
			best, found = n.val, true
		}
		key := uint32(a.lo)
		for i := 0; i < 32; i++ {
			n = n.child[key>>31]
			if n == nil {
				return best, found
			}
			key <<= 1
			if n.set {
				best, found = n.val, true
			}
		}
		return best, found
	}
	if a.fam != FamilyV6 {
		return best, false
	}
	n := t.root6
	if n.set {
		best, found = n.val, true
	}
	w := a.hi
	for i := 0; i < 128; i++ {
		n = n.child[w>>63]
		if n == nil {
			return best, found
		}
		w <<= 1
		if i == 63 {
			w = a.lo
		}
		if n.set {
			best, found = n.val, true
		}
	}
	return best, found
}

// Walk visits every stored (prefix, value) pair, v4 prefixes first in
// address order, then v6 prefixes in address order. The callback
// returning false stops the walk early.
func (t *PrefixTrie[V]) Walk(fn func(Prefix, V) bool) {
	if !t.walk4(t.root4, 0, 0, fn) {
		return
	}
	t.walk6(t.root6, 0, 0, 0, fn)
}

func (t *PrefixTrie[V]) walk4(n *trieNode[V], addr uint32, depth int, fn func(Prefix, V) bool) bool {
	if n == nil {
		return true
	}
	if n.set {
		if !fn(PrefixFrom4(IPv4(addr), depth), n.val) {
			return false
		}
	}
	if depth == 32 {
		return true
	}
	if !t.walk4(n.child[0], addr, depth+1, fn) {
		return false
	}
	return t.walk4(n.child[1], addr|1<<(31-uint(depth)), depth+1, fn)
}

func (t *PrefixTrie[V]) walk6(n *trieNode[V], hi, lo uint64, depth int, fn func(Prefix, V) bool) bool {
	if n == nil {
		return true
	}
	if n.set {
		if !fn(MustPrefix(Addr{hi: hi, lo: lo, fam: FamilyV6}, depth), n.val) {
			return false
		}
	}
	if depth == 128 {
		return true
	}
	if !t.walk6(n.child[0], hi, lo, depth+1, fn) {
		return false
	}
	nhi, nlo := hi, lo
	if depth < 64 {
		nhi |= 1 << (63 - uint(depth))
	} else {
		nlo |= 1 << (127 - uint(depth))
	}
	return t.walk6(n.child[1], nhi, nlo, depth+1, fn)
}
