// Package index implements B-tree access paths for NF² tables with
// the three address implementations discussed in §4.2 of the paper:
//
//   - DataTID: each index entry address is the TID of the data
//     subtuple containing the key — insufficient because the complex
//     object containing the match cannot be located from it;
//   - RootTID: the address is the TID of the complex object's root MD
//     subtuple — locates the object (and deduplicates multiple hits in
//     one object) but forces a scan inside the object to find which
//     subobject matched;
//   - Hierarchical: the address is the full hierarchical address of
//     Fig 7b — a root TID plus the Mini TIDs of the data subtuples of
//     the complex subobjects down to the match. Address components
//     identify complex subobjects, never subtables, so conjunctive
//     predicates can be resolved by comparing path prefixes without
//     touching the data at all.
//
// An index entry is an ordered pair <key, address list> (§4.2).
package index

import (
	"bytes"
	"fmt"
	"math"
	"sync"

	"repro/internal/page"
)

// Kind selects the address implementation of an index.
type Kind uint8

// The three address strategies of §4.2.
const (
	DataTID Kind = iota + 1
	RootTID
	Hierarchical
)

// String returns the DDL spelling of the kind.
func (k Kind) String() string {
	switch k {
	case DataTID:
		return "DATA"
	case RootTID:
		return "ROOT"
	case Hierarchical:
		return "HIERARCHICAL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Addr is one address in an index entry's address list.
type Addr struct {
	// TID is the data subtuple's TID (DataTID) or the complex
	// object's root MD subtuple TID (RootTID, Hierarchical). The first
	// component of a hierarchical address "is always a TID" (§4.2).
	TID page.TID
	// Path holds, for Hierarchical addresses, the Mini TIDs of the
	// data subtuples of the complex subobjects from nesting level 1
	// down to the subtuple containing the key.
	Path []page.MiniTID
}

// Equal reports address identity.
func (a Addr) Equal(b Addr) bool {
	if a.TID != b.TID || len(a.Path) != len(b.Path) {
		return false
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}

// SharedPrefix reports whether two hierarchical addresses refer to
// the same complex subobject at nesting depth k (1-based): same root
// and identical first k path components. This is the "P2 = F2" test
// of Fig 7b that resolves conjunctive predicates from the index
// information alone.
func SharedPrefix(a, b Addr, k int) bool {
	if a.TID != b.TID || len(a.Path) < k || len(b.Path) < k {
		return false
	}
	for i := 0; i < k; i++ {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}

// --- B+-tree -----------------------------------------------------------

const btreeOrder = 64 // max keys per node

type leaf struct {
	keys  [][]byte
	posts [][]Addr
	next  *leaf
}

type inner struct {
	keys     [][]byte // len(children)-1 separators
	children []node
}

type node interface{ isNode() }

func (*leaf) isNode()  {}
func (*inner) isNode() {}

// BTree is an in-memory B+-tree from byte keys to address lists.
// Keys are produced by model.EncodeKeyValue, so byte order equals
// value order and range scans deliver keys in value order.
//
// The tree is safe for concurrent use: lookups and range scans take a
// shared lock, mutations an exclusive one, so index reads proceed in
// parallel with each other and with concurrent statements on other
// tables while DML on the indexed table maintains its entries.
//
// A tree describes the current state, and past instants from its
// watermark w on: it holds every entry of every instant ≥ w (and maybe
// entries of later ones, which a read at the instant drops). Entries
// only ever leave by Delete, so w starts where the build that filled
// the tree knew the state to be unchanged (SetWatermark), and whoever
// deletes raises w first (Raise) to an instant after the storage change
// that made the entry stale. A lookup as of an instant reads w under
// the same lock hold as the entries, and answers only at instants ≥ w.
type BTree struct {
	mu      sync.RWMutex
	root    node
	first   *leaf
	entries int   // number of (key, addr) pairs
	keys    int   // number of distinct keys
	w       int64 // the watermark
}

// NewBTree returns an empty tree. Its watermark is the largest instant:
// until SetWatermark, it answers no lookup as of a past instant.
func NewBTree() *BTree {
	l := &leaf{}
	return &BTree{root: l, first: l, w: math.MaxInt64}
}

// SetWatermark sets the watermark of a tree its builder has just filled
// from the state at every instant ≥ w.
func (t *BTree) SetWatermark(w int64) {
	t.mu.Lock()
	t.w = w
	t.mu.Unlock()
}

// Raise raises the watermark to w, if it is lower. A writer calls it
// before each Delete with a clock reading taken after the storage change
// the deletion follows.
func (t *BTree) Raise(w int64) {
	t.mu.Lock()
	t.w = max(t.w, w)
	t.mu.Unlock()
}

// Watermark returns the watermark.
func (t *BTree) Watermark() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.w
}

// covers reports whether the tree holds every entry of instant at
// (0: the current state). The caller holds the lock.
func (t *BTree) covers(at int64) bool { return at == 0 || t.w <= at }

// Len returns the number of (key, address) pairs in the tree.
func (t *BTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.entries
}

// Keys returns the number of distinct keys.
func (t *BTree) Keys() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.keys
}

// Insert adds addr to the address list of key.
func (t *BTree) Insert(key []byte, addr Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := append([]byte(nil), key...)
	midKey, sibling := t.insert(t.root, k, addr)
	if sibling != nil {
		t.root = &inner{keys: [][]byte{midKey}, children: []node{t.root, sibling}}
	}
}

func (t *BTree) insert(n node, key []byte, addr Addr) ([]byte, node) {
	switch n := n.(type) {
	case *leaf:
		i, found := findKey(n.keys, key)
		if found {
			n.posts[i] = append(n.posts[i], addr)
			t.entries++
			return nil, nil
		}
		n.keys = insertAt(n.keys, i, key)
		n.posts = insertAt(n.posts, i, []Addr{addr})
		t.entries++
		t.keys++
		if len(n.keys) <= btreeOrder {
			return nil, nil
		}
		mid := len(n.keys) / 2
		sib := &leaf{
			keys:  append([][]byte(nil), n.keys[mid:]...),
			posts: append([][]Addr(nil), n.posts[mid:]...),
			next:  n.next,
		}
		n.keys = n.keys[:mid]
		n.posts = n.posts[:mid]
		n.next = sib
		return sib.keys[0], sib
	case *inner:
		ci := childIndex(n.keys, key)
		midKey, sib := t.insert(n.children[ci], key, addr)
		if sib == nil {
			return nil, nil
		}
		n.keys = insertAt(n.keys, ci, midKey)
		n.children = insertAt(n.children, ci+1, sib)
		if len(n.children) <= btreeOrder {
			return nil, nil
		}
		mid := len(n.keys) / 2
		up := n.keys[mid]
		sibling := &inner{
			keys:     append([][]byte(nil), n.keys[mid+1:]...),
			children: append([]node(nil), n.children[mid+1:]...),
		}
		n.keys = n.keys[:mid]
		n.children = n.children[:mid+1]
		return up, sibling
	}
	return nil, nil
}

// Delete removes addr from the address list of key. Empty postings
// drop the key from the leaf (without structural rebalancing; the
// tree shrinks fully only when rebuilt).
func (t *BTree) Delete(key []byte, addr Addr) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, i := t.findLeaf(key)
	if l == nil {
		return false
	}
	post := l.posts[i]
	for j, a := range post {
		if a.Equal(addr) {
			post = append(post[:j], post[j+1:]...)
			t.entries--
			if len(post) == 0 {
				l.keys = append(l.keys[:i], l.keys[i+1:]...)
				l.posts = append(l.posts[:i], l.posts[i+1:]...)
				t.keys--
			} else {
				l.posts[i] = post
			}
			return true
		}
	}
	return false
}

// Search returns the address list of key (nil if absent). The slice
// is the caller's: a copy, so later mutations of the tree cannot
// reach into it.
func (t *BTree) Search(key []byte) []Addr {
	t.mu.RLock()
	defer t.mu.RUnlock()
	l, i := t.findLeaf(key)
	if l == nil {
		return nil
	}
	return append([]Addr(nil), l.posts[i]...)
}

// SearchRoots returns the distinct roots of key's address list
// (DistinctRoots) as of instant at (0: the current state): Search
// copying only the root TIDs under the tree's lock, and deduplicating
// them after it is released. ok is false when the tree does not cover
// at (the watermark is later).
func (t *BTree) SearchRoots(key []byte, at int64) (roots []page.TID, ok bool) {
	t.mu.RLock()
	if !t.covers(at) {
		t.mu.RUnlock()
		return nil, false
	}
	l, i := t.findLeaf(key)
	if l == nil {
		t.mu.RUnlock()
		return nil, true
	}
	roots = rootsOf(l.posts[i])
	t.mu.RUnlock()
	return distinct(roots), true
}

func (t *BTree) findLeaf(key []byte) (*leaf, int) {
	n := t.root
	for {
		switch x := n.(type) {
		case *inner:
			n = x.children[childIndex(x.keys, key)]
		case *leaf:
			i, found := findKey(x.keys, key)
			if !found {
				return nil, 0
			}
			return x, i
		}
	}
}

// Range calls fn for every key in [lo, hi] (inclusive; nil lo means
// from the smallest key, nil hi means to the largest) in ascending
// key order. fn returning false stops the scan. fn runs under the
// tree's shared lock and must not mutate the tree.
func (t *BTree) Range(lo, hi []byte, fn func(key []byte, addrs []Addr) bool) {
	t.RangeAt(lo, hi, 0, fn)
}

// RangeAt is Range as of instant at (0: the current state). It reports
// false, calling fn for no key, when the tree does not cover at.
func (t *BTree) RangeAt(lo, hi []byte, at int64, fn func(key []byte, addrs []Addr) bool) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.covers(at) {
		return false
	}
	var l *leaf
	var i int
	if lo == nil {
		l, i = t.first, 0
	} else {
		l, i = t.seek(lo)
	}
	for l != nil {
		for ; i < len(l.keys); i++ {
			if hi != nil && bytes.Compare(l.keys[i], hi) > 0 {
				return true
			}
			if !fn(l.keys[i], l.posts[i]) {
				return true
			}
		}
		l, i = l.next, 0
	}
	return true
}

// seek positions at the first key >= lo.
func (t *BTree) seek(lo []byte) (*leaf, int) {
	n := t.root
	for {
		switch x := n.(type) {
		case *inner:
			n = x.children[childIndex(x.keys, lo)]
		case *leaf:
			i, _ := findKey(x.keys, lo)
			if i == len(x.keys) {
				return x.next, 0
			}
			return x, i
		}
	}
}

// findKey returns the position of key (or its insertion point) in a
// sorted key slice.
func findKey(keys [][]byte, key []byte) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(keys[mid], key) {
		case 0:
			return mid, true
		case -1:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// childIndex returns the child to follow for key in an inner node.
func childIndex(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func insertAt[T any](s []T, i int, v T) []T {
	s = append(s, v)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
