package index

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/page"
)

// Def describes an index in the catalog.
type Def struct {
	Name  string
	Table string
	// Path names the indexed attribute: a chain of table-valued
	// attribute names ending in an atomic attribute, e.g.
	// PROJECTS.MEMBERS.FUNCTION. A single name indexes a top-level
	// attribute.
	Path []string
	Kind Kind
}

// Index is a live index instance over one table.
type Index struct {
	Def
	tree *BTree
	// tablePath holds the attribute indexes of the table-valued
	// attributes along Path; atomPos is the position of the indexed
	// attribute among the target level's atomic attributes.
	tablePath []int
	atomPos   int
	attrType  model.Kind
}

// ResolvePath resolves an attribute-name path against a table type,
// returning the table-valued attribute indexes, the level type, and
// the position of the final atomic attribute among the level's atoms.
func ResolvePath(tt *model.TableType, path []string) (tablePath []int, level *model.TableType, atomPos int, kind model.Kind, err error) {
	level = tt
	for i, name := range path {
		ai := level.AttrIndex(name)
		if ai < 0 {
			return nil, nil, 0, 0, fmt.Errorf("index: no attribute %q in %s", name, level)
		}
		attr := level.Attrs[ai]
		if i == len(path)-1 {
			if attr.Type.Kind == model.KindTable {
				return nil, nil, 0, 0, fmt.Errorf("index: %q is a subtable, not an atomic attribute", name)
			}
			pos := 0
			for _, j := range level.AtomicIndexes() {
				if j == ai {
					return tablePath, level, pos, attr.Type.Kind, nil
				}
				pos++
			}
			return nil, nil, 0, 0, fmt.Errorf("index: internal: %q not among atomic attributes", name)
		}
		if attr.Type.Kind != model.KindTable {
			return nil, nil, 0, 0, fmt.Errorf("index: %q is atomic but the path continues", name)
		}
		tablePath = append(tablePath, ai)
		level = attr.Type.Table
	}
	return nil, nil, 0, 0, fmt.Errorf("index: empty attribute path")
}

// New creates an empty index for the table type.
func New(def Def, tt *model.TableType) (*Index, error) {
	tp, _, pos, kind, err := ResolvePath(tt, def.Path)
	if err != nil {
		return nil, err
	}
	if def.Kind < DataTID || def.Kind > Hierarchical {
		return nil, fmt.Errorf("index: unknown address kind %d", def.Kind)
	}
	return &Index{Def: def, tree: NewBTree(), tablePath: tp, atomPos: pos, attrType: kind}, nil
}

// Tree exposes the underlying B-tree (for range scans).
func (ix *Index) Tree() *BTree { return ix.tree }

// Depth returns the number of Mini TID components a hierarchical
// address of this index carries (the nesting level of the indexed
// attribute; 1 for top-level attributes).
func (ix *Index) Depth() int {
	if len(ix.tablePath) == 0 {
		return 1
	}
	return len(ix.tablePath)
}

// Key encodes an atomic value as the index key.
func (ix *Index) Key(v model.Value) ([]byte, error) { return model.EncodeKeyValue(v) }

// Probe names the indexed attribute as an object walk probe.
func (ix *Index) Probe() object.Probe {
	return object.Probe{Level: ix.tablePath, Atom: ix.atomPos}
}

// EntryAddr is the address of the entry a walk hit of object ref makes
// under the index's address kind. A hierarchical address shares the
// hit's path: an entry kept in the tree needs a copy.
func (ix *Index) EntryAddr(ref object.Ref, h *object.Hit) Addr {
	switch ix.Kind {
	case Hierarchical:
		return Addr{TID: ref, Path: h.Path}
	case DataTID:
		return Addr{TID: h.Data}
	}
	return Addr{TID: ref}
}

// AddObject indexes every occurrence of the indexed attribute inside
// one complex object, with addresses according to the index kind.
func (ix *Index) AddObject(m *object.Manager, tt *model.TableType, ref object.Ref) error {
	return m.WalkProbes(tt, ref, nil, []object.Probe{ix.Probe()}, func(h *object.Hit) error {
		a := ix.EntryAddr(ref, h)
		a.Path = slices.Clone(a.Path)
		ix.tree.Insert(h.Key, a)
		return nil
	})
}

// RemoveObject removes every index entry contributed by the object.
func (ix *Index) RemoveObject(m *object.Manager, tt *model.TableType, ref object.Ref) error {
	return m.WalkProbes(tt, ref, nil, []object.Probe{ix.Probe()}, func(h *object.Hit) error {
		ix.tree.Delete(h.Key, ix.EntryAddr(ref, h))
		return nil
	})
}

// AddFlat indexes one tuple of a flat table (the classic System R
// case: the address is simply the tuple's TID).
func (ix *Index) AddFlat(tid page.TID, tup model.Tuple, tt *model.TableType) error {
	key, err := ix.flatKey(tup, tt)
	if err != nil {
		return err
	}
	ix.tree.Insert(key, Addr{TID: tid})
	return nil
}

// RemoveFlat removes one flat tuple's entry.
func (ix *Index) RemoveFlat(tid page.TID, tup model.Tuple, tt *model.TableType) error {
	key, err := ix.flatKey(tup, tt)
	if err != nil {
		return err
	}
	ix.tree.Delete(key, Addr{TID: tid})
	return nil
}

func (ix *Index) flatKey(tup model.Tuple, tt *model.TableType) ([]byte, error) {
	if len(ix.tablePath) != 0 {
		return nil, fmt.Errorf("index: nested path on flat table")
	}
	ai := tt.AttrIndex(ix.Path[0])
	if ai < 0 {
		return nil, fmt.Errorf("index: no attribute %q", ix.Path[0])
	}
	return ix.Key(tup[ai])
}

// Lookup returns the address list for an exact key value.
func (ix *Index) Lookup(v model.Value) ([]Addr, error) {
	var buf [keyBuf]byte
	key, err := model.AppendKeyValue(buf[:0], v)
	if err != nil {
		return nil, err
	}
	return ix.tree.Search(key), nil
}

// LookupRoots returns the distinct complex objects of the address list
// for an exact key value (DistinctRoots of Lookup), copying only the
// roots out of the tree: a point probe's one allocation is its result.
func (ix *Index) LookupRoots(v model.Value) ([]page.TID, error) {
	var buf [keyBuf]byte
	key, err := model.AppendKeyValue(buf[:0], v)
	if err != nil {
		return nil, err
	}
	return ix.tree.SearchRoots(key), nil
}

// keyBuf is the key length a probe encodes without a heap allocation:
// every number, time and bool, and the short strings.
const keyBuf = 32

// LookupRange streams the addresses of all keys in [lo, hi]; nil
// bounds are open. Exclusive bounds are handled by the caller via key
// filtering.
func (ix *Index) LookupRange(lo, hi model.Value, fn func(addrs []Addr) bool) error {
	var lk, hk []byte
	var err error
	if !model.IsNull(lo) {
		if lk, err = ix.Key(lo); err != nil {
			return err
		}
	}
	if !model.IsNull(hi) {
		if hk, err = ix.Key(hi); err != nil {
			return err
		}
	}
	ix.tree.Range(lk, hk, func(_ []byte, addrs []Addr) bool { return fn(addrs) })
	return nil
}

// DistinctRoots deduplicates an address list to the distinct complex
// objects it references — the "multiple access to the same complex
// object can be avoided" property of root-TID and hierarchical
// addresses (§4.2).
func DistinctRoots(addrs []Addr) []page.TID {
	return distinct(rootsOf(addrs))
}

// rootsOf copies the root TIDs of an address list into a fresh slice.
func rootsOf(addrs []Addr) []page.TID {
	roots := make([]page.TID, len(addrs))
	for i, a := range addrs {
		roots[i] = a.TID
	}
	return roots
}

// distinct drops repeated roots in place, keeping first occurrences in
// order. A list of one root — a unique key's posting, which every point
// probe reads — has nothing to drop and builds no set.
func distinct(roots []page.TID) []page.TID {
	if len(roots) <= 1 {
		return roots
	}
	seen := make(map[page.TID]bool, len(roots))
	out := roots[:0]
	for _, r := range roots {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// IntersectByPrefix returns the pairs of addresses from as and bs
// that refer to the same complex subobject at nesting depth k — the
// final-solution query execution of Fig 7b, resolving a conjunctive
// predicate purely from index information.
func IntersectByPrefix(as, bs []Addr, k int) [][2]Addr {
	type pk struct {
		tid  page.TID
		path [8]page.MiniTID // fixed array as map key; depth ≤ 8
	}
	if k > 8 {
		k = 8
	}
	keyOf := func(a Addr) (pk, bool) {
		if len(a.Path) < k {
			return pk{}, false
		}
		key := pk{tid: a.TID}
		for i := 0; i < k; i++ {
			key.path[i] = a.Path[i]
		}
		for i := k; i < 8; i++ {
			key.path[i] = page.NilMini
		}
		return key, true
	}
	byPrefix := make(map[pk][]Addr, len(as))
	for _, a := range as {
		if key, ok := keyOf(a); ok {
			byPrefix[key] = append(byPrefix[key], a)
		}
	}
	var out [][2]Addr
	for _, b := range bs {
		key, ok := keyOf(b)
		if !ok {
			continue
		}
		for _, a := range byPrefix[key] {
			out = append(out, [2]Addr{a, b})
		}
	}
	return out
}

// Diff compares two indexes entry for entry — a live index against its
// shadow rebuilt from base data — and describes the first difference.
func Diff(live, shadow *Index) (string, bool) {
	a, b := live.entries(), shadow.entries()
	if len(a) != len(b) {
		return fmt.Sprintf("live index has %d entries, base data implies %d", len(a), len(b)), true
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("entry mismatch: live %s, expected %s", a[i], b[i]), true
		}
	}
	return "", false
}

// entries renders the index as sorted "key/addr" strings.
func (ix *Index) entries() []string {
	var out []string
	ix.tree.Range(nil, nil, func(key []byte, addrs []Addr) bool {
		for _, a := range addrs {
			out = append(out, fmt.Sprintf("%x/%v/%v", key, a.TID, a.Path))
		}
		return true
	})
	sort.Strings(out)
	return out
}
