package index

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/buffer"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/page"
	"repro/internal/segment"
	"repro/internal/subtuple"
	"repro/internal/testdata"
)

func newManager(t testing.TB) *object.Manager {
	t.Helper()
	pool := buffer.NewPool(256)
	pool.Register(1, segment.NewMemStore())
	st := subtuple.New(subtuple.Config{Pool: pool, Seg: 1})
	return object.NewManager(st, object.SS3)
}

func insertDepts(t testing.TB, m *object.Manager) []object.Ref {
	t.Helper()
	tt := testdata.DepartmentsType()
	var refs []object.Ref
	for _, tup := range testdata.Departments().Tuples {
		ref, err := m.Insert(tt, tup)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	return refs
}

func TestBTreeBasic(t *testing.T) {
	bt := NewBTree()
	addr := func(i int) Addr { return Addr{TID: page.TID{Page: uint32(i + 1)}} }
	for i := 0; i < 1000; i++ {
		key, _ := model.EncodeKeyValue(model.Int(int64(i % 100)))
		bt.Insert(key, addr(i))
	}
	if bt.Len() != 1000 || bt.Keys() != 100 {
		t.Fatalf("Len=%d Keys=%d", bt.Len(), bt.Keys())
	}
	key, _ := model.EncodeKeyValue(model.Int(7))
	if got := bt.Search(key); len(got) != 10 {
		t.Errorf("postings for 7 = %d, want 10", len(got))
	}
	missing, _ := model.EncodeKeyValue(model.Int(1000))
	if got := bt.Search(missing); got != nil {
		t.Errorf("postings for missing key = %v", got)
	}
}

func TestBTreeRangeOrder(t *testing.T) {
	bt := NewBTree()
	for i := 999; i >= 0; i-- {
		key, _ := model.EncodeKeyValue(model.Int(int64(i)))
		bt.Insert(key, Addr{TID: page.TID{Page: uint32(i + 1)}})
	}
	lo, _ := model.EncodeKeyValue(model.Int(100))
	hi, _ := model.EncodeKeyValue(model.Int(199))
	var got []uint32
	bt.Range(lo, hi, func(_ []byte, addrs []Addr) bool {
		got = append(got, addrs[0].TID.Page)
		return true
	})
	if len(got) != 100 {
		t.Fatalf("range size = %d", len(got))
	}
	for i, pg := range got {
		if pg != uint32(101+i) {
			t.Fatalf("range out of order at %d: %d", i, pg)
		}
	}
	// Full scan.
	n := 0
	bt.Range(nil, nil, func(_ []byte, _ []Addr) bool { n++; return true })
	if n != 1000 {
		t.Errorf("full range = %d", n)
	}
	// Early stop.
	n = 0
	bt.Range(nil, nil, func(_ []byte, _ []Addr) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("early stop = %d", n)
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := NewBTree()
	key, _ := model.EncodeKeyValue(model.Str("k"))
	a1 := Addr{TID: page.TID{Page: 1}}
	a2 := Addr{TID: page.TID{Page: 2}}
	bt.Insert(key, a1)
	bt.Insert(key, a2)
	if !bt.Delete(key, a1) {
		t.Fatal("delete failed")
	}
	if got := bt.Search(key); len(got) != 1 || got[0].TID.Page != 2 {
		t.Errorf("after delete: %v", got)
	}
	if bt.Delete(key, a1) {
		t.Error("double delete succeeded")
	}
	bt.Delete(key, a2)
	if bt.Search(key) != nil || bt.Keys() != 0 {
		t.Error("key not removed when postings emptied")
	}
}

// Property: the tree agrees with a map of multisets under random
// inserts and deletes.
func TestBTreeQuick(t *testing.T) {
	f := func(ops []struct {
		K   uint8
		Del bool
	}) bool {
		bt := NewBTree()
		shadow := map[uint8]int{}
		for i, op := range ops {
			key, _ := model.EncodeKeyValue(model.Int(int64(op.K)))
			if op.Del && shadow[op.K] > 0 {
				if !bt.Delete(key, Addr{TID: page.TID{Page: uint32(op.K) + 1}}) {
					return false
				}
				shadow[op.K]--
			} else if !op.Del {
				bt.Insert(key, Addr{TID: page.TID{Page: uint32(op.K) + 1}})
				shadow[op.K]++
			}
			_ = i
		}
		total := 0
		for k, n := range shadow {
			key, _ := model.EncodeKeyValue(model.Int(int64(k)))
			if len(bt.Search(key)) != n {
				return false
			}
			total += n
		}
		return bt.Len() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestResolvePath(t *testing.T) {
	tt := testdata.DepartmentsType()
	tp, level, pos, kind, err := ResolvePath(tt, []string{"PROJECTS", "MEMBERS", "FUNCTION"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tp) != 2 || tp[0] != 2 || tp[1] != 2 || pos != 1 || kind != model.KindString {
		t.Errorf("tp=%v level=%s pos=%d kind=%s", tp, level, pos, kind)
	}
	if _, _, _, _, err := ResolvePath(tt, []string{"PROJECTS"}); err == nil {
		t.Error("subtable path accepted")
	}
	if _, _, _, _, err := ResolvePath(tt, []string{"DNO", "X"}); err == nil {
		t.Error("path through atomic accepted")
	}
	if _, _, _, _, err := ResolvePath(tt, []string{"NOPE"}); err == nil {
		t.Error("missing attribute accepted")
	}
}

// TestIndexStrategies builds the FUNCTION index of §4.2 under all
// three address strategies and checks the paper's example entry:
// <'Consultant', 56019, 89921, 44512>.
func TestIndexStrategies(t *testing.T) {
	for _, kind := range []Kind{DataTID, RootTID, Hierarchical} {
		t.Run(kind.String(), func(t *testing.T) {
			m := newManager(t)
			refs := insertDepts(t, m)
			ix, err := New(Def{Name: "fn", Table: "DEPARTMENTS", Path: []string{"PROJECTS", "MEMBERS", "FUNCTION"}, Kind: kind}, testdata.DepartmentsType())
			if err != nil {
				t.Fatal(err)
			}
			for _, ref := range refs {
				if err := ix.AddObject(m, testdata.DepartmentsType(), ref); err != nil {
					t.Fatal(err)
				}
			}
			addrs, err := ix.Lookup(model.Str("Consultant"))
			if err != nil {
				t.Fatal(err)
			}
			if len(addrs) != 3 {
				t.Fatalf("consultant entries = %d, want 3", len(addrs))
			}
			switch kind {
			case RootTID:
				// Department 218 has two consultants: its root appears
				// twice, and deduplication yields two distinct objects.
				roots := DistinctRoots(addrs)
				if len(roots) != 2 {
					t.Errorf("distinct roots = %d, want 2 (314 and 218)", len(roots))
				}
			case Hierarchical:
				for _, a := range addrs {
					if len(a.Path) != 2 {
						t.Errorf("hierarchical address depth = %d, want 2", len(a.Path))
					}
				}
				// Direct access to the data via the address.
				atoms, err := m.ReadDataPath(addrs[0].TID, addrs[0].Path)
				if err != nil {
					t.Fatal(err)
				}
				if atoms[1].(model.Str) != "Consultant" {
					t.Errorf("ReadDataPath = %v", atoms)
				}
			case DataTID:
				for _, a := range addrs {
					if len(a.Path) != 0 {
						t.Error("data-TID address carries a path")
					}
				}
			}
		})
	}
}

// TestFig7ConjunctiveQuery reproduces the Fig 7b experiment: with
// hierarchical addresses, PNO=17 AND FUNCTION='Consultant' resolves
// from the two indexes alone (shared path prefix at depth 1 = same
// project), with no scan of the data.
func TestFig7ConjunctiveQuery(t *testing.T) {
	m := newManager(t)
	refs := insertDepts(t, m)
	tt := testdata.DepartmentsType()
	pnoIx, _ := New(Def{Name: "pno", Path: []string{"PROJECTS", "PNO"}, Kind: Hierarchical}, tt)
	fnIx, _ := New(Def{Name: "fn", Path: []string{"PROJECTS", "MEMBERS", "FUNCTION"}, Kind: Hierarchical}, tt)
	for _, ref := range refs {
		pnoIx.AddObject(m, tt, ref)
		fnIx.AddObject(m, tt, ref)
	}
	ps, _ := pnoIx.Lookup(model.Int(17))
	fs, _ := fnIx.Lookup(model.Str("Consultant"))
	pairs := IntersectByPrefix(ps, fs, 1)
	if len(pairs) != 1 {
		t.Fatalf("prefix intersection = %d pairs, want 1 (project 17's consultant)", len(pairs))
	}
	// The matched department is 314: P and F share the root.
	atoms, err := m.ReadDataPath(pairs[0][0].TID, pairs[0][0].Path[:1])
	if err != nil {
		t.Fatal(err)
	}
	if atoms[0].(model.Int) != 17 {
		t.Errorf("matched project = %v, want 17", atoms[0])
	}
	// Sanity: PNO=23 (HEAP) has no consultant.
	ps23, _ := pnoIx.Lookup(model.Int(23))
	if pairs := IntersectByPrefix(ps23, fs, 1); len(pairs) != 0 {
		t.Errorf("HEAP unexpectedly matched: %v", pairs)
	}
}

func TestIndexMaintenanceRemoveObject(t *testing.T) {
	m := newManager(t)
	refs := insertDepts(t, m)
	tt := testdata.DepartmentsType()
	ix, _ := New(Def{Name: "fn", Path: []string{"PROJECTS", "MEMBERS", "FUNCTION"}, Kind: Hierarchical}, tt)
	for _, ref := range refs {
		ix.AddObject(m, tt, ref)
	}
	before, _ := ix.Lookup(model.Str("Consultant"))
	if err := ix.RemoveObject(m, tt, refs[1]); err != nil { // dept 218
		t.Fatal(err)
	}
	after, _ := ix.Lookup(model.Str("Consultant"))
	if len(after) != len(before)-2 {
		t.Errorf("after removal: %d entries, want %d", len(after), len(before)-2)
	}
}

func TestFlatIndex(t *testing.T) {
	tt := testdata.EmployeesType()
	ix, err := New(Def{Name: "lname", Path: []string{"LNAME"}, Kind: DataTID}, tt)
	if err != nil {
		t.Fatal(err)
	}
	for i, tup := range testdata.Employees().Tuples {
		if err := ix.AddFlat(page.TID{Page: 1, Slot: uint16(i)}, tup, tt); err != nil {
			t.Fatal(err)
		}
	}
	addrs, _ := ix.Lookup(model.Str("Schmidt"))
	if len(addrs) != 1 {
		t.Fatalf("Schmidt = %d entries", len(addrs))
	}
	// Range over a name interval.
	n := 0
	ix.LookupRange(model.Str("A"), model.Str("L"), func(addrs []Addr) bool {
		n += len(addrs)
		return true
	})
	if n == 0 {
		t.Error("range lookup found nothing")
	}
}

func TestSharedPrefix(t *testing.T) {
	root := page.TID{Page: 5, Slot: 1}
	p1 := page.MiniTID{Page: 0, Slot: 3}
	p2 := page.MiniTID{Page: 1, Slot: 7}
	a := Addr{TID: root, Path: []page.MiniTID{p1, p2}}
	b := Addr{TID: root, Path: []page.MiniTID{p1}}
	c := Addr{TID: root, Path: []page.MiniTID{p2}}
	if !SharedPrefix(a, b, 1) {
		t.Error("same project not detected")
	}
	if SharedPrefix(a, c, 1) {
		t.Error("different projects matched")
	}
	if SharedPrefix(a, b, 2) {
		t.Error("depth beyond b's path matched")
	}
	d := Addr{TID: page.TID{Page: 6}, Path: []page.MiniTID{p1}}
	if SharedPrefix(b, d, 1) {
		t.Error("different roots matched")
	}
}

func ExampleDistinctRoots() {
	addrs := []Addr{
		{TID: page.TID{Page: 1}},
		{TID: page.TID{Page: 2}},
		{TID: page.TID{Page: 1}},
	}
	fmt.Println(len(DistinctRoots(addrs)))
	// Output: 2
}

// TestDistinctRootsKeepsFirstOccurrences: deduplication keeps each root
// once, in the order of its first address, and leaves the list it reads
// alone.
func TestDistinctRootsKeepsFirstOccurrences(t *testing.T) {
	r := func(p uint32) Addr { return Addr{TID: page.TID{Page: p}} }
	for _, tc := range []struct {
		in   []Addr
		want []uint32
	}{
		{nil, nil},
		{[]Addr{r(7)}, []uint32{7}},
		{[]Addr{r(1), r(2), r(1), r(3), r(2)}, []uint32{1, 2, 3}},
	} {
		in := append([]Addr(nil), tc.in...)
		got := DistinctRoots(tc.in)
		if len(got) != len(tc.want) {
			t.Fatalf("DistinctRoots(%v) = %v, want pages %v", in, got, tc.want)
		}
		for i, p := range tc.want {
			if got[i].Page != p {
				t.Errorf("DistinctRoots(%v)[%d] = %v, want page %d", in, i, got[i], p)
			}
		}
		for i := range in {
			if tc.in[i].TID != in[i].TID {
				t.Errorf("DistinctRoots changed its input at %d", i)
			}
		}
	}
}
