package object

import (
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/model"
	"repro/internal/page"
	"repro/internal/segment"
	"repro/internal/subtuple"
	"repro/internal/testdata"
)

func newTestStore(t testing.TB, versioned bool) (*subtuple.Store, *buffer.Pool) {
	t.Helper()
	pool := buffer.NewPool(256)
	pool.Register(1, segment.NewMemStore())
	var clock func() int64
	if versioned {
		ts := int64(0)
		clock = func() int64 { ts++; return ts }
	}
	return subtuple.New(subtuple.Config{Pool: pool, Seg: 1, Versioned: versioned, Clock: clock}), pool
}

func allLayouts(t *testing.T, fn func(t *testing.T, m *Manager)) {
	for _, l := range []Layout{SS1, SS2, SS3} {
		t.Run(l.String(), func(t *testing.T) {
			st, _ := newTestStore(t, false)
			fn(t, NewManager(st, l))
		})
	}
}

func TestRoundTripDepartments(t *testing.T) {
	tt := testdata.DepartmentsType()
	depts := testdata.Departments()
	allLayouts(t, func(t *testing.T, m *Manager) {
		var refs []Ref
		for _, tup := range depts.Tuples {
			ref, err := m.Insert(tt, tup)
			if err != nil {
				t.Fatalf("Insert: %v", err)
			}
			refs = append(refs, ref)
		}
		for i, ref := range refs {
			got, err := m.Read(tt, ref)
			if err != nil {
				t.Fatalf("Read dept %d: %v", i, err)
			}
			if !model.TupleEqual(got, depts.Tuples[i]) {
				t.Errorf("dept %d mismatch:\n got %v\nwant %v", i, got, depts.Tuples[i])
			}
		}
	})
}

func TestRoundTripReports(t *testing.T) {
	tt := testdata.ReportsType()
	reports := testdata.Reports()
	allLayouts(t, func(t *testing.T, m *Manager) {
		for i, tup := range reports.Tuples {
			ref, err := m.Insert(tt, tup)
			if err != nil {
				t.Fatalf("Insert: %v", err)
			}
			got, err := m.Read(tt, ref)
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if !model.TupleEqual(got, tup) {
				t.Errorf("report %d mismatch:\n got %v\nwant %v", i, got, tup)
			}
		}
	})
}

// TestOrderedSubtablePreservesSequence checks that lists keep their
// order through the MD entry sequence (§4.1).
func TestOrderedSubtablePreservesSequence(t *testing.T) {
	tt := model.MustTableType(false,
		model.Attr{Name: "ID", Type: model.AtomicType(model.KindInt)},
		model.Attr{Name: "STEPS", Type: model.TableOf(true,
			model.Attr{Name: "NAME", Type: model.AtomicType(model.KindString)})},
	)
	tup := model.Tuple{model.Int(1), model.NewList(
		model.Tuple{model.Str("c")}, model.Tuple{model.Str("a")}, model.Tuple{model.Str("b")},
	)}
	allLayouts(t, func(t *testing.T, m *Manager) {
		ref, err := m.Insert(tt, tup)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Read(tt, ref)
		if err != nil {
			t.Fatal(err)
		}
		steps := got[1].(*model.Table)
		want := []string{"c", "a", "b"}
		for i, w := range want {
			if string(steps.Tuples[i][0].(model.Str)) != w {
				t.Fatalf("step %d = %v, want %s", i, steps.Tuples[i][0], w)
			}
		}
	})
}

// TestMDSubtupleCountOrder asserts the paper's ordering
// SS1 > SS3 > SS2 for the number of MD subtuples (§4.1).
func TestMDSubtupleCountOrder(t *testing.T) {
	tt := testdata.DepartmentsType()
	dept314 := testdata.Departments().Tuples[0]
	counts := map[Layout]int{}
	for _, l := range []Layout{SS1, SS2, SS3} {
		st, _ := newTestStore(t, false)
		m := NewManager(st, l)
		ref, err := m.Insert(tt, dept314)
		if err != nil {
			t.Fatal(err)
		}
		s, err := m.ObjectStats(tt, ref)
		if err != nil {
			t.Fatal(err)
		}
		counts[l] = s.MDSubtuples
		t.Logf("%s: %d MD subtuples, %d data subtuples, %d pointers, %d MD bytes",
			l, s.MDSubtuples, s.DataSubtuples, s.Pointers, s.MDBytes)
	}
	if !(counts[SS1] > counts[SS3] && counts[SS3] > counts[SS2]) {
		t.Errorf("MD subtuple counts not SS1 > SS3 > SS2: %v", counts)
	}
	// Fig 6 for department 314: SS1 has root + PROJECTS + EQUIP +
	// 2 project nodes + 2 MEMBERS = 7; SS3 root + PROJECTS + EQUIP +
	// 2 MEMBERS = 5; SS2 root + 2 project nodes = 3.
	if counts[SS1] != 7 || counts[SS3] != 5 || counts[SS2] != 3 {
		t.Errorf("department 314 MD counts = %v, want SS1=7 SS3=5 SS2=3", counts)
	}
}

func TestDataSubtupleCountInvariant(t *testing.T) {
	tt := testdata.DepartmentsType()
	dept314 := testdata.Departments().Tuples[0]
	// 1 dept + 2 projects + 7 members + 3 equip = 13 data subtuples,
	// identical across layouts (structure/data separation).
	for _, l := range []Layout{SS1, SS2, SS3} {
		st, _ := newTestStore(t, false)
		m := NewManager(st, l)
		ref, _ := m.Insert(tt, dept314)
		s, err := m.ObjectStats(tt, ref)
		if err != nil {
			t.Fatal(err)
		}
		if s.DataSubtuples != 13 {
			t.Errorf("%s: %d data subtuples, want 13", l, s.DataSubtuples)
		}
	}
}

func TestNavigation(t *testing.T) {
	tt := testdata.DepartmentsType()
	dept314 := testdata.Departments().Tuples[0]
	allLayouts(t, func(t *testing.T, m *Manager) {
		ref, err := m.Insert(tt, dept314)
		if err != nil {
			t.Fatal(err)
		}
		// PROJECTS is attr 2; project 1 (HEAP); MEMBERS is attr 2 within.
		proj, err := m.ReadSubobject(tt, ref, Step{Attr: 2, Pos: 1})
		if err != nil {
			t.Fatal(err)
		}
		if proj[1].(model.Str) != "HEAP" {
			t.Fatalf("project = %v, want HEAP", proj[1])
		}
		members, err := m.ReadSubtable(tt, ref, 2, Step{Attr: 2, Pos: 1})
		if err != nil {
			t.Fatal(err)
		}
		if members.Len() != 4 {
			t.Fatalf("HEAP has %d members, want 4", members.Len())
		}
		atoms, err := m.ReadAtomsAt(tt, ref)
		if err != nil {
			t.Fatal(err)
		}
		if atoms[0].(model.Int) != 314 {
			t.Fatalf("top-level atoms = %v", atoms)
		}
	})
}

func TestMutations(t *testing.T) {
	tt := testdata.DepartmentsType()
	dept314 := testdata.Departments().Tuples[0].Clone()
	allLayouts(t, func(t *testing.T, m *Manager) {
		ref, err := m.Insert(tt, dept314)
		if err != nil {
			t.Fatal(err)
		}
		// Update the budget (atomic attrs of the top level: DNO, MGRNO, BUDGET).
		if err := m.UpdateAtoms(tt, ref, []model.Value{model.Int(314), model.Int(56194), model.Int(999)}); err != nil {
			t.Fatalf("UpdateAtoms: %v", err)
		}
		// Insert a new member into project CGA (pos 0).
		newMember := model.Tuple{model.Int(11111), model.Str("Consultant")}
		if err := m.InsertMember(tt, ref, []Step{{Attr: 2, Pos: 0}}, 2, -1, newMember); err != nil {
			t.Fatalf("InsertMember: %v", err)
		}
		// Insert a whole new project.
		newProj := model.Tuple{model.Int(99), model.Str("NEW"), model.NewRelation(
			model.Tuple{model.Int(22222), model.Str("Leader")},
		)}
		if err := m.InsertMember(tt, ref, nil, 2, -1, newProj); err != nil {
			t.Fatalf("InsertMember project: %v", err)
		}
		// Delete equipment item 0.
		if err := m.DeleteMember(tt, ref, nil, 4, 0); err != nil {
			t.Fatalf("DeleteMember: %v", err)
		}
		got, err := m.Read(tt, ref)
		if err != nil {
			t.Fatal(err)
		}
		if got[3].(model.Int) != 999 {
			t.Errorf("budget = %v, want 999", got[3])
		}
		projs := got[2].(*model.Table)
		if projs.Len() != 3 {
			t.Fatalf("projects = %d, want 3", projs.Len())
		}
		cga := projs.Tuples[0]
		if cga[2].(*model.Table).Len() != 4 {
			t.Errorf("CGA members = %d, want 4", cga[2].(*model.Table).Len())
		}
		if projs.Tuples[2][1].(model.Str) != "NEW" {
			t.Errorf("new project = %v", projs.Tuples[2][1])
		}
		if got[4].(*model.Table).Len() != 2 {
			t.Errorf("equip = %d, want 2", got[4].(*model.Table).Len())
		}
	})
}

func TestDeleteObject(t *testing.T) {
	tt := testdata.DepartmentsType()
	allLayouts(t, func(t *testing.T, m *Manager) {
		ref, err := m.Insert(tt, testdata.Departments().Tuples[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Delete(tt, ref); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if _, err := m.Read(tt, ref); err == nil {
			t.Fatal("Read after Delete succeeded")
		}
	})
}

func TestEnumLevel(t *testing.T) {
	tt := testdata.DepartmentsType()
	allLayouts(t, func(t *testing.T, m *Manager) {
		ref, err := m.Insert(tt, testdata.Departments().Tuples[0])
		if err != nil {
			t.Fatal(err)
		}
		// Enumerate MEMBERS level (PROJECTS attr 2, MEMBERS attr 2), the
		// text of FUNCTION (its second atom).
		var paths [][]page.MiniTID
		var funcs []string
		probes := []Probe{{Level: []int{2, 2}, Atom: 1, Text: true}}
		_, err = m.WalkProbes(tt, ref, nil, probes, func(h *Hit) error {
			cp := append([]page.MiniTID(nil), h.Path...)
			paths = append(paths, cp)
			funcs = append(funcs, string(h.Key))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) != 7 {
			t.Fatalf("enumerated %d members, want 7", len(paths))
		}
		for _, p := range paths {
			if len(p) != 2 {
				t.Fatalf("member path length %d, want 2 (project data, member data)", len(p))
			}
		}
		// Members of the same project share the path prefix (Fig 7b).
		if paths[0][0] != paths[1][0] {
			t.Error("members of project CGA do not share the project data-subtuple prefix")
		}
		if paths[0][0] == paths[3][0] {
			t.Error("members of different projects share a prefix")
		}
		// Direct access through the hierarchical address.
		atoms, err := m.ReadDataPath(ref, paths[1])
		if err != nil {
			t.Fatal(err)
		}
		if string(atoms[1].(model.Str)) != funcs[1] {
			t.Errorf("ReadDataPath = %v, want %s", atoms, funcs[1])
		}
	})
}

func TestCheckoutRelocate(t *testing.T) {
	tt := testdata.DepartmentsType()
	want := testdata.Departments().Tuples[0]
	allLayouts(t, func(t *testing.T, m *Manager) {
		ref, err := m.Insert(tt, want)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := m.Export(ref)
		if err != nil {
			t.Fatalf("Export: %v", err)
		}
		raw := EncodeSnapshot(snap)
		snap2, err := DecodeSnapshot(raw)
		if err != nil {
			t.Fatalf("DecodeSnapshot: %v", err)
		}
		ref2, err := m.Import(snap2)
		if err != nil {
			t.Fatalf("Import: %v", err)
		}
		got, err := m.Read(tt, ref2)
		if err != nil {
			t.Fatalf("Read imported: %v", err)
		}
		if !model.TupleEqual(got, want) {
			t.Errorf("imported object mismatch:\n got %v\nwant %v", got, want)
		}
		// Relocate and re-check; the original is untouched.
		ref3, err := m.Relocate(ref)
		if err != nil {
			t.Fatalf("Relocate: %v", err)
		}
		got3, err := m.Read(tt, ref3)
		if err != nil {
			t.Fatal(err)
		}
		if !model.TupleEqual(got3, want) {
			t.Error("relocated object mismatch")
		}
	})
}

func TestVersionedASOF(t *testing.T) {
	tt := testdata.DepartmentsType()
	for _, l := range []Layout{SS1, SS2, SS3} {
		t.Run(l.String(), func(t *testing.T) {
			ts := int64(0)
			pool := buffer.NewPool(256)
			pool.Register(1, segment.NewMemStore())
			st := subtuple.New(subtuple.Config{Pool: pool, Seg: 1, Versioned: true, Clock: func() int64 { ts++; return ts }})
			m := NewManager(st, l)
			orig := testdata.Departments().Tuples[0]
			ref, err := m.Insert(tt, orig)
			if err != nil {
				t.Fatal(err)
			}
			t1 := ts // after initial insert
			if err := m.UpdateAtoms(tt, ref, []model.Value{model.Int(314), model.Int(56194), model.Int(777)}); err != nil {
				t.Fatal(err)
			}
			if err := m.DeleteMember(tt, ref, nil, 2, 0); err != nil { // drop project CGA
				t.Fatal(err)
			}
			// Current state: budget 777, one project.
			cur, err := m.Read(tt, ref)
			if err != nil {
				t.Fatal(err)
			}
			if cur[3].(model.Int) != 777 || cur[2].(*model.Table).Len() != 1 {
				t.Fatalf("current state wrong: %v", cur)
			}
			// ASOF t1: original budget and both projects.
			old, err := m.ReadAsOf(tt, ref, t1)
			if err != nil {
				t.Fatal(err)
			}
			if !model.TupleEqual(old, orig) {
				t.Errorf("ASOF state mismatch:\n got %v\nwant %v", old, orig)
			}
		})
	}
}

func TestLargeObjectOverflow(t *testing.T) {
	// A subtable with enough members that its MD subtuple spills into
	// an overflow chain (SS3 keeps one MD subtuple per subtable, so
	// 3000 members × 4 bytes exceed a page).
	tt := model.MustTableType(false,
		model.Attr{Name: "ID", Type: model.AtomicType(model.KindInt)},
		model.Attr{Name: "ITEMS", Type: model.TableOf(false,
			model.Attr{Name: "N", Type: model.AtomicType(model.KindInt)})},
	)
	items := model.NewRelation()
	for i := 0; i < 3000; i++ {
		items.Append(model.Tuple{model.Int(int64(i))})
	}
	tup := model.Tuple{model.Int(7), items}
	allLayouts(t, func(t *testing.T, m *Manager) {
		ref, err := m.Insert(tt, tup)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Read(tt, ref)
		if err != nil {
			t.Fatal(err)
		}
		if got[1].(*model.Table).Len() != 3000 {
			t.Fatalf("items = %d, want 3000", got[1].(*model.Table).Len())
		}
		// Mutate after overflow: append one more and re-read.
		if err := m.InsertMember(tt, ref, nil, 1, -1, model.Tuple{model.Int(3000)}); err != nil {
			t.Fatalf("InsertMember: %v", err)
		}
		got, err = m.Read(tt, ref)
		if err != nil {
			t.Fatal(err)
		}
		if got[1].(*model.Table).Len() != 3001 {
			t.Fatalf("items after insert = %d", got[1].(*model.Table).Len())
		}
	})
}

func TestClusteringPageLocality(t *testing.T) {
	// All subtuples of one object live on its own page set; reading a
	// whole object touches only its local pages (plus buffer effects).
	tt := testdata.DepartmentsType()
	st, pool := newTestStore(t, false)
	m := NewManager(st, SS3)
	cfg := testdata.GenConfig{Departments: 20, ProjsPerDept: 5, MembersPerProj: 10, EquipPerDept: 4, Seed: 1}
	var refs []Ref
	for _, tup := range testdata.GenDepartments(cfg).Tuples {
		ref, err := m.Insert(tt, tup)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	stats, err := m.ObjectStats(tt, refs[10])
	if err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	if _, err := m.Read(tt, refs[10]); err != nil {
		t.Fatal(err)
	}
	got := pool.Stats()
	// Distinct pages read must not exceed the object's page count
	// (every fetch beyond that is a buffer hit on the same pages).
	if int(got.Reads) > stats.Pages {
		t.Errorf("whole-object read did %d physical reads, object spans %d pages", got.Reads, stats.Pages)
	}
	t.Logf("object pages=%d, fetches=%d, physical reads=%d", stats.Pages, got.Fetches, got.Reads)
}

// newVersionedStore returns a versioned store whose logical clock is
// exposed for snapshot-based property tests.
func newVersionedStore(t testing.TB) (*subtuple.Store, *int64) {
	t.Helper()
	pool := buffer.NewPool(256)
	pool.Register(1, segment.NewMemStore())
	ts := new(int64)
	st := subtuple.New(subtuple.Config{Pool: pool, Seg: 1, Versioned: true, Clock: func() int64 { *ts++; return *ts }})
	return st, ts
}

// Page-list gaps (§4.1): deleting enough members empties pages, which
// become gaps in the page list; later growth reuses the gaps, and
// existing Mini TIDs stay valid throughout.
func TestPageListGapsReused(t *testing.T) {
	tt := model.MustTableType(false,
		model.Attr{Name: "ID", Type: model.AtomicType(model.KindInt)},
		model.Attr{Name: "ITEMS", Type: model.TableOf(false,
			model.Attr{Name: "PAYLOAD", Type: model.AtomicType(model.KindString)})},
	)
	big := func(i int) model.Tuple {
		return model.Tuple{model.Str(fmt.Sprintf("payload-%04d-%s", i, string(make([]byte, 300))))}
	}
	items := model.NewRelation()
	for i := 0; i < 60; i++ { // ~20 KB of members: several pages
		items.Append(big(i))
	}
	st, _ := newTestStore(t, false)
	m := NewManager(st, SS3)
	ref, err := m.Insert(tt, model.Tuple{model.Int(1), items})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := m.ObjectStats(tt, ref)
	if before.Pages < 3 {
		t.Fatalf("object spans only %d pages; enlarge the fixture", before.Pages)
	}
	// Delete most members (descending positions keep indexes valid).
	for pos := 59; pos >= 5; pos-- {
		if err := m.DeleteMember(tt, ref, nil, 1, pos); err != nil {
			t.Fatalf("delete %d: %v", pos, err)
		}
	}
	after, _ := m.ObjectStats(tt, ref)
	if after.PageListGaps == 0 {
		t.Fatalf("no page-list gaps after mass deletion: %+v", after)
	}
	if after.PageListLen != before.PageListLen {
		t.Errorf("page list compacted (%d -> %d); gaps must stay open for Mini TID stability",
			before.PageListLen, after.PageListLen)
	}
	// Remaining members still readable (their Mini TIDs survived).
	got, err := m.Read(tt, ref)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].(*model.Table).Len() != 5 {
		t.Fatalf("members left = %d", got[1].(*model.Table).Len())
	}
	// Growth reuses the gaps: page-list length must not exceed the
	// original even after re-adding the bulk.
	for i := 0; i < 55; i++ {
		if err := m.InsertMember(tt, ref, nil, 1, -1, big(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	regrown, _ := m.ObjectStats(tt, ref)
	if regrown.PageListLen > before.PageListLen+1 {
		t.Errorf("page list grew from %d to %d despite gaps", before.PageListLen, regrown.PageListLen)
	}
	got, err = m.Read(tt, ref)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].(*model.Table).Len() != 60 {
		t.Errorf("members after regrow = %d", got[1].(*model.Table).Len())
	}
}

// Object-level walk-through-time: the atomic history of a subobject.
func TestHistoryAt(t *testing.T) {
	tt := testdata.DepartmentsType()
	st, _ := newVersionedStore(t)
	m := NewManager(st, SS3)
	ref, err := m.Insert(tt, testdata.Departments().Tuples[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, budget := range []int64{111, 222, 333} {
		_ = i
		if err := m.UpdateAtoms(tt, ref, []model.Value{model.Int(314), model.Int(56194), model.Int(budget)}); err != nil {
			t.Fatal(err)
		}
	}
	hist, err := m.HistoryAt(tt, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 4 {
		t.Fatalf("versions = %d, want 4", len(hist))
	}
	wantBudgets := []int64{333, 222, 111, 320000} // newest first
	for i, w := range wantBudgets {
		if got := int64(hist[i].Atoms[2].(model.Int)); got != w {
			t.Errorf("version %d budget = %d, want %d", i, got, w)
		}
	}
	// Nested level history.
	if err := m.UpdateAtoms(tt, ref, []model.Value{model.Int(17), model.Str("CGA-2")}, Step{Attr: 2, Pos: 0}); err != nil {
		t.Fatal(err)
	}
	ph, err := m.HistoryAt(tt, ref, Step{Attr: 2, Pos: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(ph) != 2 || ph[0].Atoms[1].(model.Str) != "CGA-2" || ph[1].Atoms[1].(model.Str) != "CGA" {
		t.Errorf("project history = %v", ph)
	}
}
