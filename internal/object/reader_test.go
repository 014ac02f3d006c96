package object

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/dberr"
	"repro/internal/model"
	"repro/internal/page"
	"repro/internal/segment"
	"repro/internal/subtuple"
	"repro/internal/testdata"
)

// genPathSet draws a random PathSet over the type.
func genPathSet(rng *rand.Rand, tt *model.TableType) *PathSet {
	if rng.Intn(6) == 0 {
		return AllPaths()
	}
	ps := &PathSet{Atoms: rng.Intn(2) == 0}
	for _, ti := range tt.TableIndexes() {
		if rng.Intn(2) == 0 {
			if ps.Subs == nil {
				ps.Subs = map[int]*PathSet{}
			}
			ps.Subs[ti] = genPathSet(rng, tt.Attrs[ti].Type.Table)
		}
	}
	return ps
}

// TestReaderMatchesCopyingRead is the equivalence property of the one
// object reader: over random nested schemas, under SS1, SS2 and SS3,
// after random member inserts, member deletes and atom updates — among
// them root records grown until they are forwarded off their page and
// grown past a page into overflow chains — every read through the
// reader, full or pruned, current or as of any earlier instant, equals
// the copying reference read of the same object, and no read leaves a
// page pinned.
func TestReaderMatchesCopyingRead(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 8; trial++ {
		tt := genType(rng, 2)
		// A subtable so mutations have a target, and a string at the root
		// that the test grows.
		if len(tt.TableIndexes()) == 0 {
			tt.Attrs = append(tt.Attrs, model.Attr{
				Name: "SUB_X",
				Type: model.TableOf(false, model.Attr{Name: "V", Type: model.AtomicType(model.KindInt)}),
			})
		}
		tt.Attrs = append(tt.Attrs, model.Attr{Name: "BIG", Type: model.AtomicType(model.KindString)})
		big := len(tt.Attrs) - 1
		for _, layout := range []Layout{SS1, SS2, SS3} {
			// By turns a full reader window, a two-page one, and the
			// one page at a time of an 8-frame pool.
			pool := []*buffer.Pool{buffer.NewPoolShards(256, 1), buffer.NewPool(256), buffer.NewPool(8)}[trial%3]
			pool.Register(1, segment.NewMemStore())
			ticks := new(int64)
			st := subtuple.New(subtuple.Config{Pool: pool, Seg: 1, Versioned: true, Clock: func() int64 { *ticks++; return *ticks }})
			m := NewManager(st, layout)
			// A neighbour object first, so the one under test does not
			// have its pages to itself from page 1 on.
			if _, err := m.Insert(tt, genTuple(rng, tt, 3)); err != nil {
				t.Fatal(err)
			}
			shadow := genTuple(rng, tt, 3)
			ref, err := m.Insert(tt, shadow.Clone())
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, layout, err)
			}
			check := func(step int, asof int64, want model.Tuple) {
				t.Helper()
				ref0, err := m.oracleRead(tt, ref, asof)
				if err != nil {
					t.Fatalf("trial %d %s step %d asof %d: copying read: %v", trial, layout, step, asof, err)
				}
				if want != nil && !model.TupleEqual(ref0, want) {
					t.Fatalf("trial %d %s step %d asof %d: copying read diverged from the shadow", trial, layout, step, asof)
				}
				for _, ps := range []*PathSet{nil, genPathSet(rng, tt), genPathSet(rng, tt)} {
					got, err := m.ReadPruned(tt, ref, asof, ps)
					if err != nil {
						t.Fatalf("trial %d %s step %d asof %d %s: %v", trial, layout, step, asof, ps.Describe(tt), err)
					}
					if want := pruneTuple(tt, ref0, ps); !model.TupleEqual(got, want) {
						t.Fatalf("trial %d %s step %d asof %d %s\ntype %s\n got %v\nwant %v",
							trial, layout, step, asof, ps.Describe(tt), tt, got, want)
					}
					if n := pool.PinnedCount(); n != 0 {
						t.Fatalf("trial %d %s step %d: %d pages pinned after a read", trial, layout, step, n)
					}
				}
			}
			var instants []int64
			for step := 0; step < 24; step++ {
				if step%4 == 3 {
					// Grow (or shrink back) the root's string: a few KB move
					// the record off a filling page, more than a page spills
					// it into an overflow chain.
					n := []int{10, 2500, 3 * page.Size, 1200}[rng.Intn(4)]
					vals := model.Atoms(tt, shadow)
					vals[len(vals)-1] = model.Str(strings.Repeat(string(rune('a'+step)), n))
					if err := m.UpdateAtoms(tt, ref, vals); err != nil {
						t.Fatalf("trial %d %s step %d: %v", trial, layout, step, err)
					}
					shadow[big] = vals[len(vals)-1]
				} else if err := mutateOnce(rng, m, tt, ref, shadow); err != nil {
					t.Fatalf("trial %d %s step %d: %v\ntype %s", trial, layout, step, err, tt)
				}
				check(step, 0, shadow)
				instants = append(instants, *ticks)
				check(step, instants[rng.Intn(len(instants))], nil)
			}
		}
	}
}

// bigDepartment is a department that spans several pages.
func bigDepartment() model.Tuple {
	return testdata.GenDepartments(testdata.GenConfig{Departments: 1, ProjsPerDept: 10, MembersPerProj: 40, EquipPerDept: 5, Seed: 3}).Tuples[0]
}

// TestReadErrorsLeaveNothingPinned fails an object read half way —
// the pages read so far are in the window at that point — and checks
// that the error is typed and that the window was given back.
func TestReadErrorsLeaveNothingPinned(t *testing.T) {
	tt := testdata.DepartmentsType()
	for _, layout := range []Layout{SS1, SS2, SS3} {
		t.Run(layout.String(), func(t *testing.T) {
			failing := func(name string, m *Manager, ref Ref, asof int64, want func(error) bool) {
				t.Helper()
				pool := m.Store().Pool()
				for _, ps := range []*PathSet{nil, {Atoms: true, Subs: map[int]*PathSet{2: {Subs: map[int]*PathSet{2: {Atoms: true}}}}}} {
					_, err := m.ReadPruned(tt, ref, asof, ps)
					if err == nil || !want(err) {
						t.Errorf("%s: ReadPruned(%s) = %v", name, ps.Describe(tt), err)
					}
					if n := pool.PinnedCount(); n != 0 {
						t.Errorf("%s: %d pages pinned after the failed read", name, n)
					}
				}
				if _, err := m.ObjectStats(tt, ref); asof == 0 && (err == nil || !want(err)) {
					t.Errorf("%s: ObjectStats = %v", name, err)
				}
				_, err := m.WalkProbes(tt, ref, nil, []Probe{{Level: []int{2, 2}}}, func(*Hit) error { return nil })
				if asof == 0 && (err == nil || !want(err)) {
					t.Errorf("%s: WalkProbes = %v", name, err)
				}
				if n := pool.PinnedCount(); n != 0 {
					t.Errorf("%s: %d pages pinned after failed walks", name, n)
				}
			}

			// A dangling Mini TID: the data subtuple of the last member of
			// the last project is gone.
			st, _ := newTestStore(t, false)
			m := NewManager(st, layout)
			ref, err := m.Insert(tt, bigDepartment())
			if err != nil {
				t.Fatal(err)
			}
			var tid page.TID
			last := []Step{{Attr: 2, Pos: 9}, {Attr: 2, Pos: 39}}
			if _, err := m.WalkProbes(tt, ref, last, []Probe{{Level: []int{2, 2}}}, func(h *Hit) error {
				tid = h.Data
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := st.Delete(tid); err != nil {
				t.Fatal(err)
			}
			failing("dangling Mini TID", m, ref, 0, func(err error) bool { return errors.Is(err, subtuple.ErrNotFound) })

			// A zeroed page in the middle of the object's page list.
			st, pool := newTestStore(t, false)
			m = NewManager(st, layout)
			ref, err = m.Insert(tt, bigDepartment())
			if err != nil {
				t.Fatal(err)
			}
			snap, err := m.Export(ref)
			if err != nil {
				t.Fatal(err)
			}
			if len(snap.Pages) < 3 {
				t.Fatalf("object spans %d pages, want 3 or more", len(snap.Pages))
			}
			// The root MD subtuple is placed last, on the object's last page.
			f, err := pool.Pin(buffer.PageKey{Seg: st.Segment(), Page: ref.Page - 1})
			if err != nil {
				t.Fatal(err)
			}
			f.Latch()
			clear(f.Page.Bytes())
			f.Unlatch()
			pool.Unpin(f, true)
			failing("zeroed page", m, ref, 0, dberr.IsCorrupt)

			// An instant before the object existed.
			vst, ticks := newVersionedStore(t)
			m = NewManager(vst, layout)
			if _, err := m.Insert(tt, testdata.Departments().Tuples[0]); err != nil {
				t.Fatal(err)
			}
			before := *ticks
			ref, err = m.Insert(tt, bigDepartment())
			if err != nil {
				t.Fatal(err)
			}
			failing("not found at asof", m, ref, before, func(err error) bool { return errors.Is(err, subtuple.ErrNotFound) })

			// A rotten member count in a subtable MD subtuple (SS2 keeps
			// its member pointers inline in the node instead): reads and
			// member inserts and deletes size nothing by it.
			if layout == SS2 {
				return
			}
			st, pool = newTestStore(t, false)
			m = NewManager(st, layout)
			ref, err = m.Insert(tt, bigDepartment())
			if err != nil {
				t.Fatal(err)
			}
			rotMemberCount(t, m, tt, ref)
			failing("rotten member count", m, ref, 0, dberr.IsCorrupt)
			member := model.Tuple{model.Int(1), model.Str("Staff")}
			for _, op := range []struct {
				name string
				run  func() error
			}{
				{"InsertMember", func() error { return m.InsertMember(tt, ref, []Step{{Attr: 2, Pos: 0}}, 2, -1, member) }},
				{"DeleteMember", func() error { return m.DeleteMember(tt, ref, []Step{{Attr: 2, Pos: 0}}, 2, 0) }},
			} {
				if err := op.run(); !dberr.IsCorrupt(err) {
					t.Errorf("rotten member count: %s = %v, want a corruption error", op.name, err)
				}
				if n := pool.PinnedCount(); n != 0 {
					t.Errorf("rotten member count: %d pages pinned after %s", n, op.name)
				}
			}
		})
	}
}

// rotMemberCount rewrites the member count in the subtable MD subtuple
// of project 0's MEMBERS to 2^63, keeping its pointers.
func rotMemberCount(t *testing.T, m *Manager, tt *model.TableType, ref Ref) {
	t.Helper()
	o, lt, lh, err := m.open(tt, ref, 0, []Step{{Attr: 2, Pos: 0}})
	if err != nil {
		t.Fatal(err)
	}
	defer o.done()
	gi, err := giOf(lt, 2)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := o.read(lh.subC[gi])
	if err != nil {
		t.Fatal(err)
	}
	tid, err := o.resolve(lh.subC[gi])
	if err != nil {
		t.Fatal(err)
	}
	_, sz := binary.Uvarint(raw)
	if err := m.st.Update(tid, append(binary.AppendUvarint(nil, 1<<63), raw[sz:]...)); err != nil {
		t.Fatal(err)
	}
}

// TestEveryOperationReleasesItsContext runs each Manager entry point
// that loads an object context, successfully and into ErrBadPath, and
// checks the pool after each: a context that is not released shows as a
// pinned page.
func TestEveryOperationReleasesItsContext(t *testing.T) {
	tt := testdata.DepartmentsType()
	allLayouts(t, func(t *testing.T, m *Manager) {
		pool := m.Store().Pool()
		ref, err := m.Insert(tt, bigDepartment())
		if err != nil {
			t.Fatal(err)
		}
		good, bad := []Step{{Attr: 2, Pos: 1}}, []Step{{Attr: 2, Pos: 999}}
		member := model.Tuple{model.Int(1), model.Str("Staff")}
		for _, op := range []struct {
			name string
			run  func(steps []Step) error
		}{
			{"ReadSubobject", func(s []Step) error { _, err := m.ReadSubobject(tt, ref, s...); return err }},
			{"ReadSubtable", func(s []Step) error { _, err := m.ReadSubtable(tt, ref, 2, s...); return err }},
			{"ReadAtomsAt", func(s []Step) error { _, err := m.ReadAtomsAt(tt, ref, s...); return err }},
			{"DataPathAt", func(s []Step) error { _, err := m.DataPathAt(tt, ref, s...); return err }},
			{"HistoryAt", func(s []Step) error { _, err := m.HistoryAt(tt, ref, s...); return err }},
			{"UpdateAtoms", func(s []Step) error {
				return m.UpdateAtoms(tt, ref, []model.Value{model.Int(7), model.Str("renamed")}, s...)
			}},
			{"InsertMember", func(s []Step) error { return m.InsertMember(tt, ref, s, 2, -1, member) }},
			{"DeleteMember", func(s []Step) error { return m.DeleteMember(tt, ref, s, 2, 0) }},
		} {
			if err := op.run(good); err != nil {
				t.Errorf("%s: %v", op.name, err)
			}
			if err := op.run(bad); !errors.Is(err, ErrBadPath) {
				t.Errorf("%s on a bad path = %v, want ErrBadPath", op.name, err)
			}
			if n := pool.PinnedCount(); n != 0 {
				t.Fatalf("%s left %d pages pinned", op.name, n)
			}
		}
		for _, op := range []struct {
			name string
			run  func() error
		}{
			{"DumpMD", func() error { _, err := m.DumpMD(tt, ref); return err }},
			{"Salvage", func() error { _, err := m.Salvage(tt, ref); return err }},
			{"Relocate", func() error { var err error; ref, err = m.Relocate(ref); return err }},
			{"FindByDataPath", func() error {
				_, err := m.FindByDataPath(tt, ref, []page.MiniTID{{Page: 999, Slot: 9}})
				if errors.Is(err, ErrBadPath) {
					return nil
				}
				return fmt.Errorf("= %v, want ErrBadPath", err)
			}},
			{"Delete", func() error { return m.Delete(tt, ref) }},
		} {
			if err := op.run(); err != nil {
				t.Errorf("%s: %v", op.name, err)
			}
			if n := pool.PinnedCount(); n != 0 {
				t.Fatalf("%s left %d pages pinned", op.name, n)
			}
		}
	})
}

// TestReadPinsEachPageOnce is the reader's window seen from the
// pool: a full read of an object fetches exactly the pages of its
// local address space, however many subtuples it decodes on them.
func TestReadPinsEachPageOnce(t *testing.T) {
	tt := testdata.DepartmentsType()
	// Two pages: the window is never recycled.
	dept := testdata.GenDepartments(testdata.GenConfig{Departments: 1, ProjsPerDept: 8, MembersPerProj: 12, EquipPerDept: 4, Seed: 1}).Tuples[0]
	for _, l := range []Layout{SS1, SS2, SS3} {
		pool := buffer.NewPoolShards(64, 1)
		pool.Register(1, segment.NewMemStore())
		m := NewManager(subtuple.New(subtuple.Config{Pool: pool, Seg: 1}), l)
		ref, err := m.Insert(tt, dept)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := m.ObjectStats(tt, ref)
		if err != nil {
			t.Fatal(err)
		}
		pool.ResetStats()
		decoded := m.Store().DecodeCount()
		if _, err := m.Read(tt, ref); err != nil {
			t.Fatal(err)
		}
		// The root MD subtuple is decoded once for the envelope; every
		// other subtuple of the object once.
		if got, want := m.Store().DecodeCount()-decoded, uint64(stats.MDSubtuples+stats.DataSubtuples); got != want {
			t.Errorf("%s: read decoded %d subtuples, object has %d", l, got, want)
		}
		if got := pool.Stats().Fetches; got != uint64(stats.Pages) {
			t.Errorf("%s: read fetched %d pages, object spans %d", l, got, stats.Pages)
		}
	}
}

// TestReadPrunedAllocBudget holds the reader to an allocation budget
// for one Table 5 department (314: three projects, seven members, two
// pieces of equipment): the whole object, and its root atoms alone.
// What is left is the result itself — one slab of values and one of
// tuples per subtable, the atom slab's chunks, which grow
// geometrically — plus a fixed handful per object and per subtable for
// the context and the handles. A change that allocates per subtuple or
// per atom again breaks the budget under every layout.
//
// It also holds a whole read of an 8 × 12 × 4 department, the shape
// the benchmark's point and scan workloads read, to a budget of bytes:
// a flat member costs its atoms and the 4-byte D pointer its parent
// structure records, not a handle of its own (fetchSubtable).
func TestReadPrunedAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tt := testdata.DepartmentsType()
	dept := testdata.Departments().Tuples[0]
	budgets := map[Layout][2]float64{SS1: {34, 8}, SS2: {36, 10}, SS3: {34, 8}}
	for _, layout := range []Layout{SS1, SS2, SS3} {
		st, _ := newTestStore(t, false)
		m := NewManager(st, layout)
		ref, err := m.Insert(tt, dept)
		if err != nil {
			t.Fatal(err)
		}
		for i, ps := range []*PathSet{nil, {Atoms: true}} {
			got := testing.AllocsPerRun(200, func() {
				if _, err := m.ReadPruned(tt, ref, 0, ps); err != nil {
					t.Fatal(err)
				}
			})
			if budget := budgets[layout][i]; got > budget {
				t.Errorf("%s: ReadPruned(%s) allocates %.0f times, budget %.0f", layout, ps.Describe(tt), got, budget)
			} else {
				t.Logf("%s: ReadPruned(%s) allocates %.0f times (budget %.0f)", layout, ps.Describe(tt), got, budget)
			}
		}
	}

	// Measured: 11 624, 11 910 and 11 624 bytes; 11 838, 12 112 and
	// 11 832 while the atom slab was an allocation of its own.
	big := testdata.GenDepartments(testdata.GenConfig{Departments: 1, ProjsPerDept: 8, MembersPerProj: 12, EquipPerDept: 4, Seed: 1}).Tuples[0]
	byteBudgets := map[Layout]uint64{SS1: 12205, SS2: 12506, SS3: 12205}
	for _, layout := range []Layout{SS1, SS2, SS3} {
		st, _ := newTestStore(t, false)
		m := NewManager(st, layout)
		ref, err := m.Insert(tt, big)
		if err != nil {
			t.Fatal(err)
		}
		const reads = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range reads {
			if _, err := m.Read(tt, ref); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / reads
		if budget := byteBudgets[layout]; got > budget {
			t.Errorf("%s: a whole 8 × 12 × 4 department allocates %d bytes per read, budget %d", layout, got, budget)
		} else {
			t.Logf("%s: a whole 8 × 12 × 4 department allocates %d bytes per read (budget %d)", layout, got, budget)
		}
	}
}

// TestExhaustedPoolDoesNotLookCorrupt: an object's root is readable but
// the pool has no frame left for its second page. The pointer into that
// page is not broken, so the read fails with buffer.ErrExhausted as it
// is — nothing the engine would quarantine the object for — and succeeds
// once a frame is free.
func TestExhaustedPoolDoesNotLookCorrupt(t *testing.T) {
	tt := testdata.DepartmentsType()
	dept := testdata.GenDepartments(testdata.GenConfig{Departments: 1, ProjsPerDept: 8, MembersPerProj: 12, EquipPerDept: 4, Seed: 1}).Tuples[0]
	allLayouts(t, func(t *testing.T, m *Manager) {
		big := m.Store().Pool()
		ref, err := m.Insert(tt, dept)
		if err != nil {
			t.Fatal(err)
		}
		spare, err := m.Store().AllocatePage()
		if err != nil {
			t.Fatal(err)
		}
		if err := big.FlushAll(); err != nil {
			t.Fatal(err)
		}
		pool := buffer.NewPoolShards(2, 1)
		pool.Register(1, big.Store(1))
		m = NewManager(subtuple.New(subtuple.Config{Pool: pool, Seg: 1}), m.Layout())
		var held []*buffer.Frame
		for _, pg := range []uint32{ref.Page, spare} {
			f, err := pool.Pin(buffer.PageKey{Seg: 1, Page: pg})
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, f)
		}
		if _, err := m.Read(tt, ref); !errors.Is(err, buffer.ErrExhausted) || dberr.IsCorrupt(err) {
			t.Errorf("read with no frame for the second page: %v", err)
		}
		for _, f := range held {
			pool.Unpin(f, false)
		}
		got, err := m.Read(tt, ref)
		if err != nil || !model.TupleEqual(got, dept) {
			t.Errorf("read with frames free: %v", err)
		}
		if n := pool.PinnedCount(); n != 0 {
			t.Fatalf("%d pages pinned", n)
		}
	})
}

// TestArenaReuse reads departments of different sizes one after another
// through one arena, as an object cursor does. With reuse every read
// equals a one-shot Read, the atoms of earlier reads keep their values
// while later reads overwrite the containers, and a read the arena has
// seen the like of allocates only its atom slab's chunks — one per kind
// of atom, two when the object holds more of that kind than the one
// read before it (measured 3.7 a read) — whatever the object's size: no
// handle, pointer list, member tuple or subtable header. Without reuse
// the tuples of every read stay intact, containers included.
func TestArenaReuse(t *testing.T) {
	tt := testdata.DepartmentsType()
	gen := testdata.GenDepartments(testdata.GenConfig{Departments: 6, ProjsPerDept: 8, MembersPerProj: 12, EquipPerDept: 4, Seed: 3}).Tuples
	depts := append(gen, testdata.Departments().Tuples...)
	allLayouts(t, func(t *testing.T, m *Manager) {
		refs := make([]Ref, len(depts))
		for i, d := range depts {
			var err error
			if refs[i], err = m.Insert(tt, d); err != nil {
				t.Fatal(err)
			}
		}
		a := m.NewArena(true)
		var atoms []model.Value // the root atoms of every read, kept
		for i, ref := range refs {
			got, err := a.ReadPruned(tt, ref, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !model.TupleEqual(got, depts[i]) {
				t.Fatalf("read %d through the arena:\n%v\nwant\n%v", i, got, depts[i])
			}
			for _, ai := range tt.AtomicIndexes() {
				atoms = append(atoms, got[ai])
			}
		}
		k := 0
		for _, d := range depts {
			for _, ai := range tt.AtomicIndexes() {
				if !model.ValueEqual(atoms[k], d[ai]) {
					t.Errorf("kept atom %d reads %v after later reads, want %v", k, atoms[k], d[ai])
				}
				k++
			}
		}
		if !raceEnabled {
			allocs := testing.AllocsPerRun(50, func() {
				for _, ref := range refs[:len(gen)] {
					if _, err := a.ReadPruned(tt, ref, 0, nil); err != nil {
						t.Fatal(err)
					}
				}
			}) / float64(len(gen))
			if allocs > 6 {
				t.Errorf("a read through a warm arena allocates %.1f times, want the atom slab's chunks only", allocs)
			}
		}

		fresh := m.NewArena(false)
		kept := make([]model.Tuple, len(refs))
		for i, ref := range refs {
			var err error
			if kept[i], err = fresh.ReadPruned(tt, ref, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := range refs {
			if !model.TupleEqual(kept[i], depts[i]) {
				t.Errorf("read %d without reuse changed under later reads:\n%v\nwant\n%v", i, kept[i], depts[i])
			}
		}
	})
}
