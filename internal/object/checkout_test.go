package object

import (
	"errors"
	"testing"

	"repro/internal/buffer"
	"repro/internal/model"
	"repro/internal/page"
	"repro/internal/segment"
	"repro/internal/subtuple"
	"repro/internal/testdata"
)

// rawSnapshot copies an object's pages the way Export does, without
// the self-containment check, standing in for a snapshot made by a
// build that did not check.
func rawSnapshot(t *testing.T, m *Manager, ref Ref) *Snapshot {
	t.Helper()
	o, _, err := m.loadCtx(ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer o.done()
	snap := &Snapshot{Layout: m.layout, Local: make([]bool, len(o.pages))}
	for i, pg := range o.pages {
		if pg == 0 {
			continue
		}
		snap.Local[i] = true
		f, err := m.st.Pool().Pin(buffer.PageKey{Seg: m.st.Segment(), Page: pg})
		if err != nil {
			t.Fatal(err)
		}
		snap.Pages = append(snap.Pages, append([]byte(nil), f.Page.Bytes()...))
		m.st.Pool().Unpin(f, false)
		if pg == ref.Page {
			snap.Root = page.MiniTID{Page: uint16(i), Slot: ref.Slot}
		}
	}
	return snap
}

// expectRefused checks that page-level checkout refuses the object on
// every entry point, naming it, and that import allocates nothing.
func expectRefused(t *testing.T, m *Manager, tt *model.TableType, ref Ref, want model.Tuple) {
	t.Helper()
	var ce *CheckoutError
	if _, err := m.Export(ref); !errors.As(err, &ce) || ce.Ref != ref {
		t.Fatalf("Export = %v, want a CheckoutError naming %v", err, ref)
	}
	if _, err := m.Relocate(ref); !errors.As(err, &ce) || ce.Ref != ref {
		t.Fatalf("Relocate = %v, want a CheckoutError naming %v", err, ref)
	}
	snap := rawSnapshot(t, m, ref)
	pages := m.st.Pool().Store(m.st.Segment()).PageCount()
	if _, err := m.Import(snap); !errors.As(err, &ce) || ce.Root != snap.Root {
		t.Fatalf("Import = %v, want a CheckoutError naming root %v", err, snap.Root)
	}
	if n := m.st.Pool().Store(m.st.Segment()).PageCount(); n != pages {
		t.Fatalf("refused Import allocated %d pages", n-pages)
	}
	got, err := m.Read(tt, ref)
	if err != nil || !model.TupleEqual(got, want) {
		t.Fatalf("original after refused checkout: %v", err)
	}
}

// TestCheckoutRefusesObjectsOutsideTheirPages: an object whose records
// grew past their page (forwarding stubs) or spilled into an overflow
// chain keeps part of itself outside its local address space. Copying
// its pages would leave the copy pointing at the original's records —
// after the original is deleted, reading the copy fails with "record not
// found" or "broken overflow chain" — so Export, Relocate and Import
// refuse it with a CheckoutError.
func TestCheckoutRefusesObjectsOutsideTheirPages(t *testing.T) {
	tt := testdata.DepartmentsType()
	dept := testdata.Departments().Tuples[0]
	t.Run("grown", func(t *testing.T) {
		allLayouts(t, func(t *testing.T, m *Manager) {
			ref, err := m.Insert(tt, dept)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Insert(tt, dept); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 600; i++ {
				member := model.Tuple{model.Int(100000 + i), model.Str("Staff")}
				if err := m.InsertMember(tt, ref, []Step{{Attr: 2, Pos: 0}}, 2, -1, member); err != nil {
					t.Fatal(err)
				}
				if i%50 == 49 {
					if _, err := m.Insert(tt, dept); err != nil {
						t.Fatal(err)
					}
				}
			}
			want, err := m.Read(tt, ref)
			if err != nil {
				t.Fatal(err)
			}
			expectRefused(t, m, tt, ref, want)
		})
	})
	t.Run("large", func(t *testing.T) {
		pool := buffer.NewPool(1 << 12)
		pool.Register(1, segment.NewMemStore())
		m := NewManager(subtuple.New(subtuple.Config{Pool: pool, Seg: 1}), SS3)
		big := testdata.GenDepartments(testdata.GenConfig{Departments: 1, ProjsPerDept: 1, MembersPerProj: 5000, EquipPerDept: 1, Seed: 5000}).Tuples[0]
		ref, err := m.Insert(tt, big)
		if err != nil {
			t.Fatal(err)
		}
		expectRefused(t, m, tt, ref, big)
	})
}
