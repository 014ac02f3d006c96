package object

import (
	"testing"

	"repro/internal/model"
	"repro/internal/testdata"
)

// pruneTuple is the reference semantics of a PathSet applied to a
// fully materialized tuple: unrequested atoms become null, unrequested
// subtables become empty, requested subtables keep their membership.
func pruneTuple(tt *model.TableType, tup model.Tuple, ps *PathSet) model.Tuple {
	if ps == nil || ps.All {
		return tup
	}
	out := make(model.Tuple, len(tt.Attrs))
	for i, a := range tt.Attrs {
		if a.Type.Kind != model.KindTable {
			if ps.Atoms {
				out[i] = tup[i]
			} else {
				out[i] = model.Null{}
			}
			continue
		}
		sub := a.Type.Table
		sps, ok := ps.Subs[i]
		if !ok {
			out[i] = &model.Table{Ordered: sub.Ordered}
			continue
		}
		src := tup[i].(*model.Table)
		dst := &model.Table{Ordered: sub.Ordered}
		for _, mt := range src.Tuples {
			dst.Append(pruneTuple(sub, mt, sps))
		}
		out[i] = dst
	}
	return out
}

// Schema indices in DepartmentsType: DNO=0, MGRNO=1, PROJECTS=2,
// BUDGET=3, EQUIP=4; inside PROJECTS: PNO=0, PNAME=1, MEMBERS=2.
const (
	depProjects = 2
	depEquip    = 4
	projMembers = 2
)

func lazyPathSets() map[string]*PathSet {
	atomsOnly := &PathSet{Atoms: true}

	projAtoms := &PathSet{Atoms: true}
	projAtoms.Descend(depProjects).MarkAtoms()

	deepOnly := &PathSet{} // MEMBERS atoms, nothing else
	deepOnly.Descend(depProjects).Descend(projMembers).MarkAtoms()

	membership := &PathSet{} // COUNT(x.EQUIP): membership only
	membership.Descend(depEquip)

	full := AllPaths()

	return map[string]*PathSet{
		"root-atoms":       atomsOnly,
		"projects-atoms":   projAtoms,
		"members-deep":     deepOnly,
		"equip-membership": membership,
		"all":              full,
	}
}

func TestReadPrunedMatchesReference(t *testing.T) {
	tt := testdata.DepartmentsType()
	depts := testdata.Departments()
	allLayouts(t, func(t *testing.T, m *Manager) {
		var refs []Ref
		for _, tup := range depts.Tuples {
			ref, err := m.Insert(tt, tup)
			if err != nil {
				t.Fatal(err)
			}
			refs = append(refs, ref)
		}
		for name, ps := range lazyPathSets() {
			for i, ref := range refs {
				got, err := m.ReadPruned(tt, ref, 0, ps)
				if err != nil {
					t.Fatalf("%s: ReadPruned dept %d: %v", name, i, err)
				}
				want := pruneTuple(tt, depts.Tuples[i], ps)
				if !model.TupleEqual(got, want) {
					t.Errorf("%s: dept %d mismatch:\n got %v\nwant %v", name, i, got, want)
				}
			}
		}
	})
}

// TestReadPrunedDecodesLess asserts the point of the exercise: a
// narrow read decodes strictly fewer subtuples than full
// materialization and pins no more pages, under every layout. (Pages
// no longer tell the two apart: the reader pins each page of an object
// once however many of its subtuples it decodes.)
func TestReadPrunedDecodesLess(t *testing.T) {
	tt := testdata.DepartmentsType()
	depts := testdata.Departments()
	for _, l := range []Layout{SS1, SS2, SS3} {
		t.Run(l.String(), func(t *testing.T) {
			st, pool := newTestStore(t, false)
			m := NewManager(st, l)
			var refs []Ref
			for _, tup := range depts.Tuples {
				ref, err := m.Insert(tt, tup)
				if err != nil {
					t.Fatal(err)
				}
				refs = append(refs, ref)
			}
			measure := func(ps *PathSet) (fetches, decoded uint64) {
				pool.ResetStats()
				d0 := st.DecodeCount()
				for _, ref := range refs {
					if _, err := m.ReadPruned(tt, ref, 0, ps); err != nil {
						t.Fatal(err)
					}
				}
				return pool.Stats().Fetches, st.DecodeCount() - d0
			}
			fullFetches, fullDecoded := measure(nil)
			prunedFetches, prunedDecoded := measure(&PathSet{Atoms: true}) // SELECT x.DNO equivalent
			if prunedDecoded >= fullDecoded {
				t.Errorf("pruned read decoded %d subtuples, full read %d — want strictly fewer", prunedDecoded, fullDecoded)
			}
			if prunedFetches > fullFetches {
				t.Errorf("pruned read fetched %d pages, full read %d — want no more", prunedFetches, fullFetches)
			}
		})
	}
}

func TestPathSetDescribe(t *testing.T) {
	tt := testdata.DepartmentsType()
	ps := &PathSet{Atoms: true}
	ps.Descend(depProjects).Descend(projMembers).MarkAtoms()
	ps.Descend(depEquip)
	got := ps.Describe(tt)
	want := "{atoms, PROJECTS: {MEMBERS: {atoms}}, EQUIP: {members}}"
	if got != want {
		t.Errorf("Describe = %q, want %q", got, want)
	}
	if s := AllPaths().Describe(tt); s != "*" {
		t.Errorf("AllPaths().Describe = %q, want *", s)
	}
}
