package object

import (
	"errors"
	"testing"

	"repro/internal/buffer"
	"repro/internal/dberr"
	"repro/internal/model"
	"repro/internal/segment"
	"repro/internal/subtuple"
	"repro/internal/testdata"
)

// FuzzObjectDecode plants arbitrary bytes as a complex object's root
// MD subtuple — the image bit rot leaves behind — and reads it back
// through every layout, on the in-place reader. The contract: Read
// never panics, fails only with classified corruption (or not-found),
// leaves no page pinned whichever way it went and, where the copying
// reference read also succeeds, returns the same tuple; Salvage never
// fails at all, it records losses.
func FuzzObjectDecode(f *testing.F) {
	tt := testdata.DepartmentsType()

	// Seed with a real root record of each layout so mutations explore
	// the interesting decode paths, not just the envelope guard.
	for _, l := range []Layout{SS1, SS2, SS3} {
		pool := buffer.NewPool(64)
		pool.Register(1, segment.NewMemStore())
		st := subtuple.New(subtuple.Config{Pool: pool, Seg: 1})
		m := NewManager(st, l)
		ref, err := m.Insert(tt, testdata.Departments().Tuples[0])
		if err != nil {
			f.Fatal(err)
		}
		raw, err := st.Read(ref)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(SS1), 0x00})
	// A one-page page list naming page 1 (the planted record's own page)
	// and a root node whose pointers lead back into it: the reader views
	// the page it is already holding.
	f.Add([]byte{byte(SS3), 0x01, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{byte(SS2), 0x01, 1, 0, 0, 0, 0, 0, 0, 0, 0x01, 0, 0, 0, 0, 0x00})
	f.Add([]byte{byte(SS3), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, l := range []Layout{SS1, SS2, SS3} {
			pool := buffer.NewPool(64)
			pool.Register(1, segment.NewMemStore())
			st := subtuple.New(subtuple.Config{Pool: pool, Seg: 1})
			m := NewManager(st, l)
			ref, err := st.Insert(raw)
			if err != nil {
				continue // does not fit a record; nothing to plant
			}
			got, err := m.Read(tt, ref)
			if err != nil && !dberr.IsCorrupt(err) && !errors.Is(err, subtuple.ErrNotFound) {
				t.Fatalf("layout %s: Read failed unclassified: %v", l, err)
			}
			if n := pool.PinnedCount(); n != 0 {
				t.Fatalf("layout %s: %d pages pinned after Read (%v)", l, n, err)
			}
			if want, werr := m.oracleRead(tt, ref, 0); err == nil && werr == nil && !model.TupleEqual(got, want) {
				t.Fatalf("layout %s: reader %v, copying read %v", l, got, want)
			}
			res, err := m.Salvage(tt, ref)
			if err != nil {
				t.Fatalf("layout %s: Salvage must degrade, not fail: %v", l, err)
			}
			if res == nil {
				t.Fatalf("layout %s: nil salvage result", l)
			}
			if n := pool.PinnedCount(); n != 0 {
				t.Fatalf("layout %s: %d pages pinned after Salvage", l, n)
			}
		}
	})
}
