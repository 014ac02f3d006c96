package subtuple

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/buffer"
	"repro/internal/dberr"
	"repro/internal/page"
	"repro/internal/segment"
)

// FuzzSubtupleHeader decodes arbitrary bytes as a subtuple record.
// The robustness contract: never panic, never hang, and fail only
// with a classified corruption error (or deliver a payload). The
// store is empty, so any overflow-chain reference is dangling and
// must classify as corruption too.
func FuzzSubtupleHeader(f *testing.F) {
	pool := buffer.NewPool(16)
	pool.Register(segment.ID(7), segment.NewMemStore())
	s := New(Config{Pool: pool, Seg: segment.ID(7)})

	f.Add([]byte{})
	f.Add([]byte{0x00, 'h', 'i'})
	f.Add([]byte{fVer, 0x02, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{fLong, 0x10, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{fVer | fLong, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, rec []byte) {
		d, err := s.decode(rec)
		if err != nil {
			if !dberr.IsCorrupt(err) {
				t.Fatalf("decode failed with unclassified error: %v", err)
			}
			return
		}
		// The in-place header decode accepts what the copying decode
		// accepts and sees the same record.
		h, err := s.decodeHeader(rec)
		if err != nil {
			t.Fatalf("decodeHeader rejects a record decode accepts: %v", err)
		}
		if h.flags != d.flags || h.fromTS != d.fromTS || h.txn != d.txn || h.prev != d.prev {
			t.Fatalf("decodeHeader %+v disagrees with decode %+v", h, d)
		}
		if h.flags&fLong == 0 && !bytes.Equal(h.payload, d.payload) {
			t.Fatalf("in-place payload %x, copied payload %x", h.payload, d.payload)
		}
	})
}

// plant stores rec as a raw record image, bypassing the encoder —
// exactly what bit rot inside a record produces — and after it two
// well-formed records it can point at: an oldest version stamped 1 and
// a current record stamped 1. In a fresh store they land at TIDs 1.0,
// 1.1 and 1.2 unless rec fills the page.
func plant(s *Store, rec []byte) (page.TID, error) {
	tid, err := s.insertRawAnywhere(rec)
	if err != nil {
		return page.TID{}, err
	}
	for _, flags := range []byte{fVer | fOld, fVer} {
		if _, err := s.insertRawAnywhere([]byte{flags, 0x02, 0, 0, 0, 0, 0, 0, 0, 'o'}); err != nil {
			return page.TID{}, err
		}
	}
	return tid, nil
}

// jumpSeeds are records with a jump pointer for the version-walk fuzz
// targets, planted at 1.0 in front of plant's two records: an old
// version stamped 3 (varint 0x06) whose previous version is 1.1, with
// depth, jump length, jump target and jump stamp delta varied.
var jumpSeeds = [][]byte{
	// Well formed: one version down to 1.1, stamped 3-2 = 1.
	{fVer | fOld | fJump, 0x06, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 0x04, 'x'},
	// A jump longer than the depth.
	{fVer | fOld | fJump, 0x06, 0, 1, 0, 0, 0, 1, 0, 1, 2, 1, 0, 0, 0, 1, 0, 0x04, 'x'},
	// A jump to itself.
	{fVer | fOld | fJump, 0x06, 0, 1, 0, 0, 0, 1, 0, 2, 1, 1, 0, 0, 0, 0, 0, 0x00, 'x'},
	// A jump to a record that is not an old version (1.2), stamped 2.
	{fVer | fOld | fJump, 0x06, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 2, 0, 0x02, 'x'},
	// A jump whose stamp (3-1 = 2) is not its target's (1).
	{fVer | fOld | fJump, 0x06, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 0x02, 'x'},
	// An old version with a previous version and no jump pointer.
	{fVer | fOld, 0x06, 0, 1, 0, 0, 0, 1, 0, 'x'},
	// A jump pointer on a current record.
	{fVer | fJump, 0x06, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 0x04, 'x'},
}

// FuzzReaderView plants arbitrary bytes as a raw record image and
// reads them through the in-place Reader, current and as of an
// instant, next to the copying reference read. Both must agree on the
// outcome — payload, absence, or a classified error — and the Reader
// must leave no page pinned whichever way it went.
func FuzzReaderView(f *testing.F) {
	for _, seed := range jumpSeeds {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 'h', 'i'})
	f.Add([]byte{fTomb})
	f.Add([]byte{fFwd, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{fVer, 0x04, 0, 0, 0, 0, 0, 0, 'x'})
	f.Add([]byte{fVer, 0x04, 0, 1, 0, 0, 0, 0, 0, 'x'}) // previous version = itself
	f.Add([]byte{fLong, 0x10, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{fVer | fLong, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	// A version too new for instant 1 with a broken overflow chain and no
	// previous version: absent at 1, the chain is nobody's business.
	f.Add([]byte("Z00\x00\x00\x00\x00000000000"))
	f.Fuzz(func(t *testing.T, rec []byte) {
		pool := buffer.NewPool(16)
		pool.Register(segment.ID(9), segment.NewMemStore())
		s := New(Config{Pool: pool, Seg: segment.ID(9)})
		tid, err := plant(s, rec)
		if err != nil {
			return // record too large to plant; nothing to test
		}
		for _, asof := range []int64{Current, 1} {
			want, wantOK, wantErr := readCopying(s, tid, asof)
			r := s.Reader()
			p, ok, err := r.View(tid, asof)
			got := append([]byte(nil), p...)
			r.Done()
			if n := pool.PinnedCount(); n != 0 {
				t.Fatalf("asof %d: %d pages pinned after Done", asof, n)
			}
			if (err != nil) != (wantErr != nil) || ok != wantOK {
				t.Fatalf("asof %d: reader (%v, %v), copying read (%v, %v)", asof, ok, err, wantOK, wantErr)
			}
			if err != nil {
				if dberr.IsCorrupt(err) != dberr.IsCorrupt(wantErr) || errors.Is(err, ErrNotFound) != errors.Is(wantErr, ErrNotFound) {
					t.Fatalf("asof %d: reader error %v, copying read error %v", asof, err, wantErr)
				}
				continue
			}
			if ok && !bytes.Equal(got, want) {
				t.Fatalf("asof %d: reader payload %x, copying read %x", asof, got, want)
			}
		}
	})
}

// FuzzVersionWalk reads arbitrary bytes back through the full
// versioned read path (Insert of a raw record image, then Read /
// ReadAsOf / History): corruption in a version header must surface as
// a classified error or ErrNotFound, never a panic.
func FuzzVersionWalk(f *testing.F) {
	f.Add([]byte{fTomb})
	f.Add([]byte{fVer, 0x04, 0, 0, 0, 0, 0, 0, 'x'})
	f.Add([]byte{fOld, 'p', 'a', 'y'})
	for _, seed := range jumpSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		pool := buffer.NewPool(16)
		pool.Register(segment.ID(9), segment.NewMemStore())
		var clk int64
		s := New(Config{Pool: pool, Seg: segment.ID(9), Versioned: true,
			Clock: func() int64 { clk++; return clk }})
		tid, err := plant(s, rec)
		if err != nil {
			return // record too large to plant; nothing to test
		}
		check := func(err error) {
			if err != nil && !dberr.IsCorrupt(err) && !errors.Is(err, ErrNotFound) {
				t.Fatalf("unclassified error: %v", err)
			}
		}
		_, err = s.Read(tid)
		check(err)
		_, _, err = s.ReadAsOf(tid, 1)
		check(err)
		_, err = s.History(tid)
		check(err)
	})
}
