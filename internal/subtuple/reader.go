package subtuple

import (
	"errors"
	"math"

	"repro/internal/buffer"
	"repro/internal/dberr"
	"repro/internal/page"
	"repro/internal/segment"
)

// window is the number of pages a Reader remembers. A complex
// object's local address space is a short page list (§4.1), so a few
// pages cover one object read.
const window = 4

// slot is one remembered page, the frame that held it and the frame's
// generation then (Frame.Key is written without the latch).
type slot struct {
	f    *buffer.Frame
	gen  uint64
	page uint32
}

// Reader reads the records of one store in place. Where a copying read
// pins, latches, copies and unpins once per record, a Reader remembers
// the last pages it viewed and hands out each record's payload as a
// slice of the page image, valid under the frame's shared latch until
// Done.
//
// The rules that make this safe:
//
//   - The window holds no pins. A view of a remembered page takes the
//     frame's shared latch and checks the frame's generation: unchanged,
//     the frame still holds the page (buffer.Frame.Gen). No pin, no
//     shard mutex, no map lookup. On a new page or a changed generation
//     the Reader pins once, latches, remembers the frame and unpins at
//     Done, after unlatching: at most one pin, only during a view.
//   - Latches are never held across calls: View returns with at most
//     one shared latch held, Done drops it, and a Reader never pins or
//     latches a second frame while it holds one. Forwarding and version
//     chains are followed by reading the next TID out of the record,
//     unlatching, and only then moving on.
//   - The bytes a View returns are the live page image. The caller
//     decodes them before Done and keeps no reference past it.
//
// A Reader is used by one goroutine. The zero value is not usable;
// obtain one from Store.Reader.
type Reader struct {
	s       *Store
	win     [window]slot
	next    int           // the slot a new page replaces: oldest first
	latched *buffer.Frame // frame whose shared latch the current View holds
	pinned  *buffer.Frame // frame pinned for the current View, if any
	// tally counts the records parsed since the last Done, which adds it
	// to the store's decode count: one write of the shared counter per
	// read, not one per record.
	tally uint64
}

// Reader returns an empty reader over the store.
func (s *Store) Reader() Reader { return Reader{s: s} }

// record latches the page of t — through the window if the frame it
// remembers still holds the page, else by pinning it — and returns the
// raw record in place. On error nothing is latched or pinned.
func (r *Reader) record(t page.TID) ([]byte, error) {
	var f *buffer.Frame
	i := -1
	for j := range r.win {
		if sl := &r.win[j]; sl.f != nil && sl.page == t.Page {
			if sl.f.RLatch(); sl.f.Gen() == sl.gen {
				f = sl.f
			} else {
				sl.f.RUnlatch()
				i = j
			}
			break
		}
	}
	if f == nil {
		var err error
		if f, err = r.s.pool.Pin(buffer.PageKey{Seg: r.s.seg, Page: t.Page}); err != nil {
			return nil, err
		}
		f.RLatch()
		r.pinned = f
		if i < 0 {
			i, r.next = r.next, (r.next+1)%window
		}
		r.win[i] = slot{f: f, gen: f.Gen(), page: t.Page}
	}
	r.latched = f
	if !f.Page.Initialized() {
		// A reference into an all-zero page means the page was zeroed
		// underneath us (lost write, zeroed sector), not that the record
		// is absent.
		r.Release()
		return nil, dberr.Corruptf("subtuple: reference %v into uninitialized page %d.%d", t, r.s.seg, t.Page)
	}
	rec, err := f.Page.Read(t.Slot)
	if err != nil {
		r.Release()
		return nil, ErrNotFound
	}
	return rec, nil
}

// Current, as the instant of a read, selects the subtuple's current
// state: no version is newer than it.
const Current int64 = math.MaxInt64

// View resolves t — forwarding stubs first, then the version chain
// down to the state visible at instant asof (Current: the newest) —
// and returns the payload in place. ok is false when no record is
// visible: a tombstone, or a subtuple that did not exist at asof. After a
// successful View with ok the caller must call Release or Done before
// the next View; the payload is dead after either. A record with an overflow
// chain is assembled into a fresh slice by the copying fallback.
//
// The walk takes a version's jump pointer whenever its target is still
// newer than asof, its prev pointer otherwise: O(log versions) hops to
// any instant (Store.link), each checked by checkHop.
func (r *Reader) View(t page.TID, asof int64) (payload []byte, ok bool, err error) {
	_, rec, err := r.resolve(t)
	if err != nil {
		return nil, false, err
	}
	d, err := r.header(rec)
	if err != nil {
		r.Release()
		return nil, false, err
	}
	for d.flags&fVer != 0 && d.fromTS > asof {
		r.Release()
		if d.prev.Nil() {
			return nil, false, nil // did not exist yet
		}
		if d, err = r.hop(d, d.flags&fJump != 0 && d.jumpTS > asof); err != nil {
			return nil, false, err
		}
	}
	if d.flags&fLong != 0 {
		r.Release()
		if d.payload, err = r.s.readLong(d); err != nil {
			return nil, false, err
		}
	}
	if d.flags&fTomb != 0 {
		r.Release()
		return nil, false, nil
	}
	return d.payload, true, nil
}

// hop steps from version d to its prev (viaJump: its jump target) and
// returns that version's header, latched in place, once checkHop
// accepts the step. Nothing is latched on entry or on error.
func (r *Reader) hop(d decoded, viaJump bool) (decoded, error) {
	at := d.prev
	if viaJump {
		at = d.jump
	}
	rec, err := r.record(at)
	if err != nil {
		// A version that cannot be read is lost history.
		return decoded{}, broken("version chain", err)
	}
	n, err := r.header(rec)
	if err == nil {
		err = checkHop(d, n, viaJump, at)
	}
	if err != nil {
		r.Release()
		return decoded{}, err
	}
	return n, nil
}

// resolve follows forwarding stubs from the anchor and returns the
// physical location plus the record found there, latched in place.
func (r *Reader) resolve(t page.TID) (page.TID, []byte, error) {
	for hop := 0; ; hop++ {
		rec, err := r.record(t)
		if err != nil {
			// The anchor may simply not exist (caller's problem), but a
			// forwarding stub promised a record at t: any failure past
			// hop 0 is a broken forwarding chain, i.e. corruption — unless
			// it only says the pool is out of frames or the device failed
			// transiently.
			if hop > 0 && !dberr.IsCorrupt(err) && !errors.Is(err, ErrNotFound) && !errors.Is(err, buffer.ErrExhausted) && !segment.IsTransient(err) {
				return page.TID{}, nil, dberr.Corruptf("subtuple: broken forwarding chain at %v: %v", t, err)
			}
			return page.TID{}, nil, err
		}
		if len(rec) == 0 {
			r.Release()
			return page.TID{}, nil, dberr.Corruptf("subtuple: empty record at %v", t)
		}
		if rec[0]&fFwd == 0 {
			return t, rec, nil
		}
		if hop > 8 {
			r.Release()
			return page.TID{}, nil, dberr.Corruptf("subtuple: forwarding loop at %v", t)
		}
		next, err := page.DecodeTID(rec[1:])
		r.Release()
		if err != nil {
			return page.TID{}, nil, dberr.Corruptf("subtuple: corrupt forwarding stub at %v: %v", t, err)
		}
		t = next
	}
}

// header parses a record's header (parseHeader), counting it in the
// reader's tally.
func (r *Reader) header(rec []byte) (decoded, error) {
	if len(rec) > 0 {
		r.tally++
	}
	return parseHeader(rec)
}

// Done ends the current View (Release) and adds the records parsed
// since the last Done to the store's decode count. A reader that views
// many records for one read — an object's — releases each view and
// calls Done once at the end.
func (r *Reader) Done() {
	r.Release()
	if r.tally != 0 {
		r.s.decoded.Add(r.tally)
		r.tally = 0
	}
}

// Release ends the current View: the shared latch is dropped, then the
// pin the View took, if any. The payload must not be touched again. A
// no-op when nothing is latched.
func (r *Reader) Release() {
	if r.latched != nil {
		r.latched.RUnlatch()
		r.latched = nil
	}
	if r.pinned != nil {
		r.s.pool.Unpin(r.pinned, false)
		r.pinned = nil
	}
}
