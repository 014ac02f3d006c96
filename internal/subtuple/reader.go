package subtuple

import (
	"errors"
	"math"

	"repro/internal/buffer"
	"repro/internal/dberr"
	"repro/internal/page"
)

// maxKeep is the most pages a Reader keeps pinned between two views,
// and pinShare the fraction of one pool shard a goroutine's pins may
// take. A complex object's local address space is a short page list
// (§4.1), so a few frames cover one object read. Sizing the window as a
// share of the shard means pinShare readers and writers always fit one
// shard together, however small the pool — exhaustion cannot come from
// the windows themselves.
const (
	maxKeep  = 4
	pinShare = 8
)

// keepPinned is the number of pages a Reader on the pool keeps pinned
// between two views: its share of a shard, less the one frame that the
// page being viewed — or, between views, a write or an overflow read of
// the same operation — needs. On a shard of fewer than 2*pinShare
// frames that is none: every record is pinned and unpinned on its own,
// exactly as Store.Read did before the Reader existed.
func keepPinned(pool *buffer.Pool) int {
	return min(max(pool.ShardFrames()/pinShare-1, 0), maxKeep)
}

// Reader reads the records of one store in place. Where Store.Read
// pins, latches, copies and unpins once per record, a Reader keeps the
// pages it touched last pinned until Release and hands out each
// record's payload as a slice of the page image, valid under the
// frame's shared latch until Done.
//
// The rules that make this safe:
//
//   - The window is bounded: at most keep pages (keepPinned) stay
//     pinned between views and one more while a record is viewed, the
//     oldest released first. The copying overflow fallback and the
//     writes of the same operation pin their one page between views, so
//     a goroutine never holds more than keep+1 pins.
//   - Pins are held across calls, latches never: View returns with at
//     most one shared latch held, Done drops it, and a Reader never
//     pins (which may evict, and eviction latches its victim under the
//     shard mutex) or latches a second frame while it holds one.
//     Forwarding and version chains are followed by reading the next
//     TID out of the record, unlatching, and only then moving on.
//   - The bytes a View returns are the live page image. The caller
//     decodes them before Done and keeps no reference past it.
//   - Release returns every pin (and a latch still held on an error
//     path), so the pool sees no pinned frame once a read is over.
//
// A Reader is used by one goroutine. The zero value is not usable;
// obtain one from Store.Reader.
type Reader struct {
	s       *Store
	keep    int                        // pages kept pinned between views
	win     [maxKeep + 1]*buffer.Frame // win[:n] are pinned, oldest first
	n       int
	latched *buffer.Frame // frame whose shared latch the current View holds
}

// Reader returns an empty reader over the store, its window sized by
// keepPinned.
func (s *Store) Reader() Reader { return Reader{s: s, keep: s.keep} }

// single returns a reader for one record, which keeps nothing pinned
// between the hops of its one walk: its caller may be an operation
// that holds a window already.
func (s *Store) single() Reader { return Reader{s: s} }

// frame returns the pinned frame of a page, pinning it on first use.
// Nothing is latched, so at most keep pages are pinned and the window
// has room for one more.
func (r *Reader) frame(pageNo uint32) (*buffer.Frame, error) {
	for _, f := range r.win[:r.n] {
		if f.Key.Page == pageNo {
			return f, nil
		}
	}
	f, err := r.s.pool.Pin(buffer.PageKey{Seg: r.s.seg, Page: pageNo})
	if err != nil {
		return nil, err
	}
	r.win[r.n] = f
	r.n++
	return f, nil
}

// shrink unpins the oldest pages until at most keep stay pinned.
func (r *Reader) shrink(keep int) {
	drop := r.n - keep
	if drop <= 0 {
		return
	}
	for _, f := range r.win[:drop] {
		r.s.pool.Unpin(f, false)
	}
	r.n = copy(r.win[:], r.win[drop:r.n])
	clear(r.win[r.n:])
}

// record latches the page of t and returns the raw record in place.
// On error nothing is latched.
func (r *Reader) record(t page.TID) ([]byte, error) {
	f, err := r.frame(t.Page)
	if err != nil {
		return nil, err
	}
	f.RLatch()
	r.latched = f
	if !f.Page.Initialized() {
		// A reference into an all-zero page means the page was zeroed
		// underneath us (lost write, zeroed sector), not that the record
		// is absent.
		r.Done()
		return nil, dberr.Corruptf("subtuple: reference %v into uninitialized page %d.%d", t, r.s.seg, t.Page)
	}
	rec, err := f.Page.Read(t.Slot)
	if err != nil {
		r.Done()
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
// successful View with ok the caller must call Done before the next
// View; the payload is dead after Done. A record with an overflow
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
	d, err := r.s.decodeHeader(rec)
	if err != nil {
		r.Done()
		return nil, false, err
	}
	for d.flags&fVer != 0 && d.fromTS > asof {
		r.Done()
		if d.prev.Nil() {
			return nil, false, nil // did not exist yet
		}
		if d, err = r.hop(d, d.flags&fJump != 0 && d.jumpTS > asof); err != nil {
			return nil, false, err
		}
	}
	if d.flags&fLong != 0 {
		r.Done()
		if d.payload, err = r.s.readLong(d); err != nil {
			return nil, false, err
		}
	}
	if d.flags&fTomb != 0 {
		r.Done()
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
	n, err := r.s.decodeHeader(rec)
	if err == nil {
		err = checkHop(d, n, viaJump, at)
	}
	if err != nil {
		r.Done()
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
			// it only says the pool is out of frames.
			if hop > 0 && !dberr.IsCorrupt(err) && !errors.Is(err, ErrNotFound) && !errors.Is(err, buffer.ErrExhausted) {
				return page.TID{}, nil, dberr.Corruptf("subtuple: broken forwarding chain at %v: %v", t, err)
			}
			return page.TID{}, nil, err
		}
		if len(rec) == 0 {
			r.Done()
			return page.TID{}, nil, dberr.Corruptf("subtuple: empty record at %v", t)
		}
		if rec[0]&fFwd == 0 {
			return t, rec, nil
		}
		if hop > 8 {
			r.Done()
			return page.TID{}, nil, dberr.Corruptf("subtuple: forwarding loop at %v", t)
		}
		next, err := page.DecodeTID(rec[1:])
		r.Done()
		if err != nil {
			return page.TID{}, nil, dberr.Corruptf("subtuple: corrupt forwarding stub at %v: %v", t, err)
		}
		t = next
	}
}

// Done ends the current View: the shared latch is dropped, the payload
// must not be touched again, and the window shrinks to the pages kept
// between views. A no-op when nothing is latched.
func (r *Reader) Done() {
	if r.latched != nil {
		r.latched.RUnlatch()
		r.latched = nil
		r.shrink(r.keep)
	}
}

// Release ends any View and unpins every page of the window. The
// reader is empty afterwards and can be used again.
func (r *Reader) Release() {
	r.Done()
	r.shrink(0)
}
