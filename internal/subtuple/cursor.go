package subtuple

import (
	"fmt"
	"math"

	"repro/internal/buffer"
	"repro/internal/dberr"
	"repro/internal/page"
)

// Cursor is the one page walker of a segment (Scan is a loop over
// one): it streams every current subtuple one Next at a time. Pages
// are pinned only inside a single Next call — the cursor copies the
// records of one page at a time into a buffer it reuses from page to
// page — so an abandoned cursor holds no buffer resources and Close is
// a plain bookkeeping call.
//
// Both modes yield each subtuple once, under its anchor TID — the TID
// Insert returned, which indexes and write-conflict keys hold — however
// updates relocate records while the cursor runs: relocated records
// and the stubs behind them (fMoved) are skipped and reached through
// the anchor.
type Cursor struct {
	s    *Store
	asof int64 // Current, or the instant of an ASOF cursor

	count  uint32 // segment page count at open
	pg     uint32 // next page to load
	buf    []byte // the loaded page's copied records, back to back
	items  []cursorItem
	i      int
	closed bool

	// rd reads the records Next cannot take from the loaded page; newest
	// is the largest version stamp of the others (Newest).
	rd     Reader
	newest int64
}

type cursorItem struct {
	tid      page.TID
	off, end int // the raw record is buf[off:end]; off < 0: read it through the store at Next
}

// NewCursor opens a cursor over the current state of the segment. A
// record at its anchor is copied when its page is loaded; one
// relocated through a forwarding stub is read through the stub when
// Next reaches it.
func (s *Store) NewCursor() (*Cursor, error) {
	return s.NewAsOfCursor(Current)
}

// NewAsOfCursor opens a cursor over the segment as of instant ts: every
// subtuple that existed at ts, with its payload as of ts. Unlike the
// current-state cursor it visits tombstoned records (they may have
// been alive at ts) and resolves each through its forwarding stub and
// version chain when Next reaches it.
func (s *Store) NewAsOfCursor(ts int64) (*Cursor, error) {
	st := s.pool.Store(s.seg)
	if st == nil {
		return nil, fmt.Errorf("subtuple: segment %d not registered", s.seg)
	}
	return &Cursor{s: s, asof: ts, count: st.PageCount(), pg: 1, rd: s.Reader()}, nil
}

// Newest returns the largest version stamp among the current records the
// cursor has met so far, tombstones included (Reader.Newest). A
// current-state scan run to its end has met every subtuple of the
// segment: as of any instant from its Newest on, the segment reads as the
// scan returned it.
func (c *Cursor) Newest() int64 { return max(c.newest, c.rd.Newest()) }

// Next returns the next subtuple. The boolean is false when the scan
// is exhausted (or the cursor closed); the payload is only valid until
// the next call.
func (c *Cursor) Next() (page.TID, []byte, bool, error) {
	for {
		if c.closed {
			return page.TID{}, nil, false, nil
		}
		for c.i < len(c.items) {
			it := c.items[c.i]
			c.i++
			if it.off < 0 {
				data, ok, err := c.rd.read(it.tid, c.asof)
				if err != nil {
					return page.TID{}, nil, false, err
				}
				if !ok {
					continue
				}
				return it.tid, data, true, nil
			}
			d, err := c.s.decode(c.buf[it.off:it.end])
			if err != nil {
				return page.TID{}, nil, false, err
			}
			c.newest = max(c.newest, d.fromTS)
			return it.tid, d.payload, true, nil
		}
		if c.pg > c.count {
			c.closed = true
			return page.TID{}, nil, false, nil
		}
		if err := c.loadPage(); err != nil {
			return page.TID{}, nil, false, err
		}
	}
}

// loadPage pins the next page, notes the anchors on it — copying out
// the current records that sit at their anchor in current-state mode —
// and unpins before returning.
func (c *Cursor) loadPage() error {
	pg := c.pg
	c.pg++
	c.items, c.buf = c.items[:0], c.buf[:0]
	c.i = 0
	f, err := c.s.pool.Pin(buffer.PageKey{Seg: c.s.seg, Page: pg})
	if err != nil {
		return err
	}
	defer c.s.pool.Unpin(f, false)
	f.RLatch()
	defer f.RUnlatch()
	if !f.Page.Initialized() {
		// A zeroed allocated page must not read as "no records" —
		// silent row loss rather than a detected fault.
		return dberr.Corruptf("subtuple: allocated page %d.%d is uninitialized (zeroed?)", c.s.seg, pg)
	}
	n := f.Page.NumSlots()
	for sl := 0; sl < n; sl++ {
		rec, err := f.Page.Read(uint16(sl))
		if err != nil || rec[0]&(fMoved|fChunk|fOld) != 0 {
			continue
		}
		tid := page.TID{Page: pg, Slot: uint16(sl)}
		if c.asof != Current || rec[0]&fFwd != 0 {
			// The record lives elsewhere (a stub) or in its version chain
			// (ASOF): both are followed without this page's latch held.
			c.items = append(c.items, cursorItem{tid: tid, off: -1})
			continue
		}
		if rec[0]&fTomb != 0 {
			// A tombstone whose stamp cannot be read leaves no instant
			// at which the scan is known to be the current state.
			d, err := parseHeader(rec)
			if err != nil {
				d.fromTS = math.MaxInt64
			}
			c.newest = max(c.newest, d.fromTS)
			continue
		}
		off := len(c.buf)
		c.buf = append(c.buf, rec...)
		c.items = append(c.items, cursorItem{tid: tid, off: off, end: len(c.buf)})
	}
	return nil
}

// Close releases the cursor. It is idempotent; the cursor holds no
// buffer pages between calls, so this never fails.
func (c *Cursor) Close() error {
	c.closed = true
	c.items, c.buf = nil, nil
	return nil
}
