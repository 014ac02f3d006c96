package subtuple

import (
	"errors"

	"repro/internal/buffer"
	"repro/internal/dberr"
	"repro/internal/page"
)

// readCopying is ReadAsOf as it was before the Reader existed, kept as
// the reference the Reader is tested against: every record on the way
// — forwarding stubs, each version, overflow chunks — is pinned,
// latched, copied out and unpinned on its own (copyRecord), then parsed
// from the copy. The version walk takes the same hops as the Reader's,
// jump pointers included, and checks each with checkHop.
//
// One thing it does as the Reader does, not as the old read did: the
// overflow chain is assembled for the version that is returned only,
// not for every newer version walked past. The old read failed on a
// broken chain of a version nobody asked for (FuzzReaderView found the
// difference); not reading it is the point of the Reader.
func readCopying(s *Store, t page.TID, ts int64) ([]byte, bool, error) {
	raw, err := resolveCopying(s, t)
	if err != nil {
		return nil, false, err
	}
	d, err := s.decodeHeader(raw)
	if err != nil {
		return nil, false, err
	}
	for d.flags&fVer != 0 && d.fromTS > ts {
		if d.prev.Nil() {
			return nil, false, nil // did not exist yet
		}
		viaJump := d.flags&fJump != 0 && d.jumpTS > ts
		at := d.prev
		if viaJump {
			at = d.jump
		}
		if raw, err = copyRecord(s, at); err != nil {
			return nil, false, broken("version chain", err)
		}
		n, err := s.decodeHeader(raw)
		if err == nil {
			err = checkHop(d, n, viaJump, at)
		}
		if err != nil {
			return nil, false, err
		}
		d = n
	}
	if d.flags&fLong != 0 {
		if d.payload, err = s.readLong(d); err != nil {
			return nil, false, err
		}
	}
	if d.flags&fTomb != 0 {
		return nil, false, nil
	}
	return d.payload, true, nil
}

// resolveCopying follows forwarding stubs one copied record at a time.
func resolveCopying(s *Store, t page.TID) ([]byte, error) {
	for hop := 0; ; hop++ {
		raw, err := copyRecord(s, t)
		if err != nil {
			if hop > 0 && !dberr.IsCorrupt(err) && !errors.Is(err, ErrNotFound) {
				return nil, dberr.Corruptf("subtuple: broken forwarding chain at %v: %v", t, err)
			}
			return nil, err
		}
		if len(raw) == 0 {
			return nil, dberr.Corruptf("subtuple: empty record at %v", t)
		}
		if raw[0]&fFwd == 0 {
			return raw, nil
		}
		if hop > 8 {
			return nil, dberr.Corruptf("subtuple: forwarding loop at %v", t)
		}
		next, err := page.DecodeTID(raw[1:])
		if err != nil {
			return nil, dberr.Corruptf("subtuple: corrupt forwarding stub at %v: %v", t, err)
		}
		t = next
	}
}

// copyRecord pins, latches, copies and unpins one record, sharing no
// code with the Reader it is the reference for.
func copyRecord(s *Store, t page.TID) ([]byte, error) {
	f, err := s.pool.Pin(buffer.PageKey{Seg: s.seg, Page: t.Page})
	if err != nil {
		return nil, err
	}
	defer s.pool.Unpin(f, false)
	f.RLatch()
	defer f.RUnlatch()
	if !f.Page.Initialized() {
		return nil, dberr.Corruptf("subtuple: reference %v into uninitialized page %d.%d", t, s.seg, t.Page)
	}
	rec, err := f.Page.Read(t.Slot)
	if err != nil {
		return nil, ErrNotFound
	}
	return append([]byte(nil), rec...), nil
}
