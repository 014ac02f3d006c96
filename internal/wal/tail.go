package wal

import (
	"errors"
	"fmt"
	"io"
)

// This file is the replication face of the log. A primary ships its
// durable bytes to followers through a TailCursor; a follower mirrors
// them verbatim into its own chain with MirrorAppend/MirrorCheckpoint,
// so both sides hold byte-identical logs at identical global offsets
// and every page LSN means the same thing on either machine.

// ErrTailRecycled reports that a tail position has been recycled away:
// the segments holding it were retired below the checkpoint horizon,
// so a follower at that position must re-seed from a fresh checkpoint
// snapshot instead of catching up incrementally.
var ErrTailRecycled = errors.New("wal: tail position recycled below the retained chain")

// tailCut records one truncation for tail cursors: every record at or
// beyond off was cut at epoch. The log keeps a suffix-min stack of
// these (strictly increasing in both fields), so a cursor that slept
// through several truncations can regress to the lowest offset cut
// since it last looked. Old entries merge conservatively — a cursor
// may over-regress and re-ship bytes the follower already holds
// (which it skips), never under-regress.
type tailCut struct{ epoch, off uint64 }

// noteCutLocked records a truncation to off; the caller holds l.mu and
// has already bumped l.epoch.
func (l *Log) noteCutLocked(off uint64) {
	e := l.epoch.Load()
	for len(l.cuts) > 0 && l.cuts[len(l.cuts)-1].off >= off {
		l.cuts = l.cuts[:len(l.cuts)-1]
	}
	l.cuts = append(l.cuts, tailCut{epoch: e, off: off})
	if len(l.cuts) > 64 {
		l.cuts[1].off = min(l.cuts[0].off, l.cuts[1].off)
		l.cuts = l.cuts[1:]
	}
	l.notifyTailLocked()
}

// cutBelowLocked returns the lowest offset cut by any truncation newer
// than epoch e; ok is false when no such truncation happened.
func (l *Log) cutBelowLocked(e uint64) (uint64, bool) {
	for _, c := range l.cuts {
		if c.epoch > e {
			return c.off, true
		}
	}
	return 0, false
}

// notifyTailLocked wakes tail followers blocked in TailNotify; the
// caller holds l.mu. Every path that advances the durable horizon or
// reshapes the chain calls it.
func (l *Log) notifyTailLocked() {
	if l.tailCh != nil {
		close(l.tailCh)
		l.tailCh = nil
	}
}

// TailNotify returns a channel that is closed the next time the
// durable horizon advances or the chain is truncated. A tail follower
// takes the channel before checking for data, so an advance between
// the check and the wait is never missed.
func (l *Log) TailNotify() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.tailCh == nil {
		l.tailCh = make(chan struct{})
	}
	return l.tailCh
}

// TailCursor follows the log's durable bytes from a global offset. It
// only ever returns bytes at or below the durable horizon (flushed),
// which are guaranteed to be physically in the segment files, so
// reading needs no flush and no coordination with appenders. A
// truncation behind the cursor makes it regress to the cut point on
// its next Read; a recycle past the cursor surfaces ErrTailRecycled.
type TailCursor struct {
	l     *Log
	pos   uint64
	epoch uint64
}

// TailCursor opens a cursor at global byte offset from. from must be a
// record boundary the follower learned from its own mirrored chain (or
// zero for the start of history); an offset inside the retired portion
// of the chain returns ErrTailRecycled.
func (l *Log) TailCursor(from uint64) (*TailCursor, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from > l.nextLSN {
		return nil, fmt.Errorf("wal: tail cursor offset %d beyond log end %d", from, l.nextLSN)
	}
	if from < l.segs[0].base {
		return nil, ErrTailRecycled
	}
	return &TailCursor{l: l, pos: from, epoch: l.epoch.Load()}, nil
}

// Pos returns the cursor's current position: the global offset of the
// next byte Read will return.
func (c *TailCursor) Pos() uint64 { return c.pos }

// Read returns up to max durable bytes starting at the cursor's
// position, along with that position. An empty result with a nil
// error means the cursor is caught up to the durable horizon (or a
// concurrent truncation raced the read — either way the caller waits
// on TailNotify and retries); a position that crosses into a segment
// exactly at its end steps cleanly into the next one. ErrTailRecycled
// means the position was recycled and the follower must re-seed.
func (c *TailCursor) Read(max int) (data []byte, pos uint64, err error) {
	l := c.l
	l.mu.Lock()
	if e := l.epoch.Load(); e != c.epoch {
		if off, ok := l.cutBelowLocked(c.epoch); ok && off < c.pos {
			c.pos = off
		}
		c.epoch = e
	}
	pos = c.pos
	if pos < l.segs[0].base {
		l.mu.Unlock()
		return nil, pos, ErrTailRecycled
	}
	hi := l.flushed.Load()
	if hi <= pos {
		l.mu.Unlock()
		return nil, pos, nil
	}
	n := hi - pos
	if m := uint64(max); n > m {
		n = m
	}
	segs := snapshotSegsLocked(l.segs, hi)
	l.mu.Unlock()

	buf := make([]byte, n)
	if _, rerr := io.ReadFull(chainReader(segs, pos), buf); rerr != nil {
		// A concurrent Recycle can close a captured file, a concurrent
		// truncation can shorten it; distinguish the recycled case and
		// let the caller retry the rest.
		l.mu.Lock()
		recycled := pos < l.segs[0].base
		cut := l.epoch.Load() != c.epoch
		l.mu.Unlock()
		if recycled {
			return nil, pos, ErrTailRecycled
		}
		if cut {
			return nil, pos, nil
		}
		return nil, pos, fmt.Errorf("wal: tail read at offset %d: %w", pos, rerr)
	}
	// If a truncation cut below pos while the read was in flight the
	// buffer may mix old and rewritten bytes; discard it and let the
	// next Read regress.
	l.mu.Lock()
	torn := l.epoch.Load() != c.epoch
	l.mu.Unlock()
	if torn {
		return nil, pos, nil
	}
	c.pos = pos + n
	return buf, pos, nil
}

// snapshotSegsLocked copies the segment list for reading outside the
// log mutex. The active segment's lazily-maintained size is replaced
// with the durable horizon, bounding reads to bytes physically in the
// file.
func snapshotSegsLocked(segs []*segFile, hi uint64) []*segFile {
	out := make([]*segFile, len(segs))
	for i, sf := range segs {
		cp := *sf
		if i == len(segs)-1 {
			cp.size = int64(hi - cp.base)
		}
		out[i] = &cp
	}
	return out
}

// ReadDurable returns the raw log bytes in [from, to). Both bounds
// must be at or below the durable horizon and within the retained
// chain; the snapshot path uses it to pack the checkpoint tail.
func (l *Log) ReadDurable(from, to uint64) ([]byte, error) {
	l.mu.Lock()
	if to < from || to > l.flushed.Load() {
		l.mu.Unlock()
		return nil, fmt.Errorf("wal: read durable [%d,%d) beyond horizon %d", from, to, l.flushed.Load())
	}
	if from < l.segs[0].base {
		l.mu.Unlock()
		return nil, ErrTailRecycled
	}
	segs := snapshotSegsLocked(l.segs, l.flushed.Load())
	l.mu.Unlock()
	buf := make([]byte, to-from)
	if _, err := io.ReadFull(chainReader(segs, from), buf); err != nil {
		return nil, fmt.Errorf("wal: read durable at offset %d: %w", from, err)
	}
	return buf, nil
}

// MirrorAppend appends raw pre-encoded record bytes shipped from a
// primary at global offset at, which must equal the mirror's current
// end — the chains stay byte-identical. Mirror appends never roll on
// size: a follower's segment layout is driven by the primary's
// checkpoints through MirrorCheckpoint, so per-segment size tracks the
// primary's checkpoint cadence rather than SegmentBytes. The bytes are
// buffered; they become durable on the next Sync (or checkpoint).
func (l *Log) MirrorAppend(at uint64, raw []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if at != l.nextLSN {
		return fmt.Errorf("wal: mirror append at offset %d, log end is %d", at, l.nextLSN)
	}
	if _, err := l.w.Write(raw); err != nil {
		return err
	}
	l.nextLSN += uint64(len(raw))
	return nil
}

// MirrorCheckpoint installs a checkpoint record shipped from the
// primary: it syncs everything before the record, rolls so the record
// fronts a fresh segment (mirroring WriteCheckpoint's layout, which
// recovery's probe depends on), appends the raw record at offset at,
// syncs again, and advances the checkpoint horizon so Recycle can
// retire dead segments on the follower too.
func (l *Log) MirrorCheckpoint(at uint64, raw []byte) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if at != l.nextLSN {
		return fmt.Errorf("wal: mirror checkpoint at offset %d, log end is %d", at, l.nextLSN)
	}
	if l.nextLSN > l.active().base {
		if err := l.rollLocked(); err != nil {
			return err
		}
	}
	if _, err := l.w.Write(raw); err != nil {
		return err
	}
	l.nextLSN += uint64(len(raw))
	if err := l.syncLocked(); err != nil {
		return err
	}
	l.ckptLSN = at + 1
	l.tailStart = at
	l.imaged = map[imageKey]uint64{}
	return nil
}

// OldestRetained returns the global offset of the first byte still
// held in the chain; positions below it are recycled.
func (l *Log) OldestRetained() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0].base
}

// SegFileName returns the file name of the segment whose first byte is
// global offset base; snapshot restore uses it to seed a follower's
// chain with the shipped checkpoint tail.
func SegFileName(base uint64) string { return segName(base) }

// DecodeRecords parses complete records from buf, whose first byte
// sits at global log offset base. It returns the records and the
// number of bytes consumed; an incomplete record at the end is left
// unconsumed and is not an error, so a streaming follower can feed
// partial batches. A corrupt record (bad CRC or inconsistent lengths)
// is an error: shipped bytes ride TCP, so corruption means the stream
// is broken, not torn. Record payloads alias buf.
func DecodeRecords(buf []byte, base uint64) ([]Record, int, error) {
	var recs []Record
	consumed := 0
	for {
		rest := buf[consumed:]
		if len(rest) < recHeader {
			return recs, consumed, nil
		}
		at := base + uint64(consumed)
		n, err := frameLen(rest)
		if err != nil {
			return recs, consumed, fmt.Errorf("wal: corrupt shipped record at offset %d: %w", at, err)
		}
		if len(rest) < recHeader+n {
			return recs, consumed, nil
		}
		rec, err := decodeFrame(rest, rest[recHeader:recHeader+n], at)
		if err != nil {
			return recs, consumed, fmt.Errorf("wal: corrupt shipped record at offset %d: %w", at, err)
		}
		recs = append(recs, rec)
		consumed += recHeader + n
	}
}
