package subtuple

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/segment"
	"repro/internal/wal"
)

// Tail is what one scan of the WAL tail (wal.ReplayTail: from the last
// complete checkpoint record on) tells recovery and its callers.
type Tail struct {
	// LastCommit is the LSN of the last commit or checkpoint record (a
	// checkpoint is only written when everything before it is committed
	// and durable), 0 if there is none; CommitEnd is the offset just
	// past it, where recovery truncates the log.
	LastCommit, CommitEnd uint64
	// CommitTS is the newest commit timestamp in the tail (0: none).
	CommitTS int64
	// Pages are the pages the tail's page records touch, in first-use
	// order; their segments must be registered before Recover.
	Pages []buffer.PageKey
}

// ScanTail reads the WAL tail once and summarizes it.
func ScanTail(log *wal.Log) (Tail, error) {
	var t Tail
	seen := make(map[buffer.PageKey]bool)
	err := log.ReplayTail(func(r wal.Record) error {
		switch r.Op {
		case wal.OpCommit, wal.OpCheckpoint:
			t.LastCommit = r.LSN
			t.CommitEnd = (r.LSN - 1) + uint64(r.Size())
			if r.Op == wal.OpCommit {
				if _, ts, ok := wal.DecodeCommitPayload(r.Payload); ok && ts > t.CommitTS {
					t.CommitTS = ts
				}
			}
		case wal.OpInsert, wal.OpUpdate, wal.OpDelete, wal.OpPageImage:
			k := buffer.PageKey{Seg: r.Seg, Page: r.Page}
			if !seen[k] {
				seen[k] = true
				t.Pages = append(t.Pages, k)
			}
		}
		return nil
	})
	return t, err
}

// Recover replays the write-ahead log onto the segments registered in
// the pool; t is the tail's summary (ScanTail). Replay is bounded: it
// starts at the last complete checkpoint record (wal.ReplayTail),
// because a checkpoint is only written after every page state the
// earlier records describe has been flushed. The tail is self-contained for the pages it touches —
// the first modification of a page in a checkpoint era logs a
// full-page image of its committed state — so a page that must be
// wiped can be rebuilt from the tail alone. After the summary scan:
//
//  1. wipe every touched page whose stored image cannot be trusted:
//     a failed checksum (torn page write at the crash) or a page LSN
//     beyond the last commit (an uncommitted change stolen to disk by
//     buffer eviction — the redo-only scheme has no undo, so the page
//     is instead rebuilt);
//  2. redo the tail in log order (Redo, with the last commit as the
//     horizon): full-page images restore a wiped page's committed
//     base state, then committed page operations apply on top, with
//     the page LSN proving which records already took effect.
//
// Afterwards all pages are flushed, and only then is the uncommitted
// log tail truncated away — truncating first would destroy the very
// images a crash during the flush would need on the next attempt, so
// the order makes recovery idempotent under recovery crashes.
func Recover(log *wal.Log, pool *buffer.Pool, t Tail) error {
	if len(t.Pages) == 0 {
		// Empty or control-only tail: nothing to redo or undo, just
		// drop any trailing uncommitted bytes.
		return log.TruncateTail(t.CommitEnd)
	}

	// Pass 1: discard untrustworthy page images. A wiped page is
	// rebuilt below from the tail.
	for _, k := range t.Pages {
		if err := ensurePage(pool, k.Seg, k.Page); err != nil {
			return err
		}
		f, err := pool.PinNoVerify(k)
		if err != nil {
			return err
		}
		if !f.Page.Initialized() || !f.Page.ChecksumOK(uint16(k.Seg), k.Page) || f.Page.LSN() > t.LastCommit {
			f.Page.Init()
		}
		pool.Unpin(f, true)
	}

	// Pass 2: redo the tail.
	err := log.ReplayTail(func(r wal.Record) error { return Redo(pool, r, t.LastCommit) })
	if err != nil {
		return err
	}
	if err := pool.FlushAll(); err != nil {
		return err
	}
	// Drop the uncommitted tail from the log — after the flush, see
	// above. Leaving those records in place would be a latent bug: the
	// next statement's commit record lands after them, so a later
	// recovery would replay them as committed, resurrecting the
	// crashed statement's partial effects.
	return log.TruncateTail(t.CommitEnd)
}

// Redo applies one WAL record onto the pool's pages, treating records
// up to horizon as committed. It is the one redo step: crash recovery
// and statement rollback call it with the last commit in the tail as
// the horizon, and a replica calls it for each record of a shipped
// group with the group's terminator (commit or checkpoint) as the
// horizon. Non-page records are ignored.
//
// A full-page image always holds committed pre-statement state, even
// when the statement that logged it never committed — it was captured
// before the statement changed anything — so it installs at the lower
// of its LSN and the horizon, restoring the page to the horizon and
// never past it. A page operation above the horizon is skipped. The
// page LSN proves which records already took effect (before a crash,
// or before a follower restart), so redoing a record twice is a no-op.
func Redo(pool *buffer.Pool, r wal.Record, horizon uint64) error {
	switch r.Op {
	case wal.OpInsert, wal.OpUpdate, wal.OpDelete:
		if r.LSN > horizon {
			return nil
		}
	case wal.OpPageImage:
		if len(r.Payload) != page.Size {
			return fmt.Errorf("subtuple: page image %v.%d has %d bytes", r.Seg, r.Page, len(r.Payload))
		}
	default:
		return nil
	}
	if err := ensurePage(pool, r.Seg, r.Page); err != nil {
		return err
	}
	f, err := pool.Pin(buffer.PageKey{Seg: r.Seg, Page: r.Page})
	if err != nil {
		return err
	}
	defer pool.Unpin(f, true)
	// A replica redoes plain commit groups while its readers hold the
	// shared latch on the same frames; change the page only under the
	// exclusive latch, as logAndApply does on the primary.
	f.Latch()
	defer f.Unlatch()
	if r.Op == wal.OpPageImage {
		eff := min(r.LSN, horizon)
		if f.Page.LSN() >= eff {
			return nil
		}
		copy(f.Page.Bytes(), r.Payload)
		f.Page.SetLSN(eff)
		return nil
	}
	if f.Page.LSN() >= r.LSN {
		return nil // already applied
	}
	switch r.Op {
	case wal.OpInsert:
		err = f.Page.InsertAt(r.Slot, r.Payload)
	case wal.OpUpdate:
		err = f.Page.Update(r.Slot, r.Payload)
	case wal.OpDelete:
		err = f.Page.Delete(r.Slot)
	}
	if err != nil {
		return fmt.Errorf("subtuple: redo %v %v.%d.%d: %w", r.Op, r.Seg, r.Page, r.Slot, err)
	}
	f.Page.SetLSN(r.LSN)
	return nil
}

// ensurePage extends the segment until the page exists, formatting
// fresh pages (allocations themselves are not logged; they are
// implied by the first operation touching the page).
func ensurePage(pool *buffer.Pool, seg segment.ID, pageNo uint32) error {
	st := pool.Store(seg)
	if st == nil {
		return fmt.Errorf("subtuple: recovery for unregistered segment %d", seg)
	}
	for st.PageCount() < pageNo {
		no, err := st.Allocate()
		if err != nil {
			return err
		}
		f, err := pool.PinNew(buffer.PageKey{Seg: seg, Page: no})
		if err != nil {
			return err
		}
		pool.Unpin(f, true)
	}
	return nil
}
