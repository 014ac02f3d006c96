package netserver

import (
	"errors"
	"time"

	"repro/internal/engine"
	"repro/internal/netproto"
	"repro/internal/page"
	"repro/internal/wal"
)

// replHeartbeat is how often an idle replication stream sends an empty
// batch so the follower can track the primary's durable horizon (and
// notice a dead primary) without new commits.
const replHeartbeat = 500 * time.Millisecond

// replChunk bounds one replication frame's payload: batches of WAL
// bytes and snapshot page runs both ship in chunks of at most this
// many bytes (well under netproto.MaxFrame, and a whole number of
// pages so snapshot chunks never split a page).
const replChunk = 1 << 20

// doRepl turns the session into a replication stream: ship committed
// WAL bytes from the requested offset — bootstrapping with a full
// checkpoint snapshot when the offset is zero or already recycled —
// until the follower disconnects or the server drains. The stream
// takes no statement slot: it is a long-lived background feed, not a
// statement, and monitoring-style admission applies. Always returns
// true (the session ends with the stream).
func (sess *session) doRepl(from uint64) bool {
	db := sess.srv.db
	log := db.Log()
	if log == nil {
		sess.writeErr(errors.New("replication requires a write-ahead log"))
		return true
	}
	ctr := db.ReplCounters()
	if ctr.Role.Load() == engine.RoleReplica {
		sess.writeErr(errors.New("cascading replication is not supported"))
		return true
	}
	ctr.Role.CompareAndSwap(engine.RoleNone, engine.RolePrimary)
	ctr.FollowersTotal.Add(1)
	ctr.FollowersOpen.Add(1)
	defer ctr.FollowersOpen.Add(-1)

	var cur *wal.TailCursor
	acquire := func() bool {
		for attempt := 0; attempt < 4; attempt++ {
			if from > 0 {
				c, err := log.TailCursor(from)
				if err == nil {
					cur = c
					return true
				}
				if !errors.Is(err, wal.ErrTailRecycled) {
					sess.writeErr(err)
					return false
				}
				// The follower's position fell off the retained chain
				// (it lagged across a checkpoint's recycle); fall back
				// to a fresh snapshot.
			}
			end, ok := sess.shipSnapshot(db)
			if !ok {
				return false
			}
			from = end
		}
		sess.writeErr(errors.New("snapshot raced recycling repeatedly"))
		return false
	}

	timer := time.NewTimer(replHeartbeat)
	defer timer.Stop()
	for {
		if cur == nil && !acquire() {
			return true
		}
		// Arm the notification before reading: a sync landing between
		// the read and the select wakes the loop instead of being lost.
		ch := log.TailNotify()
		data, pos, err := cur.Read(replChunk)
		if err != nil {
			if errors.Is(err, wal.ErrTailRecycled) {
				// Recycled under a slow stream: re-bootstrap.
				cur = nil
				from = 0
				continue
			}
			sess.writeErr(err)
			return true
		}
		if len(data) > 0 {
			b := &netproto.ReplBatch{From: pos, DurableEnd: log.SyncedThrough(), Data: data}
			if !sess.send(netproto.TypeReplBatch, b.Encode()) {
				return true
			}
			ctr.BatchesShipped.Add(1)
			ctr.BytesShipped.Add(uint64(len(data)))
			ctr.NoteShipped(pos + uint64(len(data)))
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(replHeartbeat)
		select {
		case <-ch:
		case <-timer.C:
			hb := &netproto.ReplBatch{From: cur.Pos(), DurableEnd: log.SyncedThrough()}
			if !sess.send(netproto.TypeReplBatch, hb.Encode()) {
				return true
			}
		case <-sess.drainCh:
			sess.drained = true
			sess.writeErr(&netproto.ServerError{
				Code:       netproto.CodeDraining,
				Message:    "server draining",
				RetryAfter: sess.srv.opts.RetryAfter,
			})
			return true
		case <-sess.peerGone:
			return true
		case <-sess.dying:
			return true
		}
	}
}

// shipSnapshot sends a full checkpoint snapshot (SnapBegin, page and
// WAL-tail chunks, SnapEnd) and returns the offset batches resume
// from. ok=false means the session must die (write failure or
// snapshot error, already reported).
func (sess *session) shipSnapshot(db *engine.DB) (end uint64, ok bool) {
	snap, err := db.ReplicaSnapshot()
	if err != nil {
		sess.writeErr(err)
		return 0, false
	}
	begin := &netproto.ReplSnapBegin{WALBase: snap.WALBase}
	for _, s := range snap.Segs {
		begin.Segs = append(begin.Segs, netproto.ReplSnapSeg{Seg: uint32(s.ID), Pages: s.Pages})
	}
	if !sess.send(netproto.TypeReplSnapBegin, begin.Encode()) {
		return 0, false
	}
	for _, s := range snap.Segs {
		for off := 0; off < len(s.Data); off += replChunk {
			hi := off + replChunk
			if hi > len(s.Data) {
				hi = len(s.Data)
			}
			m := &netproto.ReplSnapPages{Seg: uint32(s.ID), First: uint32(off/page.Size) + 1, Data: s.Data[off:hi]}
			if !sess.send(netproto.TypeReplSnapPages, m.Encode()) {
				return 0, false
			}
		}
	}
	for off := 0; off < len(snap.WAL); off += replChunk {
		hi := off + replChunk
		if hi > len(snap.WAL) {
			hi = len(snap.WAL)
		}
		m := &netproto.ReplSnapPages{WAL: true, Data: snap.WAL[off:hi]}
		if !sess.send(netproto.TypeReplSnapPages, m.Encode()) {
			return 0, false
		}
	}
	if !sess.send(netproto.TypeReplSnapEnd, (&netproto.ReplSnapEnd{WALEnd: snap.WALEnd()}).Encode()) {
		return 0, false
	}
	return snap.WALEnd(), true
}
