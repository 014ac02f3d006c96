package engine

import "sync/atomic"

// Replication roles, carried in ReplCounters.Role.
const (
	RoleNone    int32 = iota // no replication activity yet
	RolePrimary              // this database has served a replication stream
	RoleReplica              // this database is a read replica applying a stream
)

// ReplCounters are the live replication counters. On a primary the
// shipper sessions (internal/netserver) maintain the follower-facing
// block; on a replica the applier (internal/repl) maintains the
// apply-side block. They live in the engine for the same reason
// NetCounters do: aim.Stats() surfaces them without depending on the
// server or the follower.
//
// A replica publishes each applied group's VisibleTS before its
// AppliedLSN, so a reader that waited for an applied LSN
// (repl.Follower.WaitApplied) always finds that group's commit
// visible.
type ReplCounters struct {
	Role atomic.Int32

	// Primary side.
	FollowersOpen   atomic.Int64  // replication streams currently open
	FollowersTotal  atomic.Uint64 // replication streams ever started
	SnapshotsServed atomic.Uint64 // checkpoint snapshots shipped
	BatchesShipped  atomic.Uint64 // non-empty WAL batches shipped
	BytesShipped    atomic.Uint64 // WAL bytes shipped (batches only)
	ShippedLSN      atomic.Uint64 // highest offset any follower was shipped through

	// Replica side.
	AppliedLSN     atomic.Uint64 // offset one past the last applied group
	PrimaryEnd     atomic.Uint64 // primary's durable horizon, from the last batch
	VisibleTS      atomic.Int64  // commit timestamp replica reads are pinned to
	GroupsApplied  atomic.Uint64 // commit-terminated groups applied
	Reconnects     atomic.Uint64 // times the follower re-dialed the primary
	SnapshotsTaken atomic.Uint64 // full snapshot re-seeds (bootstrap + recycled fallback)
}

// NoteShipped advances the shipped high-water mark.
func (c *ReplCounters) NoteShipped(end uint64) {
	for {
		cur := c.ShippedLSN.Load()
		if end <= cur || c.ShippedLSN.CompareAndSwap(cur, end) {
			return
		}
	}
}

// NoteVisible advances the replica's visible commit timestamp.
func (c *ReplCounters) NoteVisible(ts int64) {
	for {
		cur := c.VisibleTS.Load()
		if ts <= cur || c.VisibleTS.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// ReplStats is a point-in-time snapshot of ReplCounters. LagBytes is
// the replica's apply lag against the primary's last reported durable
// horizon (zero on a primary, and while fully caught up).
type ReplStats struct {
	Role string

	FollowersOpen   int64
	FollowersTotal  uint64
	SnapshotsServed uint64
	BatchesShipped  uint64
	BytesShipped    uint64
	ShippedLSN      uint64

	AppliedLSN     uint64
	PrimaryEnd     uint64
	LagBytes       uint64
	VisibleTS      int64
	GroupsApplied  uint64
	Reconnects     uint64
	SnapshotsTaken uint64
}

// Snapshot reads the counters. Each field is read atomically; the
// snapshot as a whole is not a consistent cut, which is fine for
// monitoring counters.
func (c *ReplCounters) Snapshot() ReplStats {
	s := ReplStats{
		FollowersOpen:   c.FollowersOpen.Load(),
		FollowersTotal:  c.FollowersTotal.Load(),
		SnapshotsServed: c.SnapshotsServed.Load(),
		BatchesShipped:  c.BatchesShipped.Load(),
		BytesShipped:    c.BytesShipped.Load(),
		ShippedLSN:      c.ShippedLSN.Load(),
		AppliedLSN:      c.AppliedLSN.Load(),
		PrimaryEnd:      c.PrimaryEnd.Load(),
		VisibleTS:       c.VisibleTS.Load(),
		GroupsApplied:   c.GroupsApplied.Load(),
		Reconnects:      c.Reconnects.Load(),
		SnapshotsTaken:  c.SnapshotsTaken.Load(),
	}
	switch c.Role.Load() {
	case RolePrimary:
		s.Role = "primary"
	case RoleReplica:
		s.Role = "replica"
	default:
		s.Role = "none"
	}
	if s.PrimaryEnd > s.AppliedLSN {
		s.LagBytes = s.PrimaryEnd - s.AppliedLSN
	}
	return s
}

// ReplCounters returns the database's replication counters, creating
// them on first use; the shipper and the follower applier attach
// through here so Stats() observes the same counters.
func (db *DB) ReplCounters() *ReplCounters {
	if c := db.replCtr.Load(); c != nil {
		return c
	}
	fresh := &ReplCounters{}
	if db.replCtr.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return db.replCtr.Load()
}

// ReplStats snapshots the replication counters; all-zero (role "none")
// when no replication has ever happened.
func (db *DB) ReplStats() ReplStats {
	if c := db.replCtr.Load(); c != nil {
		return c.Snapshot()
	}
	return ReplStats{Role: "none"}
}
