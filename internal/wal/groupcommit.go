package wal

import "errors"

// ErrCommitLost reports that a commit record was physically cut from
// the log before it ever became durable: a concurrent statement
// rollback discarded the unflushed suffix the record lived in. The
// commit did not happen — its effects are rolled back with the
// failing statement's — so the caller sees an ordinary commit error,
// never a silently dropped acknowledgement.
var ErrCommitLost = errors.New("wal: commit discarded before becoming durable")

// AppendCommit appends a commit record and returns the log position
// that must become durable for the commit to count, plus the
// truncation epoch observed at append time. The caller releases its
// locks and then calls WaitDurable(end, epoch) — the split is
// what lets concurrent committers share one fsync.
func (l *Log) AppendCommit(payload []byte) (end, epoch uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := Record{Op: OpCommit, Payload: payload}
	if _, err := l.appendLocked(&r); err != nil {
		return 0, 0, err
	}
	return l.nextLSN, l.epoch.Load(), nil
}

// WaitDurable blocks until the log is durable through end, using
// leader/follower group commit: the first waiter through the leader
// lock issues one fsync that covers every record appended before it —
// including the other waiters' commit records, which were appended
// before they started waiting. A leader never dallies: commits batch
// exactly when they overlap an fsync in flight, so a lone committer
// never waits.
//
// If the truncation epoch changed while waiting, the commit record
// was cut by a concurrent rollback before it was flushed and
// ErrCommitLost is returned. The check order (durable first) makes
// false losses impossible: once flushed covers end, nothing in live
// operation cuts below it.
func (l *Log) WaitDurable(end, epoch uint64) error {
	for {
		if l.flushed.Load() >= end {
			return nil
		}
		if l.epoch.Load() != epoch {
			return ErrCommitLost
		}
		l.syncMu.Lock()
		if l.flushed.Load() >= end {
			l.syncMu.Unlock()
			return nil
		}
		if l.epoch.Load() != epoch {
			l.syncMu.Unlock()
			return ErrCommitLost
		}
		// This goroutine is the leader: one sync covers every commit
		// appended before it, its followers' included.
		err := l.syncUnderLeader()
		l.syncMu.Unlock()
		if err != nil {
			// An overlapping earlier sync may have covered our record
			// before this one failed: durable is durable.
			if l.flushed.Load() >= end {
				return nil
			}
			return err
		}
	}
}

// AbandonCommit resolves a commit whose durability wait failed. Under
// the leader lock — so no concurrent fsync can change the answer mid
// decision — it re-checks whether some overlapping sync made the
// record durable after all (lost=false: the commit stands and the
// caller must report success), and otherwise cuts the log back to the
// flushed boundary so the doomed record can never become durable
// later (lost=true: the caller rolls back). Commits of other waiters
// that get cut with it observe the epoch change and fail with
// ErrCommitLost, keeping acknowledgements truthful all around.
func (l *Log) AbandonCommit(end uint64) (lost bool, err error) {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.flushed.Load() >= end {
		return false, nil
	}
	if err := l.discardLocked(); err != nil {
		return true, err
	}
	return true, nil
}
