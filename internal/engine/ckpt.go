package engine

import (
	"time"

	"repro/internal/wal"
)

// DefaultWALSegmentBytes is the segment-file size bound when
// Options.WALSegmentBytes is zero: 4 MiB keeps segment counts small
// while letting checkpoints retire history in useful chunks.
const DefaultWALSegmentBytes = 4 << 20

// WALCheckpoint writes a fuzzy checkpoint and retires dead log
// history: flush every dirty page (through the FlushHook, so the
// write-ahead rule syncs the log first), log a durable OpCheckpoint
// record carrying the durable-LSN horizon and the open-transaction
// table, and recycle the WAL segments recovery can no longer need.
// After it returns, reopening the database replays only the records
// from this checkpoint onward.
//
// It runs under the apply lock, so it sits between statements: every
// record already in the log belongs to a completed statement, which
// is exactly what lets recovery treat the checkpoint as a commit
// horizon. Open transactions don't interfere — their writes are
// buffered in memory, not in pages or the log. Readers keep streaming
// throughout (the heal barrier is not taken).
func (db *DB) WALCheckpoint() error {
	if db.log == nil || db.opts.Replica {
		// A replica's checkpoints mirror from the primary's stream
		// (ReplicaApply); writing its own would fork the logs. Flushing
		// pages is still useful and safe.
		return db.pool.FlushAll()
	}
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	if err := db.fatal(); err != nil {
		return err
	}
	if db.log.End() == db.ckptAtEnd {
		return nil // nothing logged since the last checkpoint
	}
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	info := wal.CheckpointInfo{
		Durable:  db.log.SyncedThrough(),
		OpenTxns: db.openTxnIDs(),
	}
	if _, err := db.log.WriteCheckpoint(info); err != nil {
		return err
	}
	db.ckptAtEnd = db.log.End()
	db.checkpoints.Add(1)
	if _, err := db.log.Recycle(); err != nil {
		return err
	}
	return nil
}

// checkpointLoop is the background checkpointer started by Open when
// Options.CheckpointEvery > 0; Close stops it before tearing down.
func (db *DB) checkpointLoop(every time.Duration) {
	defer close(db.ckptDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-db.ckptStop:
			return
		case <-t.C:
			if err := db.WALCheckpoint(); err != nil {
				msg := err.Error()
				db.ckptErr.Store(&msg)
			}
		}
	}
}

// openTxnIDs snapshots the ids of the open transactions.
func (db *DB) openTxnIDs() []uint64 {
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	ids := make([]uint64, 0, len(db.activeTxns))
	for id := range db.activeTxns {
		ids = append(ids, id)
	}
	return ids
}

// WALStats reports the durability subsystem's counters.
type WALStats struct {
	// Segments is the number of retained WAL segment files.
	Segments int
	// CheckpointLSN is the LSN of the last durable checkpoint record
	// (0: none yet).
	CheckpointLSN uint64
	// TailStart is the byte offset recovery would replay from; End is
	// the current append position. End - TailStart bounds the replay
	// work of a reopen.
	TailStart uint64
	End       uint64
	// Syncs counts log fsyncs; under group commit it grows slower than
	// the commit count.
	Syncs uint64
	// Checkpoints counts completed WALCheckpoint calls on this handle.
	Checkpoints uint64
	// LastCheckpointError is the most recent background checkpoint
	// failure ("" when none).
	LastCheckpointError string
}

// WALStats returns the durability counters; zero when logging is off.
func (db *DB) WALStats() WALStats {
	if db.log == nil {
		return WALStats{}
	}
	s := WALStats{
		Segments:      db.log.SegmentCount(),
		CheckpointLSN: db.log.CheckpointLSN(),
		TailStart:     db.log.TailStart(),
		End:           db.log.End(),
		Syncs:         db.log.Syncs(),
		Checkpoints:   db.checkpoints.Load(),
	}
	if msg := db.ckptErr.Load(); msg != nil {
		s.LastCheckpointError = *msg
	}
	return s
}

// appendCommit appends the commit record for a finished statement or
// transaction without syncing; the caller releases its locks and then
// establishes durability with waitCommitDurable, so overlapping
// committers share one fsync.
func (db *DB) appendCommit(payload []byte) (end, epoch uint64, err error) {
	if db.log == nil {
		return 0, 0, nil
	}
	return db.log.AppendCommit(payload)
}

// waitCommitDurable blocks until the commit appended at end is
// durable (group commit). A wal.ErrCommitLost return means the record
// was cut by a concurrent rollback before it could be synced.
func (db *DB) waitCommitDurable(end, epoch uint64) error {
	if db.log == nil {
		return nil
	}
	return db.log.WaitDurable(end, epoch)
}

// abandonCommit resolves a commit whose durability wait failed:
// lost=false means an overlapping sync made it durable after all and
// the caller must report success; lost=true means the record is cut
// and the caller must roll back.
func (db *DB) abandonCommit(end uint64) (lost bool, err error) {
	if db.log == nil {
		return false, nil
	}
	return db.log.AbandonCommit(end)
}
