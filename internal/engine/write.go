package engine

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/page"
	"repro/internal/wal"
)

// write is the one commit envelope (DESIGN.md §5): an auto-commit DML
// statement, a transaction's commit and a check-in run their storage
// mutations as body inside it. Under applyMu, with the database neither
// poisoned nor a replica, it samples one instant under the exclusive
// snapMu and stamps it on every version body writes, on the commit
// record and on the lastWrite stamps of the objects body enrolled
// (autoConflict). A failed (or panicking) body or commit append rolls
// the engine back to the last commit. The record is synced after the
// locks drop, so overlapping committers share one fsync (awaitDurable).
// txn is the committing transaction's id, 0 for everything else. It
// returns the instant once the commit is durable (0 on failure).
func (db *DB) write(txn uint64, body func() error) (int64, error) {
	db.applyMu.Lock()
	if err := db.writable(); err != nil {
		db.applyMu.Unlock()
		return 0, err
	}
	db.stmtWrites = db.stmtWrites[:0]
	var end, epoch uint64
	var ts int64
	err := db.instant(txn, func(at int64) (err error) {
		// A panic fails the write like an error, so the rollback below
		// runs and applyMu is released.
		defer recoverPanic("commit", &err)
		ts = at
		if err := body(); err != nil {
			return err
		}
		if end, epoch, err = db.appendCommit(wal.CommitPayload(txn, ts)); err != nil {
			return fmt.Errorf("engine: %s: %w", commitName(txn), err)
		}
		db.publishStmtWrites(ts)
		return nil
	})
	if err != nil {
		err = db.abortLocked(err)
		db.applyMu.Unlock()
		return 0, err
	}
	db.applyMu.Unlock()
	if err := db.awaitDurable(end, epoch, txn); err != nil {
		return 0, err
	}
	return ts, nil
}

// writable returns why no write may start, if any: the database is
// poisoned (fatal) or a read-only replica.
func (db *DB) writable() error {
	if db.opts.Replica {
		return ErrReadOnlyReplica
	}
	return db.fatal()
}

// instant runs body as one instant: under the exclusive snapMu, so no
// snapshot is sampled inside it, with every version it writes in every
// store stamped ts and txn (subtuple.Store.SetApply), ts a clock
// reading taken as it starts. The caller holds applyMu.
func (db *DB) instant(txn uint64, body func(ts int64) error) error {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	ts := db.opts.Clock()
	for _, st := range db.stores {
		st.SetApply(txn, ts)
	}
	defer func() {
		for _, st := range db.stores {
			st.ClearApply()
		}
	}()
	return body(ts)
}

// commitName names the commit of transaction txn (0: of a statement) in
// errors.
func commitName(txn uint64) string {
	if txn == 0 {
		return "commit"
	}
	return fmt.Sprintf("transaction %d commit", txn)
}

// awaitDurable establishes the durability of the commit record appended
// at end, outside the apply lock (group commit): the writer's effects
// are already visible to readers, but it is acknowledged only once the
// record is on disk. If the record was lost the engine rolls back to
// the last durable commit and the statement (txn == 0) or transaction
// fails.
func (db *DB) awaitDurable(end, epoch, txn uint64) error {
	derr := db.waitCommitDurable(end, epoch)
	if derr == nil {
		return nil
	}
	lost, aerr := db.abandonCommit(end)
	if !lost {
		return nil // an overlapping sync made the record durable after all
	}
	if aerr != nil {
		derr = fmt.Errorf("%v (discarding the record: %v)", derr, aerr)
	}
	return db.abort(fmt.Errorf("engine: %s: %w", commitName(txn), derr))
}

// autoConflict enrolls an auto-commit write of object ref in
// first-writer-wins conflict detection (runtime.Write). An object
// write-locked by an active transaction fails the statement with
// ErrWriteConflict immediately; otherwise the key is collected so the
// statement's commit can stamp it into lastWrite, where transactions
// with older snapshots will find it.
func (db *DB) autoConflict(table string, ref page.TID) error {
	k := wkey{table, ref}
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	if holder, held := db.writeLocks[k]; held {
		return fmt.Errorf("%w (object %v of %s, held by transaction %d)", ErrWriteConflict, k.ref, k.table, holder)
	}
	db.stmtWrites = append(db.stmtWrites, k)
	return nil
}

// publishStmtWrites stamps the objects a committing auto-commit
// statement wrote into lastWrite at its instant ts, inside its snapMu
// window — a transaction whose snapshot predates this commit will
// conflict if it later writes one of them. A failed statement stamps
// nothing: its rollback removes its writes. With no transaction active
// the stamps are skipped: no snapshot old enough to race can exist
// (Begin samples its timestamp and registers the transaction under
// snapMu's shared side, so a transaction not registered yet takes its
// snapshot after this statement), and finish would only have to prune
// them again.
func (db *DB) publishStmtWrites(ts int64) {
	if len(db.stmtWrites) == 0 {
		return
	}
	db.txnMu.Lock()
	if len(db.activeTxns) > 0 {
		for _, k := range db.stmtWrites {
			db.lastWrite[k] = ts
		}
	}
	db.txnMu.Unlock()
}

// --- writes outside statements -------------------------------------------

// Insert adds a tuple to a table outside any statement, for loaders
// that fill tables and then call Commit. It holds the write lock and
// stamps every version with one instant, as a statement does, but logs
// no commit: the tuple stays uncommitted until Commit (a statement that
// fails before then rolls it back).
func (db *DB) Insert(table string, tup model.Tuple) error {
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	if err := db.writable(); err != nil {
		return err
	}
	return db.instant(0, func(int64) error {
		return db.apply(exec.Write{Op: exec.WInsert, Table: table, Tuple: tup})
	})
}

// Commit appends a commit record and syncs the log, making every write
// since the last commit durable (a no-op without a log). It waits for a
// writer in its window: loaders call it after their Inserts, Close
// before it flushes.
func (db *DB) Commit() error {
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	return db.commit()
}

// commit is Commit for holders of applyMu.
func (db *DB) commit() error {
	if db.log == nil {
		return nil
	}
	if db.opts.Replica {
		return ErrReadOnlyReplica
	}
	// The commit record carries a timestamp so a replica can publish a
	// visibility horizon covering every version this commit wrote (the
	// clock is strictly increasing: all of them are older).
	if _, err := db.log.Append(&wal.Record{Op: wal.OpCommit, Payload: wal.CommitPayload(0, db.opts.Clock())}); err != nil {
		return err
	}
	return db.log.Sync()
}

// CheckIn imports a checked-out object (§4.1) into an NF² table of the
// same schema and layout as one committed write, and returns its new
// reference: its pages are logged as they are written
// (object.Manager.Import), it must conform to the table's type, and it
// joins the directory and the indexes as an inserted object does.
func (db *DB) CheckIn(table string, snap *object.Snapshot) (page.TID, error) {
	var ref page.TID
	_, err := db.write(0, func() error {
		t, ok := db.cat.Table(table)
		m := db.mgrs[table]
		if !ok || m == nil {
			return fmt.Errorf("engine: table %q is not a stored NF² table", table)
		}
		var err error
		if ref, err = m.Import(snap); err != nil {
			return err
		}
		tup, err := m.Read(t.Type, ref)
		if err != nil {
			return err
		}
		if err := model.Conform(t.Type, tup); err != nil {
			return err
		}
		return db.register(t, ref)
	})
	return ref, err
}
