package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/page"
	"repro/internal/sql"
)

// Transaction errors.
var (
	// ErrWriteConflict reports first-writer-wins conflict detection: the
	// object a transaction tried to write was modified by another
	// transaction that is still active or that committed after this
	// transaction's snapshot was taken. The losing transaction should be
	// rolled back and retried.
	ErrWriteConflict = errors.New("engine: write conflict: object modified by a concurrent transaction")
	// ErrTxnDone reports an operation on a committed or rolled-back
	// transaction.
	ErrTxnDone = errors.New("engine: transaction already committed or rolled back")
	// ErrTxnDDL reports a DDL statement inside an explicit transaction;
	// schema changes are auto-commit only.
	ErrTxnDDL = errors.New("engine: DDL statements are not allowed inside a transaction")
)

// wkey identifies one write-conflict unit: a whole stored object (or
// flat tuple) of one table. Conflict detection is at object
// granularity — two transactions updating different subtuples of the
// same complex object still conflict.
type wkey struct {
	table string
	ref   page.TID
}

// synthBase is the first synthetic page number handed to refs of
// tuples inserted inside a transaction but not yet applied. Real
// segments are orders of magnitude smaller, so the ranges cannot
// collide; the synthetic refs are translated to real TIDs at commit.
const synthBase uint32 = 1 << 31

// pendingObj is the transaction-local image of one written object:
// what this transaction's own reads see. Values are immutable once
// stored (writers replace the whole entry), so statement-level
// rollback only has to remember the pointers a statement replaced.
type pendingObj struct {
	tup      model.Tuple // nil when deleted
	deleted  bool
	inserted bool // created by this transaction (synthetic ref)
}

// Txn is one multi-statement transaction running under snapshot
// isolation. Reads of versioned tables see the database exactly as of
// the transaction's begin timestamp (plus the transaction's own
// writes); writes are buffered and applied atomically at Commit, all
// stamped with one commit timestamp. Unversioned tables keep no
// history, so reads of them inside a transaction see the current
// committed state (still never another transaction's uncommitted
// writes); their writes get the same buffering, conflict detection
// and atomic commit as versioned ones.
//
// A Txn is not safe for concurrent use by multiple goroutines.
type Txn struct {
	db     *DB
	id     uint64
	snapTS int64
	done   bool

	exec    *exec.Executor
	writes  []exec.Write // buffered until Commit replays them (applyWrites)
	pending map[wkey]*pendingObj
	order   []wkey // insertion order of pending keys, for stable scans
	locked  map[wkey]bool
	synth   uint32

	// Statement-level rollback state (beginStmt/undoStmt): the pending
	// entries the running statement replaced, and where its writes and
	// order entries start.
	undo                  []pendingUndo
	writesMark, orderMark int
}

// pendingUndo is one pending entry as it was before the running
// statement replaced it (prev nil: the statement created the key).
type pendingUndo struct {
	k    wkey
	prev *pendingObj
}

// Begin starts a transaction. The snapshot timestamp is sampled, and
// the transaction registered, under the shared side of snapMu: the
// snapshot can never land inside another commit's window, and every
// writer that commits after it finds the transaction registered and
// stamps lastWrite (were it registered after the release, a writer
// committing in between would skip the stamp and lose its update to
// the transaction). The executor takes db.exec's path setting.
func (db *DB) Begin() (*Txn, error) {
	db.healMu.RLock()
	defer db.healMu.RUnlock()
	if err := db.fatal(); err != nil {
		return nil, err
	}
	if db.opts.Replica {
		return nil, ErrReadOnlyReplica
	}
	tx := &Txn{
		db:      db,
		pending: make(map[wkey]*pendingObj),
		locked:  make(map[wkey]bool),
	}
	tx.exec = &exec.Executor{
		RT:        &txnRuntime{runtime{db: db, snap: snapshot{tx: tx}}},
		FullPaths: db.exec.FullPaths,
	}
	db.snapMu.RLock()
	tx.snapTS = db.opts.Clock()
	db.txnMu.Lock()
	db.nextTxn++
	tx.id = db.nextTxn
	db.activeTxns[tx.id] = tx
	db.txnMu.Unlock()
	db.snapMu.RUnlock()
	return tx, nil
}

// ID returns the transaction's id (stamped into every version it
// creates and into its WAL commit record).
func (tx *Txn) ID() uint64 { return tx.id }

// SnapshotTS returns the transaction's begin (snapshot) timestamp.
func (tx *Txn) SnapshotTS() int64 { return tx.snapTS }

// registerWrite claims the conflict unit for this transaction:
// first-writer-wins, detected immediately (no waiting). It fails with
// ErrWriteConflict when another active transaction holds the object's
// write lock, or when a transaction committed a write to the object
// after this transaction's snapshot. It runs under snapMu shared: an
// auto-commit writer holds the exclusive side from its own check
// (autoConflict) to its lastWrite stamp, so it has either not checked
// yet — and will find this lock — or has stamped; a writer in flight
// would otherwise pass both checks and lose its update.
func (tx *Txn) registerWrite(k wkey) error {
	if tx.locked[k] {
		return nil
	}
	db := tx.db
	db.snapMu.RLock()
	defer db.snapMu.RUnlock()
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	if holder, held := db.writeLocks[k]; held && holder != tx.id {
		return fmt.Errorf("%w (object %v of %s, held by transaction %d)", ErrWriteConflict, k.ref, k.table, holder)
	}
	if ts, ok := db.lastWrite[k]; ok && ts > tx.snapTS {
		return fmt.Errorf("%w (object %v of %s, committed at %d after snapshot %d)", ErrWriteConflict, k.ref, k.table, ts, tx.snapTS)
	}
	db.writeLocks[k] = tx.id
	tx.locked[k] = true
	return nil
}

// ownRefs lists, in the order they were first written, the objects of
// table this transaction's pending writes touched, synthetic inserts
// included: no index holds their buffered images.
func (tx *Txn) ownRefs(table string) []page.TID {
	var refs []page.TID
	for _, k := range tx.order {
		if k.table == table {
			refs = append(refs, k.ref)
		}
	}
	return refs
}

// finish unregisters the transaction and releases its write locks.
// committed carries the commit timestamp to stamp into lastWrite (0
// for rollback). When the last active transaction finishes, the
// commit-stamp map is pruned — no snapshot can be older than any
// transaction that begins afterwards.
func (tx *Txn) finish(commitTS int64) {
	db := tx.db
	db.txnMu.Lock()
	for k := range tx.locked {
		if db.writeLocks[k] == tx.id {
			delete(db.writeLocks, k)
		}
		if commitTS != 0 {
			db.lastWrite[k] = commitTS
		}
	}
	delete(db.activeTxns, tx.id)
	if len(db.activeTxns) == 0 {
		db.lastWrite = make(map[wkey]int64)
	}
	db.txnMu.Unlock()
	tx.done = true
}

// Rollback discards the transaction: its buffered writes never touched
// storage, so this is pure bookkeeping. Idempotent after Commit in the
// database/sql style: rolling back a finished transaction returns
// ErrTxnDone.
func (tx *Txn) Rollback() error {
	if tx.done {
		return ErrTxnDone
	}
	tx.finish(0)
	return nil
}

// Commit applies the transaction's buffered writes atomically and
// makes them durable, in the commit envelope auto-commit statements
// share (DB.write): every version written carries the transaction's id
// and one commit timestamp, taken under the exclusive side of snapMu —
// a concurrent snapshot sees either none or all of the transaction. On
// an apply error the engine rolls back to the last commit (the
// statement-abort path) and the transaction fails.
func (tx *Txn) Commit() error {
	if tx.done {
		return ErrTxnDone
	}
	if len(tx.writes) == 0 {
		// Read-only transaction: nothing to apply or log.
		tx.finish(0)
		return nil
	}
	ts, err := tx.db.write(tx.id, tx.applyWrites)
	tx.finish(ts) // 0 on failure
	return err
}

// applyWrites replays the transaction's buffered writes through apply.
// An insert applies the final pending image of its tuple, which folds
// in the transaction's later writes to it (those are not buffered), and
// is elided when the tuple was deleted again; the tuple gets its real
// TID there.
func (tx *Txn) applyWrites() error {
	for _, w := range tx.writes {
		if w.Op == exec.WInsert {
			p := tx.pending[wkey{w.Table, w.Ref}]
			if p == nil || p.deleted {
				continue
			}
			w.Tuple = p.tup
		}
		if err := tx.db.apply(w); err != nil {
			return fmt.Errorf("engine: %s: %w", commitName(tx.id), err)
		}
	}
	return nil
}

// --- statement surface --------------------------------------------------
//
// Every method here names the statement, binds the transaction as its
// scope and hands both to DB.run (stmt.go). DML buffers; queries see the
// snapshot plus the transaction's own writes (EXPLAIN included; SHOW
// TABLES and DESCRIBE read current catalog metadata); DDL fails with
// ErrTxnDDL. A failing statement rolls back only that statement's
// buffered effects — the transaction stays usable.

// Exec parses and runs a script of statements inside the transaction.
func (tx *Txn) Exec(script string) ([]Result, error) {
	return tx.ExecContext(context.Background(), script)
}

// ExecContext is Exec with cancellation.
func (tx *Txn) ExecContext(ctx context.Context, script string) ([]Result, error) {
	return execScript(script, func(st sql.Stmt) (Result, error) { return tx.ExecStmtContext(ctx, st) })
}

// ExecStmtContext runs one already-parsed statement inside the
// transaction (the zero-reparse entry point mirroring
// DB.ExecStmtContext).
func (tx *Txn) ExecStmtContext(ctx context.Context, st sql.Stmt) (Result, error) {
	res, _, err := tx.db.run(ctx, tx, stmt{Stmt: st}, formAny)
	return res, err
}

// Query runs one SELECT at the transaction's snapshot.
func (tx *Txn) Query(q string) (*model.Table, *model.TableType, error) {
	return tx.db.queryText(context.Background(), tx, q)
}

// QueryRows runs one SELECT at the transaction's snapshot and returns
// a streaming cursor. The cursor stays consistent even if other
// transactions commit while it is open — it reads the version chains
// as of the snapshot timestamp.
func (tx *Txn) QueryRows(q string) (*Rows, error) {
	return tx.db.streamText(context.Background(), tx, q)
}

// QueryRowsContext is QueryRows with cancellation.
func (tx *Txn) QueryRowsContext(ctx context.Context, q string) (*Rows, error) {
	return tx.db.streamText(ctx, tx, q)
}

// QueryRowsStmt runs one already-parsed SELECT at the transaction's
// snapshot and returns a streaming cursor.
func (tx *Txn) QueryRowsStmt(ctx context.Context, st sql.Stmt) (*Rows, error) {
	_, rows, err := tx.db.run(ctx, tx, stmt{Stmt: st}, formRows)
	return rows, err
}

// ExecPrepared runs a prepared statement inside the transaction with
// the given arguments, reusing its parse and its bound plan (see
// PreparedStmt.run).
func (tx *Txn) ExecPrepared(ctx context.Context, ps *PreparedStmt, args ...model.Value) (Result, error) {
	res, _, err := ps.run(ctx, tx, args, formAny)
	return res, err
}

// QueryRowsPrepared runs a prepared SELECT inside the transaction and
// returns a streaming cursor at the transaction's snapshot.
func (tx *Txn) QueryRowsPrepared(ctx context.Context, ps *PreparedStmt, args ...model.Value) (*Rows, error) {
	_, rows, err := ps.run(ctx, tx, args, formRows)
	return rows, err
}

// --- statement-level rollback ---------------------------------------------

// beginStmt marks where a DML statement's buffered effects start:
// setPending logs every entry the statement overwrites (pendingObj
// values are immutable once stored, so the previous pointer is the
// whole undo image), and the write and order logs only grow.
func (tx *Txn) beginStmt() {
	tx.undo = tx.undo[:0]
	tx.writesMark, tx.orderMark = len(tx.writes), len(tx.order)
}

// undoStmt discards the buffered effects of the statement begun at the
// last beginStmt, restoring exactly the keys it touched. Write locks it
// took stay with the transaction.
func (tx *Txn) undoStmt() {
	for i := len(tx.undo) - 1; i >= 0; i-- {
		if u := tx.undo[i]; u.prev == nil {
			delete(tx.pending, u.k)
		} else {
			tx.pending[u.k] = u.prev
		}
	}
	tx.writes, tx.order = tx.writes[:tx.writesMark], tx.order[:tx.orderMark]
}

// newSynthRef mints a transaction-local ref for an inserted tuple.
func (tx *Txn) newSynthRef() page.TID {
	tx.synth++
	return page.TID{Page: synthBase + tx.synth}
}
