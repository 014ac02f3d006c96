package engine

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// PanicError is a panic recovered at the statement boundary and
// surfaced as an error, tagged with the statement that triggered it.
// The engine converts executor/storage panics into PanicErrors so an
// internal invariant violation fails one statement instead of the
// process.
type PanicError struct {
	// Stmt is the statement's source text (or its Go type when the
	// source is unavailable).
	Stmt string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at the panic site.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: panic executing %q: %v", e.Stmt, e.Value)
}

// rollbackStmt restores the committed state on the live engine after
// a failed statement, reusing the crash-recovery sequence (recover)
// without a reopen:
//
//  1. discard the unflushed WAL tail (which also clears any sticky
//     error a failed flush left in the buffered writer);
//  2. drop every buffered frame — the statement's uncommitted dirty
//     pages and any pins leaked by a recovered panic;
//  3. recover on the live pool: truncate the log at the last commit,
//     wipe untrusted page images (including uncommitted pages stolen
//     to disk by eviction), redo committed operations, seal holes,
//     and reload the catalog and the in-memory runtime structures
//     (managers, flat stores, memory-resident indexes).
//
// Because every successful statement ends with a synced commit
// record, everything after the last commit belongs to the failed
// statement and nothing before it can be lost.
//
// Without a WAL the rollback is best-effort: buffered page effects of
// the failed statement cannot be undone, but the runtime structures
// are still reloaded so the session stays internally consistent.
// Callers must hold applyMu and healMu exclusively.
func (db *DB) rollbackStmt() error {
	if db.log != nil {
		if err := db.log.DiscardUnflushed(); err != nil {
			return fmt.Errorf("engine: discard WAL buffer: %w", err)
		}
		db.pool.InvalidateAll()
		// Recovery rewrites every page holding committed data from its
		// full WAL history, repairing the images any quarantine entries
		// were observed on; drop them and let reads re-detect whatever
		// recovery could not cure (WAL-less databases keep theirs).
		db.ClearQuarantine()
	}
	return db.recover()
}

// abortLocked handles a failed mutating statement (or transaction
// apply): it rolls the engine back to the last WAL commit and, if even
// that fails, poisons the database so later statements fail fast
// instead of running on corrupt state. The caller must hold applyMu
// (and neither snapMu nor healMu); abortLocked takes the healMu
// barrier itself, so every in-flight reader drains before the buffer
// pool is invalidated and the runtime reloaded.
func (db *DB) abortLocked(stmtErr error) error {
	db.healMu.Lock()
	defer db.healMu.Unlock()
	if rbErr := db.rollbackStmt(); rbErr != nil {
		ferr := fmt.Errorf("engine: statement rollback failed, database needs reopen: %v (statement error: %w)", rbErr, stmtErr)
		db.setFatal(ferr)
		return ferr
	}
	return stmtErr
}

// abort is abortLocked for callers that do not yet hold applyMu (the
// read paths healing after a recovered panic).
func (db *DB) abort(stmtErr error) error {
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	return db.abortLocked(stmtErr)
}

// healIfPanic repairs the engine after a panic recovered on a path
// that held only the shared heal barrier (a read, a transaction's
// statement, a Rows.Next): pins may have leaked and in-memory state may
// be partial even though nothing was written, so roll back to the last
// commit under the exclusive barrier.
func (db *DB) healIfPanic(err error) error {
	var pe *PanicError
	if errors.As(err, &pe) {
		err = db.abort(err)
	}
	return err
}

// recoverPanic converts a recovered panic into a PanicError; install
// it with defer around statement execution.
func recoverPanic(text string, err *error) {
	if p := recover(); p != nil {
		*err = &PanicError{Stmt: text, Value: p, Stack: debug.Stack()}
	}
}
