package engine

import (
	"fmt"
	"sync"

	"repro/internal/exec"
	"repro/internal/model"
)

// Rows is a streaming query cursor: result tuples are produced one
// Next at a time, with only the paths the query needs fetched from
// storage. Only the shared heal barrier is held per Next call — never
// for the cursor's lifetime — so an open (or abandoned) Rows never
// blocks writers, and writers (including transaction commits) never
// block readers. A cursor opened in auto-commit scope has
// read-committed-per-row semantics — a mutation committed between two
// Next calls can be visible to the second one; a cursor opened in a
// transaction's scope reads versioned tables at the transaction's
// snapshot instead. No buffer pages are pinned between
// calls and none survive Close, so a Rows abandoned without Close
// leaks nothing (Close still should be called: it records the
// statement's access statistics).
//
// Close is idempotent and safe to call from a different goroutine than
// the one iterating: session teardown, context cancellation and server
// drain can all fire Close concurrently with an in-flight Next, and
// exactly one of them releases the cursor. A Close racing a Next
// blocks until that Next finishes (cancel the context first to make
// that prompt); it never frees the cursor under the iterator's feet.
type Rows struct {
	db   *DB
	text string
	tt   *model.TableType

	// mu serializes Next/Scan/Close/Err and guards every mutable field
	// below; see the teardown note above.
	mu     sync.Mutex
	cur    *exec.Cursor
	tup    model.Tuple
	err    error
	rows   int
	start  statsMark
	closed bool
}

// Next advances to the next result tuple. It returns false at the end
// of the result, on error (see Err) and after Close; the cursor closes
// itself in all three cases.
func (r *Rows) Next() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.err != nil {
		return false
	}
	r.db.healMu.RLock()
	if ferr := r.db.fatal(); ferr != nil {
		r.db.healMu.RUnlock()
		r.err = ferr
		r.closeLocked()
		return false
	}
	var tup model.Tuple
	var ok bool
	var err error
	func() {
		defer recoverPanic(r.text, &err)
		tup, ok, err = r.cur.Next()
	}()
	r.db.healMu.RUnlock()
	if err != nil {
		r.err = r.db.healIfPanic(err)
		r.closeLocked()
		return false
	}
	if !ok {
		r.closeLocked()
		return false
	}
	r.tup = tup
	r.rows++
	return true
}

// Tuple returns the current result tuple (valid after a true Next). The
// caller owns it: the row shares storage with no other row of this or
// any other statement and with no stored or buffered state, so changing
// it — overwriting atoms, appending members to its subtables at any
// level — changes nothing else (TestResultRowsOwnTheirStorage).
func (r *Rows) Tuple() model.Tuple {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tup
}

// Type returns the result schema.
func (r *Rows) Type() *model.TableType { return r.tt }

// Err returns the error that terminated the iteration, if any.
func (r *Rows) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Scan copies the current tuple's attributes into dest values, which
// must be *model.Value, *int64, *int, *float64, *string, *bool or
// **model.Table and match the result arity.
func (r *Rows) Scan(dest ...any) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tup == nil {
		return fmt.Errorf("engine: Scan called without a successful Next")
	}
	if len(dest) != len(r.tup) {
		return fmt.Errorf("engine: Scan got %d destinations for %d attributes", len(dest), len(r.tup))
	}
	for i, d := range dest {
		v := r.tup[i]
		switch p := d.(type) {
		case *model.Value:
			*p = v
		case *int64:
			n, ok := v.(model.Int)
			if !ok {
				return fmt.Errorf("engine: Scan attribute %d: %T is not an INT", i, v)
			}
			*p = int64(n)
		case *int:
			n, ok := v.(model.Int)
			if !ok {
				return fmt.Errorf("engine: Scan attribute %d: %T is not an INT", i, v)
			}
			*p = int(n)
		case *float64:
			switch n := v.(type) {
			case model.Float:
				*p = float64(n)
			case model.Int:
				*p = float64(n)
			default:
				return fmt.Errorf("engine: Scan attribute %d: %T is not numeric", i, v)
			}
		case *string:
			s, ok := v.(model.Str)
			if !ok {
				return fmt.Errorf("engine: Scan attribute %d: %T is not a STRING", i, v)
			}
			*p = string(s)
		case *bool:
			b, ok := v.(model.Bool)
			if !ok {
				return fmt.Errorf("engine: Scan attribute %d: %T is not a BOOL", i, v)
			}
			*p = bool(b)
		case **model.Table:
			t, ok := v.(*model.Table)
			if !ok {
				return fmt.Errorf("engine: Scan attribute %d: %T is not a table", i, v)
			}
			*p = t
		default:
			return fmt.Errorf("engine: Scan destination %d has unsupported type %T", i, d)
		}
	}
	return nil
}

// Close ends the iteration, releases the cursor and records the
// statement's access statistics (LastStmtStats). Idempotent, and safe
// to call concurrently with Next (and with other Close calls) from
// any goroutine: exactly one caller performs the teardown.
func (r *Rows) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closeLocked()
	return nil
}

// closeLocked is the single teardown path; the caller holds r.mu.
func (r *Rows) closeLocked() {
	if r.closed {
		return
	}
	r.closed = true
	r.db.healMu.RLock()
	r.cur.Close()
	stats := r.db.since(r.start)
	r.db.healMu.RUnlock()
	stats.Rows = r.rows
	r.db.noteStmtStats(stats)
}
