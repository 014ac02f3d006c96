package engine

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/sql"
)

// PreparedStmt is one statement parsed and bound ahead of execution.
// Re-executing it — a query or DML, auto-commit or inside a
// transaction — performs no parser and (while the catalog epoch holds)
// no planner work: the parse happened once in Prepare, and the bind
// products — result schema, required path sets, access-path choices —
// come from the statement's own last bind or the shared plan cache.
// When DDL, an index change or an index degradation bumps the catalog
// epoch, the next execution transparently re-binds from the kept AST
// (still no re-parse).
//
// A PreparedStmt is safe for concurrent use: the bound plan is
// immutable and swapped atomically under a mutex.
type PreparedStmt struct {
	db  *DB
	st  sql.Stmt
	key string // normalized SQL — the plan-cache key

	mu        sync.Mutex
	plan      *plan.Prepared
	fromCache bool // last bind was served by the shared cache
}

// Prepare parses one statement (which may contain `?` placeholders)
// and binds its plan. Binding errors — unknown tables, type errors —
// surface here, not at execution. BEGIN/COMMIT/ROLLBACK cannot be
// prepared.
func (db *DB) Prepare(q string) (*PreparedStmt, error) {
	st, err := sql.ParseOneStmt(q)
	if err != nil {
		return nil, err
	}
	switch st.Statement.(type) {
	case *sql.Begin, *sql.Commit, *sql.Rollback:
		return nil, fmt.Errorf("engine: cannot prepare a transaction-control statement")
	}
	key, err := sql.Normalize(st.Text)
	if err != nil {
		return nil, err
	}
	ps := &PreparedStmt{db: db, st: st, key: key}
	if err := ps.bind(nil); err != nil {
		return nil, err
	}
	return ps, nil
}

// Text returns the statement's original SQL text.
func (ps *PreparedStmt) Text() string { return ps.st.Text }

// NumParams returns the number of `?` placeholders.
func (ps *PreparedStmt) NumParams() int { return ps.st.Params }

// Stmt returns the parsed statement (shared; do not mutate).
func (ps *PreparedStmt) Stmt() sql.Statement { return ps.st.Statement }

// bind is bindLocked for callers outside a statement (Prepare,
// Explain): it takes the shared heal barrier, hands the plan to use (when
// non-nil) before releasing it, and turns a panic into a *PanicError, as
// the statement envelope does for executions.
func (ps *PreparedStmt) bind(use func(*plan.Prepared)) (err error) {
	db := ps.db
	db.healMu.RLock()
	defer db.healMu.RUnlock()
	if err := db.fatal(); err != nil {
		return err
	}
	defer recoverPanic(ps.st.Text, &err)
	p, err := ps.bindLocked()
	if err == nil && use != nil {
		use(p)
	}
	return err
}

// bindLocked returns a plan bound under the current catalog epoch: the
// statement's own last plan when still current (the hot path — one
// atomic epoch load and a pointer compare), else the shared cache,
// else a fresh bind (which populates the cache). The caller holds what
// keeps DDL out — the shared heal barrier, or applyMu — and DDL bumps
// the epoch under both, so the (epoch, catalog) pair is consistent.
func (ps *PreparedStmt) bindLocked() (*plan.Prepared, error) {
	db := ps.db
	epoch := db.epoch.Load()
	ps.mu.Lock()
	if p := ps.plan; p != nil && p.Epoch == epoch {
		ps.mu.Unlock()
		return p, nil
	}
	ps.mu.Unlock()
	p, cached, err := db.planFor(ps.st, ps.key, epoch)
	if err != nil {
		return nil, err
	}
	ps.mu.Lock()
	ps.plan = p
	ps.fromCache = cached
	ps.mu.Unlock()
	return p, nil
}

// planFor serves a plan for the statement under the given epoch from
// the shared cache, binding (and caching) on a miss. Caller holds
// healMu shared or applyMu.
func (db *DB) planFor(st sql.Stmt, key string, epoch uint64) (*plan.Prepared, bool, error) {
	if p, ok := db.plans.get(key, epoch); ok {
		return p, true, nil
	}
	p, err := plan.Prepare(st, key, db.exec, epoch)
	if err != nil {
		return nil, false, err
	}
	db.plans.put(key, p)
	return p, false, nil
}

// run executes the statement with the given arguments (one per `?`, in
// order) in scope tx. The plan is bound by the statement envelope
// (dispatch) in every scope: its access choices are evaluated against
// the scope's runtime, at the instant it resolves for each FROM item.
func (ps *PreparedStmt) run(ctx context.Context, tx *Txn, args []model.Value, form resultForm) (Result, *Rows, error) {
	return ps.db.run(ctx, tx, stmt{Stmt: ps.st, args: args, ps: ps}, form)
}

// Exec runs the prepared statement with the given arguments (one per
// `?`, in order) and commits it, like DB.Exec does for a one-shot
// statement.
func (ps *PreparedStmt) Exec(args ...model.Value) (Result, error) {
	return ps.ExecContext(context.Background(), args...)
}

// ExecContext is Exec with cancellation.
func (ps *PreparedStmt) ExecContext(ctx context.Context, args ...model.Value) (Result, error) {
	res, _, err := ps.run(ctx, nil, args, formAny)
	return res, err
}

// Query runs the prepared statement (which must be a SELECT) with the
// given arguments and materializes the result.
func (ps *PreparedStmt) Query(args ...model.Value) (*model.Table, *model.TableType, error) {
	return ps.QueryContext(context.Background(), args...)
}

// QueryContext is Query with cancellation.
func (ps *PreparedStmt) QueryContext(ctx context.Context, args ...model.Value) (*model.Table, *model.TableType, error) {
	res, _, err := ps.run(ctx, nil, args, formTable)
	return res.Table, res.Type, err
}

// QueryRows runs the prepared SELECT with the given arguments and
// returns a streaming cursor over its results.
func (ps *PreparedStmt) QueryRows(args ...model.Value) (*Rows, error) {
	return ps.QueryRowsContext(context.Background(), args...)
}

// QueryRowsContext is QueryRows with cancellation.
func (ps *PreparedStmt) QueryRowsContext(ctx context.Context, args ...model.Value) (*Rows, error) {
	_, rows, err := ps.run(ctx, nil, args, formRows)
	return rows, err
}

// Explain renders the bound plan's access paths and fetch sets
// without executing anything, and reports whether the plan was served
// by the shared cache (false: this statement's own bind, or a fresh
// bind after an invalidation).
func (ps *PreparedStmt) Explain() (lines []string, fromCache bool, err error) {
	if err := ps.bind(func(p *plan.Prepared) { lines = p.Describe(ps.db.exec.RT) }); err != nil {
		return nil, false, err
	}
	ps.mu.Lock()
	fromCache = ps.fromCache
	ps.mu.Unlock()
	return lines, fromCache, nil
}
