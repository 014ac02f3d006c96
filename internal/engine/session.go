package engine

import (
	"context"
	"errors"

	"repro/internal/model"
	"repro/internal/sql"
)

// Session is one client's conversation with the database and the one
// owner of its open transaction: BEGIN, COMMIT and ROLLBACK are
// interpreted here and nowhere else, and every other statement runs in
// whatever scope they left — the open transaction, or auto-commit. A
// script (DB.Exec), the shell and a server connection each hold one.
//
// A Session is not safe for concurrent use by multiple goroutines.
type Session struct {
	db *DB
	tx *Txn // the open transaction; nil = auto-commit
}

// NewSession starts a session in auto-commit scope.
func (db *DB) NewSession() *Session { return &Session{db: db} }

// InTxn reports whether the session has an open transaction.
func (s *Session) InTxn() bool { return s.tx != nil }

// Close ends the session. A transaction still open is rolled back
// (releasing its write locks) and reported as an error.
func (s *Session) Close() error {
	if s.tx == nil {
		return nil
	}
	s.tx.Rollback()
	s.tx = nil
	return errors.New("engine: session ended with an open transaction (missing COMMIT or ROLLBACK); rolled back")
}

// Exec runs one parsed statement in the session's current scope and
// materializes its result. BEGIN opens the session transaction, COMMIT
// and ROLLBACK end it; a failed COMMIT leaves no transaction open.
func (s *Session) Exec(ctx context.Context, st sql.Stmt) (Result, error) {
	switch st.Statement.(type) {
	case *sql.Begin:
		if s.tx != nil {
			return Result{}, errors.New("engine: BEGIN inside an open transaction (transactions do not nest)")
		}
		tx, err := s.db.Begin()
		if err != nil {
			return Result{}, err
		}
		s.tx = tx
		return Result{Message: "transaction started"}, nil
	case *sql.Commit:
		tx := s.tx
		if tx == nil {
			return Result{}, errors.New("engine: COMMIT without BEGIN")
		}
		s.tx = nil
		return message(tx.Commit(), "transaction committed")
	case *sql.Rollback:
		tx := s.tx
		if tx == nil {
			return Result{}, errors.New("engine: ROLLBACK without BEGIN")
		}
		s.tx = nil
		return message(tx.Rollback(), "transaction rolled back")
	}
	res, _, err := s.db.run(ctx, s.tx, stmt{Stmt: st}, formAny)
	return res, err
}

// ExecScript parses a script and runs its statements through Exec,
// stopping at the first error. A transaction the script leaves open
// stays the session's.
func (s *Session) ExecScript(ctx context.Context, script string) ([]Result, error) {
	return execScript(script, func(st sql.Stmt) (Result, error) { return s.Exec(ctx, st) })
}

// ExecPrepared runs a prepared statement with the given arguments in
// the session's current scope.
func (s *Session) ExecPrepared(ctx context.Context, ps *PreparedStmt, args ...model.Value) (Result, error) {
	res, _, err := ps.run(ctx, s.tx, args, formAny)
	return res, err
}

// QueryRows opens a streaming cursor over one parsed SELECT in the
// session's current scope.
func (s *Session) QueryRows(ctx context.Context, st sql.Stmt) (*Rows, error) {
	_, rows, err := s.db.run(ctx, s.tx, stmt{Stmt: st}, formRows)
	return rows, err
}

// QueryRowsPrepared opens a streaming cursor over a prepared SELECT in
// the session's current scope.
func (s *Session) QueryRowsPrepared(ctx context.Context, ps *PreparedStmt, args ...model.Value) (*Rows, error) {
	_, rows, err := ps.run(ctx, s.tx, args, formRows)
	return rows, err
}
