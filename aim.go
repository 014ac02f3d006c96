// Package aim is a from-scratch reproduction of the AIM-II DBMS
// prototype described in "A DBMS Prototype to Support Extended NF²
// Relations: An Integrated View on Flat Tables and Hierarchies"
// (Dadam et al., SIGMOD 1986): a database system for the extended NF²
// data model, which treats flat relations, ordered tables (lists) and
// arbitrarily nested hierarchical structures (complex objects)
// uniformly.
//
// The system provides:
//
//   - an SQL-like query language generalized for nested tables
//     (nested SELECT result construction, range variables over any
//     nesting level, EXISTS/ALL quantifiers, joins across levels,
//     list indexing, masked text search, ASOF time-version queries);
//   - complex-object storage with Mini Directories in all three
//     storage structures of the paper (SS1, SS2, SS3), local address
//     spaces with page lists and Mini TIDs, page-level check-out;
//   - B-tree indexes with hierarchical addresses (plus the paper's
//     two rejected strategies for comparison), word-fragment text
//     indexes, and tuple names;
//   - a full storage stack: slotted pages, segments, buffer pool,
//     write-ahead logging and crash recovery.
//
// Quick start:
//
//	db, _ := aim.OpenMemory()
//	defer db.Close()
//	db.Exec(`CREATE TABLE DEPARTMENTS (
//	    DNO INT, MGRNO INT,
//	    PROJECTS TABLE OF (PNO INT, PNAME STRING,
//	        MEMBERS TABLE OF (EMPNO INT, FUNCTION STRING)),
//	    BUDGET INT,
//	    EQUIP TABLE OF (QU INT, TYPE STRING))`)
//	db.Exec(`INSERT INTO DEPARTMENTS VALUES
//	    (314, 56194, {(17, 'CGA', {(39582, 'Leader')})}, 320000, {(2, '3278')})`)
//	rows, schema, _ := db.Query(`SELECT x.DNO FROM x IN DEPARTMENTS
//	    WHERE EXISTS y IN x.EQUIP: y.TYPE = '3278'`)
//	fmt.Println(aim.Format("RESULT", schema, rows))
package aim

import (
	"context"
	"reflect"
	"time"

	"repro/internal/buffer"
	"repro/internal/dberr"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/scrub"
	"repro/internal/tname"
)

// Re-exported model types: values and schemas of the extended NF²
// data model.
type (
	// Value is any attribute value: an atomic value or a *Table.
	Value = model.Value
	// Tuple is one tuple (complex object or subobject).
	Tuple = model.Tuple
	// Table is a table value: ordered (list) or unordered (relation).
	Table = model.Table
	// TableType describes a (possibly nested) table schema.
	TableType = model.TableType
	// Attr is one attribute of a table type.
	Attr = model.Attr
	// Type is an attribute type: atomic or table-valued.
	Type = model.Type
)

// Re-exported atomic value constructors.
type (
	// Int is an atomic integer value.
	Int = model.Int
	// Float is an atomic floating point value.
	Float = model.Float
	// Str is an atomic string value.
	Str = model.Str
	// Bool is an atomic boolean value.
	Bool = model.Bool
	// Time is an atomic instant value.
	Time = model.Time
	// Null is the atomic null value.
	Null = model.Null
)

// Layout selects the Mini Directory storage structure for NF² tables
// (Fig 6 of the paper).
type Layout = object.Layout

// The three storage structures; SS3 is AIM-II's (and this package's)
// default.
const (
	SS1 = object.SS1
	SS2 = object.SS2
	SS3 = object.SS3
)

// Options configures a database.
type Options struct {
	// Dir is the database directory; empty means in-memory. An
	// in-memory database keeps no log, so it cannot roll a failed
	// statement back: what the statement wrote before it failed stays
	// (of an INSERT whose second row is rejected, the first row
	// remains).
	Dir string
	// PoolPages is the buffer pool capacity in 4 KiB pages
	// (default 1024).
	PoolPages int
	// PoolShards overrides the buffer pool's lock-stripe count (a
	// power of two; 0 derives it from PoolPages). The pool shards
	// automatically for large capacities; set this only to force a
	// specific stripe count in benchmarks or tests.
	PoolShards int
	// DisableWAL turns off write-ahead logging for on-disk databases,
	// and with it the rollback of a failed statement (see Dir).
	DisableWAL bool
	// DefaultLayout is the storage structure for new NF² tables
	// (default SS3).
	DefaultLayout Layout
	// Clock supplies timestamps for versioned tables (default
	// wall-clock nanoseconds).
	Clock func() int64
	// WALSegmentBytes bounds each WAL segment file; once a checkpoint
	// passes a segment, the file is recycled. 0 uses the default
	// (4 MiB); negative keeps the log in one unbounded file.
	WALSegmentBytes int64
	// CheckpointEvery starts a background checkpointer with the given
	// period. 0 disables it; Checkpoint can always be called directly.
	CheckpointEvery time.Duration
}

// DB is a database handle.
type DB struct {
	eng *engine.DB
}

// Result is the outcome of one executed statement.
type Result = engine.Result

// Open opens (or creates) a database.
func Open(opts Options) (*DB, error) {
	eng, err := engine.Open(engine.Options{
		Dir:             opts.Dir,
		PoolPages:       opts.PoolPages,
		PoolShards:      opts.PoolShards,
		DisableWAL:      opts.DisableWAL,
		DefaultLayout:   opts.DefaultLayout,
		Clock:           opts.Clock,
		WALSegmentBytes: opts.WALSegmentBytes,
		CheckpointEvery: opts.CheckpointEvery,
	})
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng}, nil
}

// OpenMemory opens a fresh in-memory database.
func OpenMemory() (*DB, error) { return Open(Options{}) }

// Close checkpoints and closes the database.
func (db *DB) Close() error { return db.eng.Close() }

// Exec parses and runs a script of semicolon-separated NF² SQL
// statements, committing after each.
func (db *DB) Exec(script string) ([]Result, error) { return db.eng.Exec(script) }

// ExecContext is Exec with cancellation: a canceled or expired
// context fails the current statement promptly (long scans check it
// once per tuple binding), and a failed mutating statement is rolled
// back to the previous statement boundary like any other error.
func (db *DB) ExecContext(ctx context.Context, script string) ([]Result, error) {
	return db.eng.ExecContext(ctx, script)
}

// Query runs one SELECT and returns the result table and its schema,
// fully materialized. It is a convenience wrapper over the streaming
// path (QueryRows): the engine reads objects pruned to the query's
// attribute paths either way.
func (db *DB) Query(q string) (*Table, *TableType, error) { return db.eng.Query(q) }

// QueryContext is Query with cancellation.
func (db *DB) QueryContext(ctx context.Context, q string) (*Table, *TableType, error) {
	return db.eng.QueryContext(ctx, q)
}

// Rows is a streaming query cursor: result tuples are produced one
// Next at a time, and only the attribute paths the query actually
// references are fetched from storage. Iterate with Next, read the
// current tuple with Tuple or Scan, and Close when done (Close is
// idempotent; a cursor abandoned without Close holds no buffer pages
// and blocks no writers):
//
//	rows, _ := db.QueryRows(`SELECT x.DNO FROM x IN DEPARTMENTS`)
//	defer rows.Close()
//	for rows.Next() {
//	    var dno int
//	    rows.Scan(&dno)
//	}
//	err := rows.Err()
type Rows = engine.Rows

// QueryRows runs one SELECT and returns a streaming cursor over its
// result.
func (db *DB) QueryRows(q string) (*Rows, error) { return db.eng.QueryRows(q) }

// QueryRowsContext is QueryRows with cancellation: the context is
// checked once per Next call, so an abandoned iteration stops within
// one tuple's worth of work.
func (db *DB) QueryRowsContext(ctx context.Context, q string) (*Rows, error) {
	return db.eng.QueryRowsContext(ctx, q)
}

// --- prepared statements -------------------------------------------------

// Stmt is a prepared statement: parsed once, planned once, executed
// any number of times with different arguments bound to its `?`
// placeholders (positional, in order of appearance). Re-execution
// performs no parser and no planner work — the plan is reused until a
// schema or index change invalidates it, at which point the next
// execution transparently re-plans from the kept parse tree. A Stmt
// is safe for concurrent use.
//
//	stmt, _ := db.Prepare(`SELECT x.MGRNO FROM x IN DEPARTMENTS WHERE x.DNO = ?`)
//	for _, dno := range []int{314, 315} {
//	    rows, _, _ := stmt.Query(dno)
//	    ...
//	}
type Stmt struct {
	ps *engine.PreparedStmt
}

// Prepare parses and plans one statement, which may contain `?`
// placeholders in any expression position (WHERE comparisons, INSERT
// values, SET clauses). Unknown tables and type errors surface here
// rather than at execution.
func (db *DB) Prepare(q string) (*Stmt, error) {
	ps, err := db.eng.Prepare(q)
	if err != nil {
		return nil, err
	}
	return &Stmt{ps: ps}, nil
}

// coerceArg converts a Go argument value to a model value: int/int64
// → INT, float64 → FLOAT, string → STRING, bool → BOOL, time.Time →
// TIME, nil → NULL; model values pass through.
func coerceArg(a any) (Value, error) {
	switch x := a.(type) {
	case nil:
		return model.Null{}, nil
	case model.Value:
		return x, nil
	case int:
		return model.Int(x), nil
	case int64:
		return model.Int(x), nil
	case float64:
		return model.Float(x), nil
	case string:
		return model.Str(x), nil
	case bool:
		return model.Bool(x), nil
	case time.Time:
		return model.TimeOf(x), nil
	}
	return nil, errBadArg{a}
}

type errBadArg struct{ a any }

func (e errBadArg) Error() string {
	return "aim: unsupported argument type " + typeName(e.a)
}

func typeName(a any) string { return reflect.TypeOf(a).String() }

func coerceArgs(args []any) ([]Value, error) {
	out := make([]Value, len(args))
	for i, a := range args {
		v, err := coerceArg(a)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Exec runs the prepared statement with the given arguments (one per
// `?`) and commits it.
func (s *Stmt) Exec(args ...any) (Result, error) {
	return s.ExecContext(context.Background(), args...)
}

// ExecContext is Exec with cancellation.
func (s *Stmt) ExecContext(ctx context.Context, args ...any) (Result, error) {
	vals, err := coerceArgs(args)
	if err != nil {
		return Result{}, err
	}
	return s.ps.ExecContext(ctx, vals...)
}

// Query runs the prepared SELECT with the given arguments,
// materialized.
func (s *Stmt) Query(args ...any) (*Table, *TableType, error) {
	return s.QueryContext(context.Background(), args...)
}

// QueryContext is Query with cancellation.
func (s *Stmt) QueryContext(ctx context.Context, args ...any) (*Table, *TableType, error) {
	vals, err := coerceArgs(args)
	if err != nil {
		return nil, nil, err
	}
	return s.ps.QueryContext(ctx, vals...)
}

// QueryRows runs the prepared SELECT with the given arguments and
// returns a streaming cursor.
func (s *Stmt) QueryRows(args ...any) (*Rows, error) {
	return s.QueryRowsContext(context.Background(), args...)
}

// QueryRowsContext is QueryRows with cancellation.
func (s *Stmt) QueryRowsContext(ctx context.Context, args ...any) (*Rows, error) {
	vals, err := coerceArgs(args)
	if err != nil {
		return nil, err
	}
	return s.ps.QueryRowsContext(ctx, vals...)
}

// Explain renders the statement's bound access plan — chosen indexes,
// operators, fetch sets per range variable — without executing
// anything, and reports whether the plan came from the shared plan
// cache.
func (s *Stmt) Explain() (plan []string, fromCache bool, err error) {
	return s.ps.Explain()
}

// NumParams returns the number of `?` placeholders.
func (s *Stmt) NumParams() int { return s.ps.NumParams() }

// Text returns the statement's SQL text.
func (s *Stmt) Text() string { return s.ps.Text() }

// --- transactions --------------------------------------------------------

// Tx is a multi-statement transaction under snapshot isolation: every
// read of a versioned table sees the database exactly as of Begin
// (plus the transaction's own writes), writes are buffered and
// applied atomically at Commit under first-writer-wins conflict
// detection (ErrWriteConflict), and Rollback discards everything.
// Unversioned tables keep no version chains, so transactional reads
// of them see the current committed state; their writes still get the
// same buffering, conflict detection and atomic commit.
//
// A Tx must not be shared between goroutines; any number of
// transactions (and auto-commit statements) may run concurrently on
// the same DB from different goroutines.
//
//	tx, _ := db.Begin()
//	tx.Exec(`UPDATE x IN DEPARTMENTS SET BUDGET = 1 WHERE x.DNO = 314`)
//	if err := tx.Commit(); errors.Is(err, aim.ErrWriteConflict) {
//	    // a concurrent transaction won; retry
//	}
type Tx struct {
	tx *engine.Txn
}

// ErrWriteConflict is returned (by Tx writes) when the object being
// written was already written by a concurrent transaction — either
// one still active, or one that committed after this transaction
// began. The losing transaction should roll back and retry.
var ErrWriteConflict = engine.ErrWriteConflict

// ErrTxnDone is returned by operations on a committed or rolled-back
// transaction.
var ErrTxnDone = engine.ErrTxnDone

// ErrTxnDDL is returned for DDL statements inside a transaction;
// schema changes are auto-commit only.
var ErrTxnDDL = engine.ErrTxnDDL

// ErrReadOnlyReplica is returned for writes, DDL and transactions on a
// database opened as a read replica (aimserver -follow); it round-trips
// the network protocol, so errors.Is works on aimnet client errors too.
var ErrReadOnlyReplica = engine.ErrReadOnlyReplica

// Begin starts a transaction at the current instant.
func (db *DB) Begin() (*Tx, error) {
	tx, err := db.eng.Begin()
	if err != nil {
		return nil, err
	}
	return &Tx{tx: tx}, nil
}

// Exec runs a script of statements inside the transaction. Writes are
// buffered; a failing statement rolls back only its own effects and
// the transaction stays usable.
func (tx *Tx) Exec(script string) ([]Result, error) { return tx.tx.Exec(script) }

// ExecContext is Exec with cancellation.
func (tx *Tx) ExecContext(ctx context.Context, script string) ([]Result, error) {
	return tx.tx.ExecContext(ctx, script)
}

// Query runs one SELECT at the transaction's snapshot, materialized.
func (tx *Tx) Query(q string) (*Table, *TableType, error) { return tx.tx.Query(q) }

// QueryRows runs one SELECT at the transaction's snapshot and returns
// a streaming cursor; the result stays consistent even while other
// transactions commit.
func (tx *Tx) QueryRows(q string) (*Rows, error) { return tx.tx.QueryRows(q) }

// QueryRowsContext is QueryRows with cancellation.
func (tx *Tx) QueryRowsContext(ctx context.Context, q string) (*Rows, error) {
	return tx.tx.QueryRowsContext(ctx, q)
}

// TxStmt is a prepared statement bound to one transaction: the parse
// is reused, reads see the transaction's snapshot plus its own
// buffered writes, and writes join the transaction's buffer.
//
//	stmt, _ := db.Prepare(`UPDATE x IN DEPARTMENTS SET BUDGET = ? WHERE x.DNO = ?`)
//	tx, _ := db.Begin()
//	tx.Stmt(stmt).Exec(500000, 314)
//	tx.Commit()
type TxStmt struct {
	tx *engine.Txn
	ps *engine.PreparedStmt
}

// Stmt binds a prepared statement to the transaction.
func (tx *Tx) Stmt(s *Stmt) *TxStmt { return &TxStmt{tx: tx.tx, ps: s.ps} }

// Exec runs the statement inside the transaction with the given
// arguments.
func (s *TxStmt) Exec(args ...any) (Result, error) {
	return s.ExecContext(context.Background(), args...)
}

// ExecContext is Exec with cancellation.
func (s *TxStmt) ExecContext(ctx context.Context, args ...any) (Result, error) {
	vals, err := coerceArgs(args)
	if err != nil {
		return Result{}, err
	}
	return s.tx.ExecPrepared(ctx, s.ps, vals...)
}

// Query runs the prepared SELECT at the transaction's snapshot,
// materialized.
func (s *TxStmt) Query(args ...any) (*Table, *TableType, error) {
	res, err := s.Exec(args...)
	if err != nil {
		return nil, nil, err
	}
	return res.Table, res.Type, nil
}

// QueryRows runs the prepared SELECT at the transaction's snapshot
// and returns a streaming cursor.
func (s *TxStmt) QueryRows(args ...any) (*Rows, error) {
	return s.QueryRowsContext(context.Background(), args...)
}

// QueryRowsContext is QueryRows with cancellation.
func (s *TxStmt) QueryRowsContext(ctx context.Context, args ...any) (*Rows, error) {
	vals, err := coerceArgs(args)
	if err != nil {
		return nil, err
	}
	return s.tx.QueryRowsPrepared(ctx, s.ps, vals...)
}

// Commit atomically applies the transaction's writes and makes them
// durable; all its versions carry one commit timestamp, so other
// snapshots see either none or all of them.
func (tx *Tx) Commit() error { return tx.tx.Commit() }

// Rollback discards the transaction. After Commit it returns
// ErrTxnDone (harmless in the usual defer tx.Rollback() pattern).
func (tx *Tx) Rollback() error { return tx.tx.Rollback() }

// SnapshotTS returns the transaction's begin timestamp (usable in
// ASOF clauses to reproduce the snapshot after commit).
func (tx *Tx) SnapshotTS() int64 { return tx.tx.SnapshotTS() }

// StmtStats are the physical access counters of one statement: buffer
// pool activity and subtuples decoded (see Stats).
type StmtStats = engine.StmtStats

// Stats bundles the cumulative buffer-pool counters with the counters
// of the most recently completed statement. For queries consumed
// through a Rows cursor the statement completes — and LastStatement
// is recorded — at Close.
type Stats struct {
	// Buffer is the cumulative buffer pool activity since Open (or the
	// last ResetBufferStats).
	Buffer buffer.Stats
	// LastStatement is the access counters of the most recently
	// completed statement.
	LastStatement StmtStats
	// WAL is the durability subsystem's counters: retained segments,
	// checkpoint horizon, replay-tail bounds, fsyncs, checkpoints.
	// Zero when logging is off.
	WAL WALStats
	// PlanCache is the shared statement-plan cache's counters: hits
	// (executions that skipped parse and bind entirely), misses
	// (fresh binds) and invalidations (plans discarded because DDL or
	// an index change moved the catalog epoch).
	PlanCache PlanCacheStats
	// Net is the network front end's counters (sessions, statements in
	// flight, queue depth, sheds, drains, bytes) when an aimserver is
	// attached to this database; all zero otherwise. The same counters
	// answer the protocol's INFO request.
	Net NetStats
	// Repl is the replication role and progress: on a primary, follower
	// counts and the shipped horizon; on a replica, the applied/visible
	// horizon, its lag behind the primary in WAL bytes, and the
	// reconnect/snapshot history. Role is "none" when the database has
	// never shipped or followed.
	Repl ReplStats
}

// NetStats are the network front end's counters (see Stats.Net).
type NetStats = engine.NetStats

// PlanCacheStats are the plan cache counters (see Stats.PlanCache).
type PlanCacheStats = engine.PlanCacheStats

// WALStats are the write-ahead log and checkpoint counters.
type WALStats = engine.WALStats

// ReplStats are the replication counters (see Stats.Repl).
type ReplStats = engine.ReplStats

// Stats returns the database access statistics.
func (db *DB) Stats() Stats {
	return Stats{
		Buffer:        db.eng.Pool().Stats(),
		LastStatement: db.eng.LastStmtStats(),
		WAL:           db.eng.WALStats(),
		PlanCache:     db.eng.PlanCacheStats(),
		Net:           db.eng.NetStats(),
		Repl:          db.eng.ReplStats(),
	}
}

// Checkpoint writes a fuzzy checkpoint: all dirty pages are flushed
// (WAL first, per the write-ahead rule), a checkpoint record marking
// the new replay horizon is forced to the log, and WAL segments wholly
// below the horizon are recycled. After it returns, reopening the
// database replays only the log tail written since this call. Without
// a WAL it degrades to a plain flush of the dirty pages.
func (db *DB) Checkpoint() error { return db.eng.WALCheckpoint() }

// Now returns the database clock's current timestamp, usable in ASOF
// clauses.
func (db *DB) Now() int64 { return db.eng.Now() }

// Engine exposes the underlying engine for advanced use (experiment
// harnesses, storage statistics, tuple names).
func (db *DB) Engine() *engine.DB { return db.eng }

// BufferStats returns the buffer pool access counters (logical
// fetches, hits, physical reads/writes).
func (db *DB) BufferStats() buffer.Stats { return db.eng.Pool().Stats() }

// ResetBufferStats zeroes the buffer pool counters.
func (db *DB) ResetBufferStats() { db.eng.Pool().ResetStats() }

// ObjectStats returns the physical composition (MD subtuples, data
// subtuples, pointers, pages) of one complex object of an NF² table.
func (db *DB) ObjectStats(table string, ref ObjectRef) (ObjectStatsT, error) {
	m, ok := db.eng.Manager(table)
	if !ok {
		return ObjectStatsT{}, errNoNF2(table)
	}
	t, _ := db.eng.Catalog().Table(table)
	return m.ObjectStats(t.Type, ref)
}

// ObjectRef identifies a complex object (the TID of its root MD
// subtuple).
type ObjectRef = object.Ref

// ObjectStatsT is the physical composition of a complex object.
type ObjectStatsT = object.Stats

// Refs lists the object references of a table.
func (db *DB) Refs(table string) ([]ObjectRef, error) { return db.eng.Refs(table) }

// TNames returns a tuple-name registry for an NF² table (§4.3 of the
// paper): system generated keys for objects, subobjects and
// subtables that applications can hold for later direct access.
func (db *DB) TNames(table string) (*tname.Registry, error) {
	m, ok := db.eng.Manager(table)
	if !ok {
		return nil, errNoNF2(table)
	}
	t, _ := db.eng.Catalog().Table(table)
	return tname.NewRegistry(m, t.Type), nil
}

// Checkout exports a complex object at page level (§4.1): the
// returned snapshot can be shipped to a workstation and imported into
// any database with CheckIn.
func (db *DB) Checkout(table string, ref ObjectRef) ([]byte, error) {
	m, ok := db.eng.Manager(table)
	if !ok {
		return nil, errNoNF2(table)
	}
	snap, err := m.Export(ref)
	if err != nil {
		return nil, err
	}
	return object.EncodeSnapshot(snap), nil
}

// CheckIn imports a checked-out object into an NF² table of the same
// schema and layout as one committed write, returning its new
// reference.
func (db *DB) CheckIn(table string, snapshot []byte) (ObjectRef, error) {
	if _, ok := db.eng.Manager(table); !ok {
		return ObjectRef{}, errNoNF2(table)
	}
	snap, err := object.DecodeSnapshot(snapshot)
	if err != nil {
		return ObjectRef{}, err
	}
	return db.eng.CheckIn(table, snap)
}

// Format renders a table in the paper's nested layout (relations in
// { }, lists in < >).
func Format(name string, tt *TableType, tbl *Table) string {
	return model.FormatTable(name, tt, tbl)
}

type nf2Err string

func (e nf2Err) Error() string { return "aim: table " + string(e) + " is not a stored NF² table" }

func errNoNF2(table string) error { return nf2Err(table) }

// FromEngine wraps an already-open engine handle in the public
// facade; used by tools that assemble databases through internal
// helpers (e.g. the fixture loader of the experiment harness).
func FromEngine(eng *engine.DB) *DB { return &DB{eng: eng} }

// Step addresses one navigation move inside a complex object: the
// table-valued attribute index and the member position.
type Step = object.Step

// TName is a tuple name (§4.3): a system generated, stable reference
// to an object, subobject or subtable.
type TName = tname.Name

// DecodeTName parses a tuple-name token produced by TName.Encode.
func DecodeTName(token string) (TName, error) { return tname.Decode(token) }

// --- corruption detection and containment --------------------------------

// ErrCorrupt is the shared corruption sentinel: every error caused by
// a damaged durable structure — failed page checksum, undecodable
// subtuple, broken Mini-Directory — wraps it, so errors.Is(err,
// ErrCorrupt) classifies faults across all storage layers.
var ErrCorrupt = dberr.ErrCorrupt

// ErrObjectQuarantined is the sentinel matched by errors.Is when a
// statement touches a quarantined object. The concrete error is a
// *QuarantineError naming the table and object.
var ErrObjectQuarantined = engine.ErrQuarantined

// QuarantineError reports the quarantined object a statement touched.
type QuarantineError = engine.QuarantineError

// Quarantined lists the currently quarantined objects.
func (db *DB) Quarantined() []*QuarantineError { return db.eng.Quarantined() }

// DegradedIndexes lists the out-of-service indexes (name -> reason).
// A degraded index is invisible to the planner; queries fall back to
// base-table scans until aimdoctor rebuilds it.
func (db *DB) DegradedIndexes() map[string]string { return db.eng.DegradedIndexes() }

// ScrubReport is the machine-readable result of a scrub run.
type ScrubReport = scrub.Report

// ScrubOptions configures a scrub run.
type ScrubOptions = scrub.Options

// Scrub audits the database online: every durable page, object
// directory, Mini-Directory tree, flat tuple, and index is
// cross-checked and each fault reported as a typed finding. With
// Quarantine set, broken objects are quarantined and diverging
// indexes taken out of service.
func (db *DB) Scrub(opts ScrubOptions) (*ScrubReport, error) { return scrub.Run(db.eng, opts) }
