package plan

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/sql"
)

// prepares counts bind-phase runs (Prepare calls). Together with
// ChooseCount it backs the "zero planner work on re-execution"
// acceptance tests.
var prepares atomic.Uint64

// PrepareCount returns the process-wide count of bind-phase runs.
func PrepareCount() uint64 { return prepares.Load() }

// Prepared is the immutable product of the bind/plan phase for one
// statement: the parsed AST plus everything execution would otherwise
// compute per run — the block tree (exec.Block: for a select every
// block's result schema, path sets and quantifier fetch sets; for the
// FROM list of a DML statement its path sets) and the access-path
// choices of the top-level FROM list. A Prepared is self-contained and
// safe for concurrent use: executing one reads these fields but never
// mutates them, and every data-dependent decision (resolving `?`
// operands, index lookups) happens at execute time against the live
// runtime of the scope it runs in.
type Prepared struct {
	// SQL is the normalized statement text — the plan-cache key (empty
	// for a statement bound by Bind, which is never cached).
	SQL string
	// Text is the original statement text, kept for error tagging.
	Text string
	// Stmt is the parsed statement.
	Stmt sql.Statement
	// NumParams is the number of `?` placeholders.
	NumParams int
	// Epoch is the catalog epoch the plan was bound under. A cache
	// holding this Prepared compares it against the live epoch and
	// re-binds on mismatch (DDL, index create/drop, quarantine).
	Epoch uint64

	// Block is the bound block tree of the statement that is planned — a
	// SELECT, the SELECT an EXPLAIN names, or a DML statement — never
	// nil. Embedded, so that its select (Sel), result schema (Type) and
	// root path sets (Paths) read as fields of the plan.
	*exec.Block
	// Access holds the access-path choices per top-level FROM item,
	// indexed by item; nil when no item has any.
	Access []AccessList
}

// Prepare runs the bind/plan phase for the plan cache: it binds the
// statement's block tree (exec.Executor.Bind) and, for the FROM list of a
// select, an UPDATE, a DELETE or an INSERT INTO a subtable, records
// access-path choices. For other statements the kept AST is the whole
// bind product. norm is the statement's normalized text (sql.Normalize —
// computed once by the caller, who also uses it as the cache key); epoch
// is the catalog epoch the caller observed while holding the catalog
// stable.
func Prepare(st sql.Stmt, norm string, ex *exec.Executor, epoch uint64) (*Prepared, error) {
	prepares.Add(1)
	p, _, err := bind(st, ex)
	if err != nil {
		return nil, err
	}
	p.SQL, p.Epoch = norm, epoch
	return &p, nil
}

// Bind is Prepare for a statement that runs once: the same bind and the
// same access choices, returned by value so that an ad hoc statement's
// plan need not live on the heap. It counts one planning run
// (ChooseCount) when the statement has a FROM list.
func Bind(st sql.Stmt, ex *exec.Executor) (Prepared, error) {
	p, planned, err := bind(st, ex)
	if err == nil && planned {
		chooses.Add(1)
	}
	return p, err
}

// bind is the one bind/plan phase behind Prepare and Bind; planned
// reports whether the statement has a FROM list.
func bind(st sql.Stmt, ex *exec.Executor) (p Prepared, planned bool, err error) {
	p = Prepared{Text: st.Text, Stmt: st.Statement, NumParams: st.Params}
	target := plannedStmt(st.Statement)
	if p.Block, err = ex.Bind(target); err != nil {
		return Prepared{}, false, err
	}
	from, where, planned := exec.FromList(target)
	if planned {
		p.Access = chooseAccess(from, where, ex.RT)
	}
	return p, planned, nil
}

// plannedStmt is the statement whose FROM list a plan covers: the
// SELECT an EXPLAIN names, else the statement itself.
func plannedStmt(st sql.Statement) sql.Statement {
	if e, ok := st.(*sql.Explain); ok {
		return e.Sel
	}
	return st
}

// Candidates evaluates the plan's access choices against the live
// runtime and the bound parameters, yielding the candidate root sets
// for this execution, indexed by FROM item. Indexes are re-resolved by
// name, so a choice whose index has since been dropped or degraded
// quietly widens to a full scan — a stale plan can never touch a
// quarantined index.
func (p *Prepared) Candidates(rt exec.Runtime, params []model.Value) []exec.Candidates {
	return evalAccess(p.Access, rt, params)
}

// Describe renders the bind-time plan (access choices and fetch sets
// per FROM item) without executing anything, resolving table types
// through rt. Statements without a FROM list report a single generic
// line. It renders on every call: only an explain asks.
func (p *Prepared) Describe(rt exec.Runtime) []string {
	var lines []string
	if from, _, ok := exec.FromList(plannedStmt(p.Stmt)); ok {
		lines = p.Block.Describe(rt, from, func(i int) string {
			if i >= len(p.Access) {
				return ""
			}
			parts := make([]string, len(p.Access[i]))
			for j, c := range p.Access[i] {
				parts[j] = c.String()
			}
			return strings.Join(parts, " ∩ ")
		})
	}
	if lines == nil {
		return []string{fmt.Sprintf("%T: direct execution (no access-path plan)", p.Stmt)}
	}
	return lines
}
