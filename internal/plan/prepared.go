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
	// SQL is the normalized statement text — the plan-cache key.
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
	// Access holds the access-path choices per top-level FROM item.
	Access map[int][]AccessChoice
	// Desc is the bind-time plan description, rendered for EXPLAIN
	// without executing.
	Desc []string
}

// Prepare runs the bind/plan phase: it binds the statement's block tree
// (exec.Executor.Bind) and, for the FROM list of a select, an UPDATE, a
// DELETE or an INSERT INTO a subtable, records access-path choices (none
// when ex has no planner). For other statements the kept AST is the
// whole bind product. norm is the statement's normalized text
// (sql.Normalize — computed once by the caller, who also uses it as the
// cache key); epoch is the catalog epoch the caller observed while
// holding the catalog stable.
func Prepare(st sql.Stmt, norm string, ex *exec.Executor, epoch uint64) (*Prepared, error) {
	prepares.Add(1)
	p := &Prepared{
		SQL:       norm,
		Text:      st.Text,
		Stmt:      st.Statement,
		NumParams: st.Params,
		Epoch:     epoch,
	}
	planned := st.Statement // the statement whose FROM list is planned
	if e, ok := planned.(*sql.Explain); ok {
		planned = e.Sel
	}
	var err error
	if p.Block, err = ex.Bind(planned); err != nil {
		return nil, err
	}
	if from, where, ok := exec.FromList(planned); ok {
		if ex.Plan != nil {
			p.Access = chooseAccess(from, where, ex.RT)
		}
		p.Desc = p.Block.Describe(ex.RT, from, func(i int) string {
			parts := make([]string, len(p.Access[i]))
			for j, c := range p.Access[i] {
				parts[j] = c.String()
			}
			return strings.Join(parts, " ∩ ")
		})
	}
	return p, nil
}

// Candidates evaluates the plan's access choices against the live
// runtime and the bound parameters, yielding the candidate root sets
// for this execution. Indexes are re-resolved by name, so a choice
// whose index has since been dropped or degraded quietly widens to a
// full scan — a stale plan can never touch a quarantined index.
func (p *Prepared) Candidates(rt exec.Runtime, params []model.Value) map[int]*exec.Candidates {
	return evalAccess(p.Access, rt, params)
}

// Describe renders the bind-time plan (access choices and fetch sets
// per FROM item) without executing anything. Statements without a FROM
// list report a single generic line.
func (p *Prepared) Describe() []string {
	if p.Desc == nil {
		return []string{fmt.Sprintf("%T: direct execution (no access-path plan)", p.Stmt)}
	}
	return p.Desc
}
