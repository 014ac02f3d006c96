package plan

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/object"
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
// compute per run — for a select the result schema, and for the FROM
// list of a select or a DML statement the required path sets and the
// access-path choices. A Prepared is self-contained and safe for
// concurrent use: executing one reads these fields but never mutates
// them, and every data-dependent decision (resolving `?` operands,
// index lookups) happens at execute time against the live runtime of
// the scope it runs in.
type Prepared struct {
	// SQL is the normalized statement text — the plan-cache key.
	SQL string
	// Text is the original statement text, kept for error tagging.
	Text string
	// Stmt is the parsed statement; Sel aliases it for selects.
	Stmt sql.Statement
	Sel  *sql.Select
	// NumParams is the number of `?` placeholders.
	NumParams int
	// Epoch is the catalog epoch the plan was bound under. A cache
	// holding this Prepared compares it against the live epoch and
	// re-binds on mismatch (DDL, index create/drop, quarantine).
	Epoch uint64

	// ResultType is the result schema of a select (nil otherwise).
	ResultType *model.TableType
	// Bind products of the FROM list of a select or a DML statement
	// (nil/empty for statements without one).
	Paths  map[int]*object.PathSet
	Access map[int][]AccessChoice
	// Desc is the bind-time plan description per FROM item, rendered
	// for EXPLAIN without executing.
	Desc []string
}

// Prepare runs the bind/plan phase: for selects it infers the result
// schema; for the FROM list of a select, an UPDATE, a DELETE or an
// INSERT INTO a subtable it derives the required path sets and records
// access-path choices (none when ex has no planner). For other
// statements the kept AST is the whole bind product. norm is the
// statement's normalized text (sql.Normalize — computed once by the
// caller, who also uses it as the cache key); epoch is the catalog
// epoch the caller observed while holding the catalog stable.
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
	if sel, ok := planned.(*sql.Select); ok {
		tt, err := ex.InferSelect(sel)
		if err != nil {
			return nil, err
		}
		p.Sel = sel
		p.ResultType = tt
	}
	if from, where, ok := exec.FromList(planned); ok {
		p.Paths = ex.DerivePaths(planned)
		if ex.Plan != nil {
			p.Access = chooseAccess(from, where, ex.RT)
		}
		p.Desc = describeAccess(ex, from, p.Access, p.Paths)
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

// describeAccess is the bind-time analogue of exec's plan
// description: it renders the chosen access paths, fetch sets and
// pre-tests without candidate counts (those exist only after
// evaluation).
func describeAccess(ex *exec.Executor, from []sql.FromItem, access map[int][]AccessChoice, paths map[int]*object.PathSet) []string {
	out := make([]string, len(from))
	for i, fi := range from {
		source := fi.Source.Table
		if source == "" {
			out[i] = fmt.Sprintf("%s IN %s: iterate subtable of outer binding", fi.Var, fi.Source.Path)
			continue
		}
		descr := "full table scan"
		if choices := access[i]; len(choices) > 0 {
			parts := make([]string, len(choices))
			for j, c := range choices {
				parts[j] = c.String()
			}
			descr = strings.Join(parts, " ∩ ")
		}
		fetch := "*"
		if t, ok := ex.RT.Table(source); ok && paths != nil {
			fetch = paths[i].Describe(t.Type)
		}
		out[i] = fmt.Sprintf("%s IN %s: %s, fetch %s, %s", fi.Var, source, descr, fetch, paths[i].DescribeTest())
	}
	return out
}
