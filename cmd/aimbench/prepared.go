package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/testdata"
)

// Prepared-statement mode (-prepared): measures what the parse →
// bind/plan → execute split buys on repeated parameterized point
// queries. Each rung of a 1, N/2, N client ladder runs the same
// indexed point lookup two ways against one shared in-memory office
// database: unprepared (the literal is formatted into fresh SQL text
// every iteration, so every execution pays lexer, parser, inference,
// path derivation and planner) and prepared (one PreparedStmt per
// client, re-executed with `?` arguments, so re-execution pays none
// of those). The report (BENCH_8.json) records queries/second and
// latency per rung and mode, the prepared-vs-unprepared speedup, and
// the parse/bind counter deltas that prove the prepared side did zero
// per-execution front-end work.

// preparedPointQuery is the parameterized point lookup; the literal
// form substitutes the department number for the placeholder.
const preparedPointQuery = `SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = ?`

// preparedMode is one (mode, clients) cell of the ladder.
type preparedMode struct {
	Mode    string  `json:"mode"` // "unprepared" | "prepared"
	Clients int     `json:"clients"`
	Queries int     `json:"queries"`
	QPS     float64 `json:"qps"`
	P50us   float64 `json:"p50_us"`
	P99us   float64 `json:"p99_us"`
	// Front-end work observed during the rung (process-wide counter
	// deltas): statements parsed and planner runs. The prepared rung's
	// deltas stay at the one-time Prepare cost per client; the
	// unprepared rung's grow with every query.
	Parsed   uint64 `json:"parsed"`
	Prepares uint64 `json:"bind_runs"`
	Chooses  uint64 `json:"planner_runs"`
}

// preparedRung pairs the two modes at one client count.
type preparedRung struct {
	Clients    int          `json:"clients"`
	Unprepared preparedMode `json:"unprepared"`
	Prepared   preparedMode `json:"prepared"`
	Speedup    float64      `json:"speedup_prepared_vs_unprepared"`
}

// preparedReport is the JSON artifact of one prepared-ladder run.
type preparedReport struct {
	Bench       string                `json:"bench"`
	Workload    string                `json:"workload"`
	DurationSec float64               `json:"duration_s"`
	Scale       int                   `json:"scale"`
	Rungs       []preparedRung        `json:"rungs"`
	PlanCache   engine.PlanCacheStats `json:"plan_cache"`
}

// runPreparedLadder measures the prepared-vs-unprepared ladder and
// writes the JSON report to outPath ("" prints to stdout only).
func runPreparedLadder(maxClients, scale int, duration time.Duration, outPath string, w io.Writer) error {
	if maxClients < 1 {
		return fmt.Errorf("prepared: -prepared must be >= 1, got %d", maxClients)
	}
	ladder := []int{1}
	if half := maxClients / 2; half > 1 {
		ladder = append(ladder, half)
	}
	if maxClients > 1 {
		ladder = append(ladder, maxClients)
	}

	// A generated office database with an index on the point-query
	// attribute: execution itself is one index lookup, so the
	// per-statement front-end cost dominates the unprepared side.
	cfg := testdata.GenConfig{
		Departments: 200 * scale, ProjsPerDept: 4, MembersPerProj: 6,
		EquipPerDept: 2, Seed: 42,
	}
	db, err := core.BenchOffice(cfg, engine.Options{})
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.CreateIndex("DEPT_DNO", "DEPARTMENTS", []string{"DNO"}, "HIERARCHICAL"); err != nil {
		return err
	}

	rep := preparedReport{
		Bench:       "BENCH_8 prepared vs unprepared point queries",
		Workload:    preparedPointQuery,
		DurationSec: duration.Seconds(),
		Scale:       scale,
	}
	fmt.Fprintf(w, "\n================ prepared vs unprepared point queries (%s per cell) ================\n\n", duration)
	fmt.Fprintf(w, "data: %d departments, indexed on DNO; query: %s\n\n", cfg.Departments, preparedPointQuery)
	fmt.Fprintf(w, "%8s %-11s %10s %12s %10s %10s %10s %10s\n",
		"clients", "mode", "queries", "qps", "p50 us", "p99 us", "parsed", "planned")
	for _, clients := range ladder {
		rung := preparedRung{Clients: clients}
		for _, mode := range []string{"unprepared", "prepared"} {
			pt, err := measurePrepared(db, mode, clients, cfg.Departments, duration)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%8d %-11s %10d %12.1f %10.1f %10.1f %10d %10d\n",
				pt.Clients, pt.Mode, pt.Queries, pt.QPS, pt.P50us, pt.P99us, pt.Parsed, pt.Chooses)
			if mode == "prepared" {
				rung.Prepared = pt
			} else {
				rung.Unprepared = pt
			}
		}
		if rung.Unprepared.QPS > 0 {
			rung.Speedup = rung.Prepared.QPS / rung.Unprepared.QPS
		}
		fmt.Fprintf(w, "%8s prepared speedup at %d client(s): %.2fx\n", "", clients, rung.Speedup)
		rep.Rungs = append(rep.Rungs, rung)
	}
	rep.PlanCache = db.PlanCacheStats()
	fmt.Fprintf(w, "\nplan cache: %d hits, %d misses, %d invalidations, %d entries\n",
		rep.PlanCache.Hits, rep.PlanCache.Misses, rep.PlanCache.Invalidations, rep.PlanCache.Entries)

	if outPath != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("prepared: writing report: %w", err)
		}
		fmt.Fprintf(w, "report written to %s\n", outPath)
	}
	return nil
}

// measurePrepared runs one (mode, clients) cell: each client fires
// point lookups at random department numbers for the duration,
// materializing every result.
func measurePrepared(db *engine.DB, mode string, clients, departments int, duration time.Duration) (preparedMode, error) {
	parsed0 := sql.StatementsParsed()
	prepares0 := plan.PrepareCount()
	chooses0 := plan.ChooseCount()

	deadline := time.Now().Add(duration)
	lats := make([][]time.Duration, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			var stmt *engine.PreparedStmt
			if mode == "prepared" {
				var err error
				stmt, err = db.Prepare(preparedPointQuery)
				if err != nil {
					errs[c] = err
					return
				}
			}
			for time.Now().Before(deadline) {
				dno := int64(100 + rng.Intn(departments))
				start := time.Now()
				var err error
				if stmt != nil {
					_, _, err = stmt.Query(model.Int(dno))
				} else {
					q := fmt.Sprintf("SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = %d", dno)
					_, _, err = db.Query(q)
				}
				if err != nil {
					errs[c] = fmt.Errorf("client %d (%s): %v", c, mode, err)
					return
				}
				lats[c] = append(lats[c], time.Since(start))
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return preparedMode{}, err
		}
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return preparedMode{
		Mode:     mode,
		Clients:  clients,
		Queries:  len(all),
		QPS:      float64(len(all)) / duration.Seconds(),
		P50us:    percentileUs(all, 0.50),
		P99us:    percentileUs(all, 0.99),
		Parsed:   sql.StatementsParsed() - parsed0,
		Prepares: plan.PrepareCount() - prepares0,
		Chooses:  plan.ChooseCount() - chooses0,
	}, nil
}

func percentileUs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Microsecond)
}
