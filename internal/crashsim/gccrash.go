package crashsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/simkit"
)

// gcRowsPerWriter is how many inserts each concurrent committer
// attempts in the group-commit crash harness.
const gcRowsPerWriter = 20

// gcSetup creates the table the concurrent committers write.
const gcSetup = `CREATE TABLE GC (ID INT, W INT)`

// gcConfig rolls tiny segments, like Checkpointing, and lets the
// group-commit leader dally briefly so concurrent commits batch onto
// shared fsyncs.
var gcConfig = Config{SegmentBytes: Checkpointing.SegmentBytes, GroupCommitWait: 100 * time.Microsecond}

// RunGroupCommitCrash crashes a run with several concurrent
// auto-commit writers batching onto shared fsyncs, then verifies the
// fundamental acknowledgement contract across recovery: every insert
// whose Exec returned success is present, every present row was
// actually attempted, and no row is duplicated. (No statement-order
// oracle exists — the interleaving is scheduler-dependent — so the
// check is exactly the contract group commit must not weaken.) Budget
// < 0 runs crash-free, where every insert must be acknowledged; it is
// the matrix's probe. The returned count is the mutating I/O
// operations of the faulted session.
func RunGroupCommitCrash(seed, budget int64, writers int) (int64, error) {
	var clk atomic.Int64
	clock := func() int64 { return clk.Add(1) }
	d := NewDisk()
	s := d.Open(seed*53+budget, budget)
	acked, err := runGCSession(s, clock, writers)
	if err != nil && !s.Crashed() {
		return 0, fmt.Errorf("crashsim: group-commit run failed without a crash: %w", err)
	}
	if want := writers * gcRowsPerWriter; budget < 0 && len(acked) != want {
		return 0, fmt.Errorf("crashsim: crash-free group-commit run acked %d/%d inserts", len(acked), want)
	}

	rs := d.Open(seed*71+budget+5, -1)
	eng2, err := gcConfig.open(rs, clock, 64)
	if err != nil {
		return 0, fmt.Errorf("crashsim: group-commit recovery failed: %w", err)
	}
	defer eng2.Close()
	if err := CheckInvariants(eng2); err != nil {
		return 0, err
	}
	present := make(map[int64]int)
	if t, ok := eng2.Catalog().Table("GC"); ok {
		rows, err := TableRows(eng2, t, 0)
		if err != nil {
			return 0, err
		}
		for _, tup := range rows.Tuples {
			id, ok := tup[0].(model.Int)
			if !ok {
				return 0, fmt.Errorf("crashsim: GC row with non-int ID %v", tup[0])
			}
			present[int64(id)]++
		}
	}
	for id, n := range present {
		if n != 1 {
			return 0, fmt.Errorf("crashsim: GC row %d present %d times after recovery", id, n)
		}
		w, j := id/1000, id%1000
		if w < 0 || w >= int64(writers) || j >= gcRowsPerWriter {
			return 0, fmt.Errorf("crashsim: GC row %d was never attempted", id)
		}
	}
	for id := range acked {
		if present[id] == 0 {
			return 0, fmt.Errorf("crashsim: insert of GC row %d was acknowledged but is gone after recovery", id)
		}
	}
	return s.Ops(simkit.Mutating), nil
}

// runGCSession runs the concurrent-committer workload on one session
// and returns the set of acknowledged row IDs. The returned error is
// the first statement failure (nil when everything committed and the
// engine closed cleanly).
func runGCSession(s *Session, clock func() int64, writers int) (map[int64]bool, error) {
	acked := make(map[int64]bool)
	eng, err := gcConfig.open(s, clock, 8)
	if err != nil {
		return acked, err
	}
	if _, err := eng.Exec(gcSetup); err != nil {
		return acked, err
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < gcRowsPerWriter; j++ {
				id := int64(w*1000 + j)
				_, err := eng.Exec(fmt.Sprintf(`INSERT INTO GC VALUES (%d, %d)`, id, w))
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				mu.Lock()
				acked[id] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return acked, firstErr
	}
	if err := eng.Close(); err != nil {
		return acked, err
	}
	return acked, nil
}
