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

// gcConfig rolls tiny segments, like Checkpointing.
var gcConfig = Config{SegmentBytes: Checkpointing.SegmentBytes}

// gcSyncDelay models a slow device under the concurrent committers:
// each log sync takes this long, so commits appended meanwhile batch
// onto the next shared fsync and the crash matrix lands inside it.
const gcSyncDelay = 100 * time.Microsecond

// RunGroupCommitCrash crashes a run with several concurrent
// auto-commit writers batching onto shared fsyncs, then verifies the
// fundamental acknowledgement contract across recovery: every insert
// whose Exec returned success is present, every present row was
// actually attempted, and no row is duplicated. (No statement-order
// oracle exists — the interleaving is scheduler-dependent — so the
// check is exactly the contract group commit must not weaken.) Budget
// < 0 runs crash-free, where every insert must be acknowledged on
// fewer log syncs than inserts; it is the matrix's probe. The returned
// count is the mutating I/O operations of the faulted session.
func RunGroupCommitCrash(seed, budget int64, writers int) (int64, error) {
	var clk atomic.Int64
	clock := func() int64 { return clk.Add(1) }
	d := NewDisk()
	s := d.Open(sessionSeed(seed, budget, 0), budget)
	s.syncDelay = gcSyncDelay
	acked, syncs, err := runGCSession(s, clock, writers)
	if err != nil && !s.Crashed() {
		return 0, fmt.Errorf("crashsim: group-commit run failed without a crash: %w", err)
	}
	if want := writers * gcRowsPerWriter; budget < 0 && len(acked) != want {
		return 0, fmt.Errorf("crashsim: crash-free group-commit run acked %d/%d inserts", len(acked), want)
	}
	if budget < 0 && syncs >= uint64(len(acked)) {
		return 0, fmt.Errorf("crashsim: %d log syncs for %d acknowledged inserts: commits did not batch", syncs, len(acked))
	}

	eng2, err := recoverAudited(gcConfig, d, sessionSeed(seed, budget, 2), clock)
	if err != nil {
		return 0, err
	}
	defer eng2.Close()
	present := make(map[int64]bool)
	if t, ok := eng2.Catalog().Table("GC"); ok {
		rows, err := TableRows(eng2, t, 0)
		if err != nil {
			return 0, err
		}
		for _, tup := range rows.Tuples {
			id, ok := tup[0].(model.Int)
			if w, j := int64(id)/1000, int64(id)%1000; !ok || w < 0 || w >= int64(writers) || j >= gcRowsPerWriter {
				return 0, fmt.Errorf("crashsim: GC row %v was never attempted", tup[0])
			}
			if present[int64(id)] {
				return 0, fmt.Errorf("crashsim: GC row %d present twice after recovery", id)
			}
			present[int64(id)] = true
		}
	}
	for id := range acked {
		if !present[id] {
			return 0, fmt.Errorf("crashsim: insert of GC row %d was acknowledged but is gone after recovery", id)
		}
	}
	return s.Ops(simkit.Mutating), nil
}

// runGCSession creates table GC on the session and lets the writers
// insert into it concurrently. It returns the acknowledged row IDs,
// the log syncs they took and the first failure (nil when everything
// committed and the engine closed cleanly).
func runGCSession(s *Session, clock func() int64, writers int) (map[int64]bool, uint64, error) {
	acked := make(map[int64]bool)
	eng, err := gcConfig.Open(s, clock, 8)
	if err != nil {
		return acked, 0, err
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	if _, err = eng.Exec(`CREATE TABLE GC (ID INT, W INT)`); err == nil {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := 0; j < gcRowsPerWriter; j++ {
					id := int64(w*1000 + j)
					_, ierr := eng.Exec(fmt.Sprintf(`INSERT INTO GC VALUES (%d, %d)`, id, w))
					mu.Lock()
					if ierr == nil {
						acked[id] = true
					} else if err == nil {
						err = ierr
					}
					mu.Unlock()
					if ierr != nil {
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	syncs := eng.WALStats().Syncs
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	return acked, syncs, err
}
