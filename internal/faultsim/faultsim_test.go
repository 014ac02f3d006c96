package faultsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/crashsim"
	"repro/internal/simkit"
)

// stmtCount is the length of the seeded DML sequence, the same as the
// crash matrix's.
const stmtCount = 40

// burstAt runs w with a burst of n data-path operations at position at
// and no crash budget.
func burstAt(w *crashsim.Workload, at, n int64, transient bool) error {
	c := crashsim.Plain
	c.Burst = simkit.Burst{At: at, N: n, Transient: transient, Mask: simkit.DataPath}
	_, err := crashsim.RunCrash(c, w, -1, -1)
	return err
}

// probe runs w fault-free and returns its data-path operations, the
// range a matrix sweeps burst windows across.
func probe(w *crashsim.Workload) (int64, error) {
	ops, err := crashsim.RunCrash(crashsim.Plain, w, -1, -1)
	return ops.DataPath, err
}

// TestSoftChaosMatrix sweeps seeded fault windows across the whole
// workload: for each workload seed a run with no window measures the
// total number of data-path I/O operations, then arms bursts at
// operations striding that range — absorbed transient blips,
// statement-killing transient storms, and persistent failures —
// verifying containment against the oracle after every abort and
// finishing each run with a power cut plus full recovery audit.
func TestSoftChaosMatrix(t *testing.T) {
	iterations := 160
	if testing.Short() {
		iterations = 24
	}
	shapes := []struct {
		burst     int64
		transient bool
	}{
		{1, true}, {4, true}, {1, false}, {2, true},
		{5, true}, {1, false}, {7, true}, {3, true},
	}
	var total int64
	var w *crashsim.Workload
	for i := 0; i < iterations; i++ {
		wseed := int64(1 + i/8) // fresh workload every 8 fault points
		if w == nil || w.Seed != wseed {
			w = crashsim.NewWorkload(wseed, stmtCount)
			var err error
			total, err = probe(w)
			if err != nil {
				t.Fatalf("workload %d probe: %v", wseed, err)
			}
			if total < 20 {
				t.Fatalf("workload %d issues only %d data-path ops; harness miswired", wseed, total)
			}
		}
		at := 1 + (int64(i)*2654435761)%total
		sh := shapes[i%len(shapes)]
		if err := burstAt(w, at, sh.burst, sh.transient); err != nil {
			t.Fatalf("workload %d at %d/%d burst %d transient %v: %v",
				wseed, at, total, sh.burst, sh.transient, err)
		}
	}
}

// Directed single points of the matrix, kept fast so `-short` runs
// still cover each regime: a burst the retries absorb invisibly, a
// persistent fault that must abort exactly one statement, and a
// transient storm long enough to exhaust the retry budget.
func TestDirectedFaults(t *testing.T) {
	w := crashsim.NewWorkload(5, stmtCount)
	total, err := probe(w)
	if err != nil {
		t.Fatal(err)
	}
	at := total / 2
	for _, tc := range []struct {
		burst     int64
		transient bool
	}{
		{2, true},                          // absorbed
		{1, false},                         // persistent, aborts
		{crashsim.MaxTransientBurst, true}, // retry budget exhausted, aborts, rollback drains the tail
	} {
		if err := burstAt(w, at, tc.burst, tc.transient); err != nil {
			t.Fatalf("at %d burst %d transient %v: %v", at, tc.burst, tc.transient, err)
		}
	}
}

// TestConcurrentReadersDuringAbort runs reader goroutines against the
// engine while a writer repeatedly fails mid-INSERT under injected
// write-side faults and rolls back. Built for -race: it checks that
// statement rollback (which swaps the runtime structures under the
// exclusive statement lock) never races with concurrent queries, that
// readers only ever observe committed states (row counts are
// monotonic per observer), and that the final state matches the
// writer's successful inserts exactly.
func TestConcurrentReadersDuringAbort(t *testing.T) {
	var clk atomic.Int64
	clock := func() int64 { return clk.Add(1) }
	s := crashsim.NewDisk().Open(7, -1)
	eng, err := crashsim.Plain.Open(s, clock, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`CREATE TABLE EMP (ENO INT, NAME STRING, SAL INT)`); err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 20; i++ {
		if _, err := eng.Exec(fmt.Sprintf(`INSERT INTO EMP VALUES (%d, 'SEED', %d)`, i, i)); err != nil {
			t.Fatal(err)
		}
		want++
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				tbl, _, err := eng.Query(`SELECT x.ENO FROM x IN EMP`)
				if err != nil {
					// A reader can fail when evicting a dirty page runs
					// into the fault window; that must stay an error,
					// never a crash or a torn result.
					continue
				}
				if tbl.Len() < last {
					t.Errorf("reader saw row count drop %d -> %d: uncommitted or rolled-back state leaked", last, tbl.Len())
					return
				}
				last = tbl.Len()
			}
		}()
	}

	rounds := 60
	if testing.Short() {
		rounds = 20
	}
	aborted := 0
	for i := 0; i < rounds; i++ {
		// Fault only the write side, a few operations ahead, so reader
		// page reads never fault directly. Bursts stay within
		// crashsim.MaxTransientBurst so a failed statement always leaves enough
		// retry headroom for its own rollback, even when readers
		// consume window slots.
		burst, transient := int64(5), true
		if i%3 == 2 {
			burst, transient = 1, false
		}
		s.Arm(simkit.Burst{At: s.Ops(simkit.DataPath) + 2 + int64(i%7), N: burst, Transient: transient, Mask: simkit.Mutating})
		if _, err := eng.Exec(fmt.Sprintf(`INSERT INTO EMP VALUES (%d, 'W', %d)`, 1000+i, i)); err != nil {
			aborted++
		} else {
			want++
		}
	}
	s.Arm(simkit.Burst{})
	close(stop)
	wg.Wait()

	// One more insert after disarming: it heals any sticky log state a
	// racing reader left behind (first attempt may abort for that) and
	// proves the engine is still fully writable.
	if _, err := eng.Exec(`INSERT INTO EMP VALUES (999999, 'POST', 1)`); err != nil {
		if _, err := eng.Exec(`INSERT INTO EMP VALUES (999999, 'POST', 1)`); err != nil {
			t.Fatalf("post-fault insert failed twice: %v", err)
		}
	}
	want++

	tbl, _, err := eng.Query(`SELECT x.ENO FROM x IN EMP`)
	if err != nil {
		t.Fatalf("final query: %v", err)
	}
	if tbl.Len() != want {
		t.Fatalf("final row count %d, want %d (aborted %d of %d rounds)", tbl.Len(), want, aborted, rounds)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
