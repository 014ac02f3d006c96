package crashsim

import (
	"sync/atomic"
	"testing"

	"repro/internal/simkit"
)

// TestCkptCrashMatrix sweeps seeded crash points across the
// checkpointing, segment-rolling workload: segment creation, segment
// removal, the checkpoint's page flushes and its record write are all
// failpoints in the budget range, so the sweep lands inside rolls,
// checkpoints and recycling as well as inside ordinary statements. A
// subset of iterations also crashes the first recovery attempt.
func TestCkptCrashMatrix(t *testing.T) {
	iterations := 60
	if testing.Short() {
		iterations = 12
	}
	var total int64
	var w *Workload
	for i := 0; i < iterations; i++ {
		wseed := int64(1 + i/10) // fresh workload every 10 crash points
		if w == nil || w.Seed != wseed {
			w = NewWorkload(wseed, stmtCount)
			ops, err := RunCrash(Checkpointing, w, -1, -1)
			if err != nil {
				t.Fatalf("workload %d probe: %v", wseed, err)
			}
			if total = ops.Mutating; total < 40 {
				t.Fatalf("workload %d issues only %d mutating ops; harness miswired", wseed, total)
			}
		}
		budget := 1 + (int64(i)*2654435761)%total
		recBudget := int64(-1)
		if i%7 == 2 {
			recBudget = 1 + int64(i)%29 // also crash the recovery run
		}
		if _, err := RunCrash(Checkpointing, w, budget, recBudget); err != nil {
			t.Fatalf("workload %d budget %d/%d recBudget %d: %v", wseed, budget, total, recBudget, err)
		}
	}
}

// TestCompositeFaults arms a transient burst longer than the retry
// budget and a crash budget on the same injector during a
// checkpointing run: the burst aborts whatever statement, snapshot or
// checkpoint it lands in, the engine rolls that back live, and the
// crash cuts the power later. The recovered database must equal the
// replay of the statements that committed (with or without the one the
// crash interrupted) and pass every invariant; RunCrash refuses a
// point where either fault did not fire.
func TestCompositeFaults(t *testing.T) {
	seeds, points := int64(6), int64(3)
	if testing.Short() {
		seeds, points = 3, 1
	}
	for wseed := int64(1); wseed <= seeds; wseed++ {
		w := NewWorkload(wseed, stmtCount)
		ops, err := RunCrash(Checkpointing, w, -1, -1)
		if err != nil {
			t.Fatalf("workload %d probe: %v", wseed, err)
		}
		total := ops.Mutating
		for j := int64(0); j < points; j++ {
			c := Checkpointing
			c.Burst = simkit.Burst{At: total/8 + j*total/16, N: RetryTries + 1, Transient: true, Mask: simkit.DataPath}
			budget := total/2 + j*total/8
			if _, err := RunCrash(c, w, budget, -1); err != nil {
				t.Fatalf("workload %d burst at %d, crash at %d/%d: %v", wseed, c.Burst.At, budget, total, err)
			}
		}
	}
}

// TestCkptCleanRun exercises the crash-free checkpointing path: the
// full workload with periodic checkpoints, clean close, reopen, and
// the state must equal the full replay.
func TestCkptCleanRun(t *testing.T) {
	if _, err := RunCrash(Checkpointing, NewWorkload(9, stmtCount), -1, -1); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitCrashMatrix crashes runs with concurrent auto-commit
// writers sharing fsyncs and verifies the acknowledgement contract
// across recovery: acknowledged inserts survive, surviving rows were
// attempted, nothing duplicates.
func TestGroupCommitCrashMatrix(t *testing.T) {
	writers := 4
	total, err := RunGroupCommitCrash(1, -1, writers)
	if err != nil {
		t.Fatalf("group-commit probe: %v", err)
	}
	iterations := 16
	if testing.Short() {
		iterations = 5
	}
	for i := 0; i < iterations; i++ {
		budget := 1 + (int64(i)*2654435761)%total
		if _, err := RunGroupCommitCrash(int64(i+1), budget, writers); err != nil {
			t.Fatalf("seed %d budget %d/%d: %v", i+1, budget, total, err)
		}
	}
}

// TestRecoveryBounded pins the point of checkpoints: the bytes a
// reopen must replay depend on the log written since the last
// checkpoint, not on the length of the history before it. A workload
// four times longer (same statement mix, same checkpoint cadence)
// must reopen with an (almost) unchanged replay tail, while the total
// log grows several-fold; and recycling must keep the retained
// segment chain from growing with history.
func TestRecoveryBounded(t *testing.T) {
	shortTail, shortEnd, shortSegs := replayTailAfter(t, 40)
	longTail, longEnd, longSegs := replayTailAfter(t, 160)
	if longEnd < shortEnd*2 {
		t.Fatalf("long history wrote %d log bytes, short %d; workload miswired", longEnd, shortEnd)
	}
	// The tail is at most the records of one checkpoint interval; give
	// it 3x slack for statement-size variance between the two runs.
	if longTail > 3*shortTail {
		t.Fatalf("replay tail grew with history: %d bytes after 160 statements vs %d after 40", longTail, shortTail)
	}
	// Segment retention tracks the tail, not the history: allow the
	// same statement-size slack as the byte bound.
	if longSegs > 3*shortSegs {
		t.Fatalf("retained segments grew with history: %d after 160 statements vs %d after 40", longSegs, shortSegs)
	}
}

// replayTailAfter runs h workload statements with periodic
// checkpoints, closes cleanly, reopens, and reports the reopened
// log's replay-tail size, total size, and retained segment count.
func replayTailAfter(t *testing.T, h int) (tail, end uint64, segs int) {
	t.Helper()
	w := NewWorkload(5, h)
	var clk atomic.Int64
	clock := func() int64 { return clk.Add(1) }
	d := NewDisk()
	s := d.Open(1, -1)
	eng, err := Checkpointing.Open(s, clock, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, stmt := range append(append([]string{}, w.Setup...), w.Stmts...) {
		if _, err := eng.Exec(stmt); err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
		if (i+1)%Checkpointing.CkptEvery == 0 {
			if err := eng.WALCheckpoint(); err != nil {
				t.Fatalf("checkpoint after statement %d: %v", i, err)
			}
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	rs := d.Open(2, -1)
	eng2, err := Checkpointing.Open(rs, clock, 64)
	if err != nil {
		t.Fatalf("reopen after %d statements: %v", h, err)
	}
	defer eng2.Close()
	ws := eng2.WALStats()
	if ws.CheckpointLSN == 0 {
		t.Fatalf("no checkpoint found after %d statements", h)
	}
	return ws.End - ws.TailStart, ws.End, ws.Segments
}
