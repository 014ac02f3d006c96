package crashsim

import (
	"testing"

	"repro/internal/simkit"
)

// TestTxnCrashMatrix sweeps seeded crash points across the
// prefix-then-transaction run: budgets stride the full range of
// mutating I/O operations, so crashes land before the transaction,
// during its commit's apply phase, and after its commit record is
// durable. Every recovery must equal the committed statements, or —
// once Commit was called — those plus the whole block: the block's
// effects survive all together or not at all.
func TestTxnCrashMatrix(t *testing.T) {
	iterations := 60
	if testing.Short() {
		iterations = 12
	}
	var total int64
	var w *Workload
	for i := 0; i < iterations; i++ {
		wseed := int64(1 + i/12) // fresh workload every 12 crash points
		if w == nil || w.Seed != wseed {
			w = TxnWorkload(wseed)
			ops, err := RunCrash(Plain, w, -1, -1)
			if err != nil {
				t.Fatalf("txn workload %d probe: %v", wseed, err)
			}
			if total = ops.Mutating; total < 20 {
				t.Fatalf("txn workload %d issues only %d mutating ops; harness miswired", wseed, total)
			}
		}
		budget := 1 + (int64(i)*2654435761)%total
		if i%12 >= 9 {
			// A quarter of the points aim at the tail, where the
			// transaction's commit applies its buffered writes.
			budget = total - int64(i%12-8)
			if budget < 1 {
				budget = 1
			}
		}
		if _, err := RunCrash(Plain, w, budget, -1); err != nil {
			t.Fatalf("wseed=%d budget=%d: %v", wseed, budget, err)
		}
	}
}

// TestTxnCleanRun drives the transactional workload with no crash:
// the committed transaction must be fully present after a clean
// close and reopen.
func TestTxnCleanRun(t *testing.T) {
	if _, err := RunCrash(Plain, TxnWorkload(5), -1, -1); err != nil {
		t.Fatal(err)
	}
}

// TestTxnCompositeFaults combines three things no single fault class
// covers: the transaction workload, on the Checkpointing shape, under
// a transient burst longer than the retry budget aimed at the commit
// of the block — one point per data-path operation of the probe's
// commit, in the last quarter of its data-path operations — and a
// crash after the burst, in the close. The commit the burst aborts
// must roll back live; the recovered database must equal the committed
// units, with the block all or nothing. RunCrash refuses a point where
// either fault did not fire.
func TestTxnCompositeFaults(t *testing.T) {
	seeds := int64(4)
	if testing.Short() {
		seeds = 1
	}
	for wseed := int64(1); wseed <= seeds; wseed++ {
		w := TxnWorkload(wseed)
		ops, err := RunCrash(Checkpointing, w, -1, -1)
		if err != nil {
			t.Fatalf("txn workload %d probe: %v", wseed, err)
		}
		if ops.TxnAt < ops.DataPath*3/4 {
			t.Fatalf("txn workload %d: the block starts at data-path operation %d of %d, before the last quarter", wseed, ops.TxnAt, ops.DataPath)
		}
		for j := int64(1); j <= 5; j++ {
			c := Checkpointing
			c.Burst = simkit.Burst{At: ops.TxnAt + j, N: RetryTries + 1, Transient: true, Mask: simkit.DataPath}
			// The rollback of an aborted commit adds mutating operations,
			// so the probe's last ones still lie ahead, in the close.
			budget := ops.Mutating + 2
			if _, err := RunCrash(c, w, budget, -1); err != nil {
				t.Fatalf("txn workload %d burst at %d/%d, crash at %d/%d: %v", wseed, c.Burst.At, ops.DataPath, budget, ops.Mutating, err)
			}
		}
	}
}

// TestHolesSealedInUntouchedSegments: a burst aborts an allocation in
// a table's segment, and the crash comes after a checkpoint, so the
// log tail recovery scans never names that segment. Recovery must
// still seal the hole the aborted allocation left there; an unsealed
// one reads as a zeroed page ("allocated page is uninitialized").
func TestHolesSealedInUntouchedSegments(t *testing.T) {
	cells := []struct {
		seed, burstAt, budget int64
	}{
		{9, 116, 155},
		{9, 116, 158},
		{11, 114, 155},
	}
	for _, cell := range cells {
		c := Checkpointing
		c.Burst = simkit.Burst{At: cell.burstAt, N: RetryTries + 1, Transient: true, Mask: simkit.DataPath}
		if _, err := RunCrash(c, TxnWorkload(cell.seed), cell.budget, -1); err != nil {
			t.Errorf("txn workload %d, burst at %d, crash at %d: %v", cell.seed, cell.burstAt, cell.budget, err)
		}
	}
}
