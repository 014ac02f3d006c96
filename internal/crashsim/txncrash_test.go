package crashsim

import "testing"

// TestTxnCrashMatrix sweeps seeded crash points across the
// prefix-then-transaction run: budgets stride the full range of
// mutating I/O operations, so crashes land before the transaction,
// during its commit's apply phase, and after its commit record is
// durable. Every recovery must satisfy transactional atomicity (see
// RunTxnCrash).
func TestTxnCrashMatrix(t *testing.T) {
	iterations := 60
	if testing.Short() {
		iterations = 12
	}
	var total int64
	wseed := int64(-1)
	for i := 0; i < iterations; i++ {
		ws := int64(1 + i/12) // fresh workload every 12 crash points
		if ws != wseed {
			wseed = ws
			var err error
			total, err = RunTxnCrash(wseed, -1)
			if err != nil {
				t.Fatalf("txn workload %d probe: %v", wseed, err)
			}
			if total < 20 {
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
		if _, err := RunTxnCrash(wseed, budget); err != nil {
			t.Fatalf("wseed=%d budget=%d: %v", wseed, budget, err)
		}
	}
}

// TestTxnCleanRun drives the transactional workload with no crash:
// the committed transaction must be fully present after a clean
// close and reopen.
func TestTxnCleanRun(t *testing.T) {
	if _, err := RunTxnCrash(5, -1); err != nil {
		t.Fatal(err)
	}
}
