package txsim

import (
	"flag"
	"fmt"
	"testing"
)

// -txsim.seed reruns one schedule for debugging a reported
// divergence; 0 (the default) runs the whole matrix.
var seedFlag = flag.Int64("txsim.seed", 0, "replay a single txsim seed")

// TestMatrix is the isolation-anomaly matrix: a battery of seeded
// deterministic schedules, each interleaving up to 4 transactions
// over the office DEPARTMENTS table and comparing every observable
// outcome (reads, affected counts, write conflicts, commits, final
// state) against the snapshot-isolation oracle. The matrix must
// produce at least 200 comparison points, and among them committed
// writes and detected conflicts — a schedule mix that never
// conflicts or never commits would prove nothing.
func TestMatrix(t *testing.T) { runMatrix(t, false) }

// TestMatrixIndexed is the same matrix with hierarchical indexes on
// DEPARTMENTS.DNO and PROJECTS.MEMBERS.FUNCTION: every lookup of the
// schedule goes through the DNO index — auto-commit directly, inside a
// transaction at its snapshot plus its own writes, or by scan where the
// index's watermark is later — so the oracle judges indexed snapshot
// reads too.
func TestMatrixIndexed(t *testing.T) { runMatrix(t, true) }

func runMatrix(t *testing.T, indexed bool) {
	replay := fmt.Sprintf("go test ./internal/txsim -run '%s$'", t.Name())
	if *seedFlag != 0 {
		res, err := Run(Config{Seed: *seedFlag, Indexed: indexed})
		t.Logf("seed %d: %+v", *seedFlag, res)
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	var total Result
	const seeds = 12
	for seed := int64(1); seed <= seeds; seed++ {
		res, err := Run(Config{Seed: seed, Indexed: indexed})
		if err != nil {
			t.Fatalf("replay with: %s -txsim.seed=%d\n%v", replay, seed, err)
		}
		total.Steps += res.Steps
		total.Reads += res.Reads
		total.Writes += res.Writes
		total.Conflicts += res.Conflicts
		total.Commits += res.Commits
		total.Rollbacks += res.Rollbacks
		total.Checks += res.Checks
	}
	t.Logf("matrix over seeds 1..%d: %+v", seeds, total)
	if total.Checks < 200 {
		t.Errorf("matrix produced %d comparison points, want >= 200", total.Checks)
	}
	if total.Conflicts == 0 {
		t.Error("matrix detected no write conflicts; the schedules are too tame")
	}
	if total.Commits == 0 || total.Rollbacks == 0 {
		t.Errorf("matrix needs both commits (%d) and rollbacks (%d)", total.Commits, total.Rollbacks)
	}
}
