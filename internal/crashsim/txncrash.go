package crashsim

import (
	"fmt"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/simkit"
)

// Transaction crash points: the crash matrix below runs a committed
// prefix, then opens a multi-statement transaction and crashes the
// disk at seeded points — while the transaction is buffering its
// writes, in the middle of its commit's apply phase, or after its
// commit record is durable. The invariant under test is atomicity
// across recovery: the transaction's effects survive all together
// (commit record reached the log) or not at all; uncommitted buffered
// effects never survive, and a crash before COMMIT leaves the
// database exactly at the committed prefix.

// txnMarkerBase is the first ID used by transaction-block rows, far
// above anything the prefix workload generates, so recovered state
// can be audited for partial transactions by ID range alone.
const txnMarkerBase = 900000

// txnBlock returns the transaction's statements: inserts of marker
// rows plus an update and a delete against rows the prefix committed,
// so the commit's apply phase touches both synthetic refs (fresh
// inserts) and real refs (buffered updates of stored objects).
func txnBlock() []string {
	return []string{
		fmt.Sprintf(`INSERT INTO HIST VALUES (%d, 'txn-a')`, txnMarkerBase+1),
		fmt.Sprintf(`INSERT INTO HIST VALUES (%d, 'txn-b')`, txnMarkerBase+2),
		fmt.Sprintf(`INSERT INTO EMP VALUES (%d, 'TXN', 7)`, txnMarkerBase+3),
		fmt.Sprintf(`UPDATE x IN HIST SET NOTE = 'txn-upd' WHERE x.ID = %d`, txnMarkerBase+9),
		fmt.Sprintf(`UPDATE x IN HIST SET NOTE = 'txn-c' WHERE x.ID = %d`, txnMarkerBase+1),
		fmt.Sprintf(`DELETE x FROM x IN HIST WHERE x.ID = %d`, txnMarkerBase+8),
	}
}

// txnPrefix is the committed workload before the transaction: the
// seeded DML sequence plus two rows the transaction block will update
// and delete.
func txnPrefix(wseed int64) []string {
	w := NewWorkload(wseed, 10)
	all := append(append([]string{}, w.Setup...), w.Stmts...)
	all = append(all,
		fmt.Sprintf(`INSERT INTO HIST VALUES (%d, 'base-upd')`, txnMarkerBase+9),
		fmt.Sprintf(`INSERT INTO HIST VALUES (%d, 'base-del')`, txnMarkerBase+8),
	)
	return all
}

// RunTxnCrash executes one transactional crash-recover-verify cycle
// on the Plain shape, with the crash at the budget-th mutating I/O
// operation. Budget < 0 runs crash-free; it is the matrix's probe. The
// returned count is the mutating I/O operations of the faulted
// session.
func RunTxnCrash(wseed, budget int64) (int64, error) {
	prefix := txnPrefix(wseed)
	block := txnBlock()
	var clk atomic.Int64
	clock := func() int64 { return clk.Add(1) }

	d := NewDisk()
	s := d.Open(wseed*37+budget, budget)
	committed := 0
	inFlight := false        // a prefix statement crashed mid-apply
	commitAttempted := false // tx.Commit was called
	committedTxn := false    // tx.Commit returned success
	eng, err := Plain.open(s, clock, 8)
	if err != nil {
		if !s.Crashed() {
			return 0, fmt.Errorf("crashsim: txn initial open failed without a crash: %w", err)
		}
	} else {
		for i, stmt := range prefix {
			if _, err := eng.Exec(stmt); err != nil {
				if !s.Crashed() {
					return 0, fmt.Errorf("crashsim: txn prefix statement %d failed without a crash: %w\n%s", i, err, stmt)
				}
				inFlight = true
				break
			}
			committed++
		}
		if !s.Crashed() {
			tx, err := eng.Begin()
			if err != nil {
				return 0, fmt.Errorf("crashsim: begin failed: %w", err)
			}
			buffered := true
			for i, stmt := range block {
				if _, err := tx.Exec(stmt); err != nil {
					// Buffered writes do not touch the disk; a failure
					// here can only be a crash surfacing through a
					// snapshot read.
					if !s.Crashed() {
						return 0, fmt.Errorf("crashsim: txn statement %d failed without a crash: %w\n%s", i, err, stmt)
					}
					buffered = false
					break
				}
			}
			if buffered {
				commitAttempted = true
				if err := tx.Commit(); err != nil {
					if !s.Crashed() {
						return 0, fmt.Errorf("crashsim: commit failed without a crash: %w", err)
					}
				} else {
					committedTxn = true
				}
			}
			if !s.Crashed() {
				if err := eng.Close(); err != nil && !s.Crashed() {
					return 0, fmt.Errorf("crashsim: txn clean close failed: %w", err)
				}
			}
		}
	}

	// Recover on a clean session.
	rs := d.Open(wseed*73+budget+3, -1)
	eng2, err := Plain.open(rs, clock, 64)
	if err != nil {
		return 0, fmt.Errorf("crashsim: txn recovery failed: %w", err)
	}
	if err := CheckInvariants(eng2); err != nil {
		return 0, err
	}

	// Atomicity by ID range: of the transaction's three marker
	// inserts, either none or all survive — and with them the
	// buffered update and delete. The audit only makes sense once the
	// whole prefix committed (before that the transaction never
	// started, so its effects are absent by construction).
	gotTxn := "none"
	if committed == len(prefix) {
		gotTxn, err = txnEffects(eng2)
		if err != nil {
			return 0, err
		}
	}
	switch {
	case gotTxn == "none":
	case gotTxn == "all" && commitAttempted:
	case gotTxn == "all" && !commitAttempted:
		return 0, fmt.Errorf("crashsim: transaction effects survived recovery but COMMIT was never invoked")
	default:
		return 0, fmt.Errorf("crashsim: partial transaction survived recovery: %s (commit attempted: %v)", gotTxn, commitAttempted)
	}
	if committedTxn && gotTxn != "all" {
		return 0, fmt.Errorf("crashsim: COMMIT returned success but the transaction did not survive recovery")
	}

	// State equivalence against clean replays: the committed prefix
	// alone (with or without the in-flight statement), or — only when
	// the commit was in flight or durable — the prefix plus the whole
	// transaction block.
	var candidates [][]string
	if gotTxn == "all" {
		candidates = append(candidates, append(append([]string{}, prefix...), block...))
	} else {
		candidates = append(candidates, prefix[:committed])
		if inFlight {
			candidates = append(candidates, prefix[:committed+1])
		}
	}
	var diffs []string
	for _, stmts := range candidates {
		ref, err := Replay(clock, stmts)
		if err != nil {
			return 0, err
		}
		diff := CompareState(eng2, ref)
		ref.Close()
		if diff == "" {
			return s.Ops(simkit.Mutating), nil
		}
		diffs = append(diffs, diff)
	}
	return 0, fmt.Errorf("crashsim: txn-recovered state matches no replay candidate: %v", diffs)
}

// txnEffects audits the recovered database for the transaction's
// marker rows: "none", "all", or a description of a partial survival.
func txnEffects(eng *engine.DB) (string, error) {
	found := map[int64]string{}
	for _, name := range []string{"HIST", "EMP"} {
		t, ok := eng.Catalog().Table(name)
		if !ok {
			continue
		}
		rows, err := TableRows(eng, t, 0)
		if err != nil {
			return "", err
		}
		for _, tup := range rows.Tuples {
			id, ok := tup[0].(model.Int)
			if !ok || int64(id) < txnMarkerBase {
				continue
			}
			found[int64(id)] = tup[1].String()
		}
	}
	// Rows the prefix committed don't count as transaction effects
	// unless the transaction rewrote or deleted them.
	inserted := 0
	for _, id := range []int64{txnMarkerBase + 1, txnMarkerBase + 2, txnMarkerBase + 3} {
		if _, ok := found[id]; ok {
			inserted++
		}
	}
	updated := found[txnMarkerBase+9] == "txn-upd"
	_, delSurvived := found[txnMarkerBase+8]
	deleted := !delSurvived
	switch {
	case inserted == 0 && !updated && !deleted:
		return "none", nil
	case inserted == 3 && updated && deleted && found[txnMarkerBase+1] == "txn-c":
		return "all", nil
	default:
		return fmt.Sprintf("inserted %d/3, updated %v, deleted %v", inserted, updated, deleted), nil
	}
}
