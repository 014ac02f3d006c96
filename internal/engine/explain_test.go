package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/model"
)

// TestPreparedExplainRendersCandidates: an execution keeps only which
// access choices answered and the arguments it was bound to, and EXPLAIN
// renders the candidate line from them: each bound operand, the
// intersection of two indexes, the union with the objects written since
// a transaction's snapshot, and the candidate count — the same text
// whether the statement is prepared or ad hoc.
func TestPreparedExplainRendersCandidates(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE T (A INT, B STRING, C INT); CREATE INDEX TA ON T (A); CREATE INDEX TC ON T (C);
		INSERT INTO T VALUES (1, 'a', 10), (2, 'b', 20), (3, 'c', 30)`)
	ps, err := db.Prepare(`EXPLAIN SELECT x.B FROM x IN T WHERE x.A = ? AND x.C > ?`)
	if err != nil {
		t.Fatal(err)
	}
	line := func(res Result, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range strings.Split(res.Message, "\n") {
			if strings.HasPrefix(l, "x IN T: ") {
				l, _, _ = strings.Cut(l, ", fetch")
				return l
			}
		}
		t.Fatalf("no access line for x in %q", res.Message)
		return ""
	}
	adhoc := func(q string) (Result, error) {
		res, err := db.Exec(q)
		if err != nil {
			return Result{}, err
		}
		return res[0], nil
	}
	for _, c := range []struct {
		name string
		got  string
		want string
	}{
		{"prepared", line(ps.Exec(model.Int(2), model.Int(5))),
			"x IN T: index TA(A)=2 ∩ index TC(C) > 5 (range) -> 1 candidate object(s)"},
		{"prepared, other arguments", line(ps.Exec(model.Int(3), model.Int(30))),
			"x IN T: index TA(A)=3 ∩ index TC(C) > 30 (range) -> 1 candidate object(s)"},
		{"ad hoc", line(adhoc(`EXPLAIN SELECT x.B FROM x IN T WHERE x.A = 2 AND x.C > 5`)),
			"x IN T: index TA(A)=2 ∩ index TC(C) > 5 (range) -> 1 candidate object(s)"},
	} {
		if c.got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, c.got, c.want)
		}
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if _, err := tx.Exec(`INSERT INTO T VALUES (9, 'new', 90)`); err != nil {
		t.Fatal(err)
	}
	got := line(tx.ExecPrepared(context.Background(), ps, model.Int(9), model.Int(5)))
	want := "x IN T: index TA(A)=9 ∩ index TC(C) > 5 (range) ∪ written since the snapshot -> 1 candidate object(s)"
	if got != want {
		t.Errorf("in a transaction:\n got %q\nwant %q", got, want)
	}
}
