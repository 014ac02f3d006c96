package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
)

// TestPreparedExplainRendersCandidates: an execution keeps only which
// access choices answered and the arguments it was bound to, and EXPLAIN
// renders the candidate line from them: each bound operand, the
// intersection of two indexes, the union with a transaction's own
// writes, and the candidate count — the same text
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
		return accessLine(t, res, err)
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
	want := "x IN T: index TA(A)=9 ∩ index TC(C) > 5 (range) ∪ this transaction's writes -> 1 candidate object(s)"
	if got != want {
		t.Errorf("in a transaction:\n got %q\nwant %q", got, want)
	}
}

// accessLine returns the access line of FROM item x over table T in an
// EXPLAIN result, up to its fetch set.
func accessLine(t *testing.T, res Result, err error) string {
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

// TestExplainASOFDecision: EXPLAIN of an item read at an ASOF instant
// names the index and the instant when the index answered, and the
// index's watermark when the instant lies before it and the item was
// scanned — prepared and ad hoc alike.
func TestExplainASOFDecision(t *testing.T) {
	ts := int64(0)
	db, err := Open(Options{Clock: func() int64 { ts++; return ts }})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE T (A INT, B STRING) VERSIONED; INSERT INTO T VALUES (1, 'a'), (2, 'b')`)
	before := db.Now()
	mustExec(t, db, `CREATE INDEX TA ON T (A)`)
	after := db.Now()
	ix, _ := db.IndexByName("TA")
	w := ix.Watermark()
	explain := func(q string, args ...model.Value) string {
		t.Helper()
		ps, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ps.Exec(args...)
		return accessLine(t, res, err)
	}
	adhoc := func(q string) string {
		t.Helper()
		res, err := db.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		return accessLine(t, res[0], nil)
	}
	used := fmt.Sprintf("x IN T: index TA(A)=2 at %d -> 1 candidate object(s)", after)
	scanned := fmt.Sprintf("x IN T: scan: index TA holds no entries before %d", w)
	for _, c := range []struct{ name, got, want string }{
		{"prepared, after the build", explain(fmt.Sprintf(`EXPLAIN SELECT x.B FROM x IN T ASOF %d WHERE x.A = ?`, after), model.Int(2)), used},
		{"ad hoc, after the build", adhoc(fmt.Sprintf(`EXPLAIN SELECT x.B FROM x IN T ASOF %d WHERE x.A = 2`, after)), used},
		{"prepared, before the build", explain(fmt.Sprintf(`EXPLAIN SELECT x.B FROM x IN T ASOF %d WHERE x.A = ?`, before), model.Int(2)), scanned},
		{"ad hoc, before the build", adhoc(fmt.Sprintf(`EXPLAIN SELECT x.B FROM x IN T ASOF %d WHERE x.A = 2`, before)), scanned},
	} {
		if c.got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, c.got, c.want)
		}
	}
}

// TestExplainTxnWatermark: EXPLAIN in a transaction on a versioned table
// names the index while no entry removal followed its snapshot, and the
// index's watermark once one did and sent the item to the scan — which
// still reads the snapshot.
func TestExplainTxnWatermark(t *testing.T) {
	ts := int64(0)
	db, err := Open(Options{Clock: func() int64 { ts++; return ts }})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE T (A INT, B STRING) VERSIONED; INSERT INTO T VALUES (1, 'a'), (2, 'b'); CREATE INDEX TA ON T (A)`)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	const q = `EXPLAIN SELECT x.B FROM x IN T WHERE x.A = 1`
	explain := func() (string, int) {
		t.Helper()
		res, err := tx.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		return accessLine(t, res[0], nil), res[0].Count
	}
	if got, n := explain(); got != "x IN T: index TA(A)=1 -> 1 candidate object(s)" || n != 1 {
		t.Errorf("before any removal: %q, %d rows; want the index and 1 row", got, n)
	}
	mustExec(t, db, `UPDATE x IN T SET A = 3 WHERE x.A = 1`)
	ix, _ := db.IndexByName("TA")
	want := fmt.Sprintf("x IN T: scan: index TA holds no entries before %d", ix.Watermark())
	if got, n := explain(); got != want || n != 1 {
		t.Errorf("after a key change: %q, %d rows; want %q and the snapshot's 1 row", got, n, want)
	}
}
