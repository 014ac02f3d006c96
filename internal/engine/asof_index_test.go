package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/sql"
)

// asofSchema is a versioned NF² table with a value index on a top-level
// key, a hierarchical index on a member attribute two levels down and a
// text index on a top-level string, and a versioned flat table with a
// value and a text index.
const asofSchema = `
CREATE TABLE D (DNO INT, NAME STRING, PROJECTS TABLE OF (PNO INT, MEMBERS TABLE OF (EMPNO INT, FUNCTION STRING))) VERSIONED;
CREATE TABLE F (K INT, S STRING) VERSIONED;
CREATE INDEX DX ON D (DNO) USING HIERARCHICAL;
CREATE INDEX FX ON D (PROJECTS.MEMBERS.FUNCTION) USING HIERARCHICAL;
CREATE TEXT INDEX NX ON D (NAME);
CREATE INDEX KX ON F (K);
CREATE TEXT INDEX SX ON F (S);
`

var (
	asofWords = []string{"red", "green", "blue"}
	asofFuncs = []string{"a", "b", "c"}
)

// asofPairs are queries at instant at (0: without an ASOF), each twice:
// in a form the planner answers by index, and in an equivalent one it
// cannot (a disjunction), which scans.
func asofPairs(at int64) [][2]string {
	var out [][2]string
	asof := ""
	if at != 0 {
		asof = fmt.Sprintf(" ASOF %d", at)
	}
	add := func(from, cond string) {
		q := fmt.Sprintf("SELECT * FROM x IN %s%s WHERE ", from, asof)
		out = append(out, [2]string{q + cond, q + cond + " OR " + cond})
	}
	for k := 1; k <= 5; k++ {
		add("D", fmt.Sprintf("x.DNO = %d", k))
		add("F", fmt.Sprintf("x.K = %d", k))
	}
	add("D", "x.DNO >= 3")
	add("F", "x.K < 3")
	for i, w := range asofWords {
		add("D", fmt.Sprintf("x.NAME CONTAINS '%s'", w))
		add("F", fmt.Sprintf("x.S CONTAINS '%s*'", w[:2]))
		q := fmt.Sprintf("SELECT x.DNO FROM x IN D%s WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS: ", asof)
		cond := fmt.Sprintf("z.FUNCTION = '%s'", asofFuncs[i])
		out = append(out, [2]string{q + cond, q + cond + " OR " + cond})
	}
	return out
}

// asofHistory writes a random history into a file-backed database under
// a counter clock and compares the indexed ASOF reads with the scanned
// ones at every instant of it.
type asofHistory struct {
	t    *testing.T
	rng  *rand.Rand
	dir  string
	db   *DB
	last int64 // the largest clock reading yet, in any process
	uses int   // ASOF items an index answered
}

// open opens the database under a counter clock that starts at 1.
func (h *asofHistory) open() {
	h.t.Helper()
	ts := int64(0)
	db, err := Open(Options{Dir: h.dir, Clock: func() int64 { ts++; return ts }})
	if err != nil {
		h.t.Fatal(err)
	}
	h.db = db
}

// stmt returns one random writing statement.
func (h *asofHistory) stmt() string {
	r := h.rng
	dno := func() int { return 1 + r.Intn(5) }
	word := func() string { return asofWords[r.Intn(len(asofWords))] }
	fn := func() string { return asofFuncs[r.Intn(len(asofFuncs))] }
	emp := func() int { return 1 + r.Intn(12) }
	switch r.Intn(11) {
	case 0:
		return fmt.Sprintf(`INSERT INTO D VALUES (%d, '%s %s', {(%d, {(%d, '%s'), (%d, '%s')})})`,
			dno(), word(), word(), r.Intn(3), emp(), fn(), emp(), fn())
	case 1:
		return fmt.Sprintf(`UPDATE x IN D SET DNO = %d WHERE x.DNO = %d`, dno(), dno())
	case 2:
		return fmt.Sprintf(`UPDATE x IN D SET NAME = '%s' WHERE x.DNO = %d`, word(), dno())
	case 3:
		return fmt.Sprintf(`UPDATE z FROM x IN D, y IN x.PROJECTS, z IN y.MEMBERS SET FUNCTION = '%s' WHERE z.EMPNO = %d`, fn(), emp())
	case 4:
		return fmt.Sprintf(`INSERT INTO y.MEMBERS FROM x IN D, y IN x.PROJECTS WHERE x.DNO = %d VALUES (%d, '%s')`, dno(), emp(), fn())
	case 5:
		return fmt.Sprintf(`DELETE z FROM x IN D, y IN x.PROJECTS, z IN y.MEMBERS WHERE z.EMPNO = %d`, emp())
	case 6:
		return fmt.Sprintf(`DELETE x FROM x IN D WHERE x.DNO = %d`, dno())
	case 7:
		return fmt.Sprintf(`INSERT INTO F VALUES (%d, '%s %s')`, dno(), word(), word())
	case 8:
		return fmt.Sprintf(`UPDATE x IN F SET K = %d WHERE x.K = %d`, dno(), dno())
	case 9:
		return fmt.Sprintf(`UPDATE x IN F SET S = '%s' WHERE x.K = %d`, word(), dno())
	default:
		return fmt.Sprintf(`DELETE x FROM x IN F WHERE x.K = %d`, dno())
	}
}

// run applies n random statements, each auto-committed.
func (h *asofHistory) run(n int) {
	h.t.Helper()
	for range n {
		mustExec(h.t, h.db, h.stmt())
		h.last = max(h.last, h.db.Now())
	}
}

// txn applies n random statements in one transaction and commits it.
func (h *asofHistory) txn(n int) {
	h.t.Helper()
	tx, err := h.db.Begin()
	if err != nil {
		h.t.Fatal(err)
	}
	for range n {
		if _, err := tx.Exec(h.stmt()); err != nil {
			h.t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		h.t.Fatal(err)
	}
	h.last = max(h.last, h.db.Now())
}

// check compares the indexed and the scanned form of every ASOF pair at
// every instant from 1 to the last clock reading, and counts the items
// the indexed form answered by index.
func (h *asofHistory) check(phase string) {
	h.t.Helper()
	uses := 0
	for at := int64(1); at <= h.last; at++ {
		uses += h.compare(fmt.Sprintf("%s, ASOF %d", phase, at), asofPairs(at), h.db.Executor(), h.db.Query)
	}
	if uses == 0 {
		h.t.Fatalf("%s: no ASOF item was answered by an index at any of %d instants", phase, h.last)
	}
	h.uses += uses
}

// compare runs both forms of every pair through query, fails on the
// first pair whose rows differ, and returns how many indexed forms an
// index answered when bound by ex.
func (h *asofHistory) compare(phase string, pairs [][2]string, ex *exec.Executor, query func(string) (*model.Table, *model.TableType, error)) int {
	h.t.Helper()
	uses := 0
	for _, p := range pairs {
		got, want := h.rows(p[0], query), h.rows(p[1], query)
		if !slices.Equal(got, want) {
			h.t.Fatalf("%s:\n%s\n indexed: %v\n%s\n scanned: %v", phase, p[0], got, p[1], want)
		}
		if h.indexed(p[0], ex) {
			uses++
		}
	}
	return uses
}

// rows runs q through query and renders its rows, sorted.
func (h *asofHistory) rows(q string, query func(string) (*model.Table, *model.TableType, error)) []string {
	h.t.Helper()
	tbl, _, err := query(q)
	if err != nil {
		h.t.Fatalf("%s: %v", q, err)
	}
	out := make([]string, len(tbl.Tuples))
	for i, tup := range tbl.Tuples {
		out[i] = fmt.Sprint(tup)
	}
	slices.Sort(out)
	return out
}

// indexed reports whether an index answers the FROM item of q, bound and
// evaluated by ex.
func (h *asofHistory) indexed(q string, ex *exec.Executor) bool {
	h.t.Helper()
	st, err := sql.ParseOneStmt(q)
	if err != nil {
		h.t.Fatal(err)
	}
	p, err := plan.Bind(st, ex)
	if err != nil {
		h.t.Fatal(err)
	}
	cs := p.Candidates(ex.RT, nil)
	return len(cs) > 0 && cs[0].Used != 0
}

// begin opens a transaction at the history's current instant.
func (h *asofHistory) begin() *Txn {
	h.t.Helper()
	tx, err := h.db.Begin()
	if err != nil {
		h.t.Fatal(err)
	}
	h.last = max(h.last, h.db.Now())
	return tx
}

// checkTxns reads every pair without an ASOF in each transaction, at
// its snapshot, and rolls it back. Every other transaction first buffers
// key changes of its own: an insert into each table, a key update on
// each, and two random statements (one that a later writer refuses with
// ErrWriteConflict is dropped, as a statement).
func (h *asofHistory) checkTxns(phase string, txs []*Txn) {
	h.t.Helper()
	uses := 0
	for i, tx := range txs {
		own := i%2 == 1
		if own {
			k := 1 + h.rng.Intn(5)
			for _, q := range []string{
				fmt.Sprintf(`INSERT INTO D VALUES (%d, 'red blue', {(1, {(3, 'a')})})`, k),
				fmt.Sprintf(`INSERT INTO F VALUES (%d, 'green')`, k),
				fmt.Sprintf(`UPDATE x IN D SET DNO = %d WHERE x.DNO = %d`, 1+h.rng.Intn(5), 1+h.rng.Intn(5)),
				fmt.Sprintf(`UPDATE x IN F SET K = %d WHERE x.K = %d`, 1+h.rng.Intn(5), 1+h.rng.Intn(5)),
				h.stmt(),
				h.stmt(),
			} {
				if _, err := tx.Exec(q); err != nil && !errors.Is(err, ErrWriteConflict) {
					h.t.Fatalf("%s: %s: %v", phase, q, err)
				}
			}
		}
		uses += h.compare(fmt.Sprintf("%s, transaction %d at %d (own writes %v)", phase, i, tx.SnapshotTS(), own), asofPairs(0), tx.exec, tx.Query)
		if err := tx.Rollback(); err != nil {
			h.t.Fatal(err)
		}
	}
	if uses == 0 {
		h.t.Fatalf("%s: no item of %d transactions was answered by an index", phase, len(txs))
	}
	h.uses += uses
}

// TestDirectInsertIndexedMatchesScan: an object a loader inserts with
// DB.Insert, outside any statement, carries one instant on every
// version, so at no instant does an index find it while a scan does not.
func TestDirectInsertIndexedMatchesScan(t *testing.T) {
	h := &asofHistory{t: t, rng: rand.New(rand.NewSource(7)), dir: t.TempDir()}
	h.open()
	defer h.db.Close()
	mustExec(t, h.db, asofSchema)
	h.run(5)
	members := model.NewRelation()
	members.Append(model.Tuple{model.Int(3), model.Str("a")})
	members.Append(model.Tuple{model.Int(4), model.Str("b")})
	projects := model.NewRelation()
	projects.Append(model.Tuple{model.Int(1), members})
	if err := h.db.Insert("D", model.Tuple{model.Int(2), model.Str("red green"), projects}); err != nil {
		t.Fatal(err)
	}
	if err := h.db.Insert("F", model.Tuple{model.Int(2), model.Str("blue")}); err != nil {
		t.Fatal(err)
	}
	if err := h.db.Commit(); err != nil {
		t.Fatal(err)
	}
	h.last = max(h.last, h.db.Now())
	h.check("direct inserts")
}

// TestASOFIndexedMatchesScan: at every instant of random histories, an
// ASOF read answered by an index returns what the same read answered by
// a scan returns. The histories run on a versioned NF² and a versioned
// flat table under hierarchical, value and text indexes: key-changing
// updates, member inserts and deletes under the indexed member path,
// object inserts and deletes, a committed transaction; then a failed
// statement, whose rollback rebuilds every index; then a close and an
// open under a counter clock restarted at 1, whose rebuild bounds the
// watermark by the version stamps it reads. The txn configurations read
// the same way inside transactions, with no ASOF, over versioned and
// unversioned tables: one transaction begins at each instant of a
// random history, and after it each compares its indexed and scanned
// reads at its snapshot, every other one after buffering key changes of
// its own.
func TestASOFIndexedMatchesScan(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	steps := 20
	if testing.Short() || raceEnabled {
		seeds, steps = seeds[:2], 10
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			h := &asofHistory{t: t, rng: rand.New(rand.NewSource(seed)), dir: t.TempDir()}
			h.open()
			mustExec(t, h.db, asofSchema)
			h.run(steps)
			h.txn(3)
			h.run(steps)
			h.check("random history")

			if _, err := h.db.Exec(`INSERT INTO F VALUES (2, 'green'), ('notint', 'x')`); err == nil {
				t.Fatal("a row of the wrong type was inserted")
			}
			h.run(steps)
			h.check("after a failed statement")

			if err := h.db.Close(); err != nil {
				t.Fatal(err)
			}
			h.open()
			defer h.db.Close()
			h.run(steps)
			h.check("after a reopen")
			t.Logf("%d instants, %d ASOF items answered by an index", h.last, h.uses)
		})
	}
	for _, kind := range []string{"versioned", "unversioned"} {
		schema := asofSchema
		if kind == "unversioned" {
			schema = strings.ReplaceAll(schema, " VERSIONED", "")
		}
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("txn/%s/seed%d", kind, seed), func(t *testing.T) {
				h := &asofHistory{t: t, rng: rand.New(rand.NewSource(seed)), dir: t.TempDir()}
				h.open()
				defer h.db.Close()
				mustExec(t, h.db, schema)
				var txs []*Txn
				for range steps {
					txs = append(txs, h.begin())
					h.run(1)
				}
				txs = append(txs, h.begin())
				h.txn(3)
				txs = append(txs, h.begin())
				if _, err := h.db.Exec(`INSERT INTO F VALUES (2, 'green'), ('notint', 'x')`); err == nil {
					t.Fatal("a row of the wrong type was inserted")
				}
				txs = append(txs, h.begin())
				h.run(steps)
				txs = append(txs, h.begin(), h.begin())
				h.checkTxns("random history", txs)
				t.Logf("%d transactions, %d items answered by an index", len(txs), h.uses)
			})
		}
	}
}

// TestConcurrentASOFPointReads: readers run ASOF point reads by index at
// the instants a writer records after each of its statements, while the
// writer keeps changing the indexed keys; every answer must be the one
// the history recorded for that instant.
func TestConcurrentASOFPointReads(t *testing.T) {
	ts := int64(0)
	db, err := Open(Options{Clock: func() int64 { ts++; return ts }})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE D (DNO INT, NAME STRING, PROJECTS TABLE OF (PNO INT, MEMBERS TABLE OF (EMPNO INT, FUNCTION STRING))) VERSIONED;
		INSERT INTO D VALUES (1, 'one', {}), (2, 'two', {}), (3, 'three', {});
		CREATE INDEX DX ON D (DNO)`)

	// history[i] is the instant after the writer's i-th statement and the
	// name department k held then, for DNO 1..3.
	type state struct {
		at    int64
		names [4]string
	}
	var (
		mu      sync.Mutex
		history = []state{{at: db.Now(), names: [4]string{"", "one", "two", "three"}}}
	)
	const writes = 60
	done := make(chan struct{})
	go func() {
		defer close(done)
		cur := history[0].names
		for i := range writes {
			// Swap two keys through a spare one: every statement changes
			// an indexed key and removes an entry.
			a, b := 1+i%3, 1+(i+1)%3
			for _, q := range []string{
				fmt.Sprintf(`UPDATE x IN D SET DNO = 9 WHERE x.DNO = %d`, a),
				fmt.Sprintf(`UPDATE x IN D SET DNO = %d WHERE x.DNO = %d`, a, b),
				fmt.Sprintf(`UPDATE x IN D SET DNO = %d WHERE x.DNO = 9`, b),
			} {
				if _, err := db.Exec(q); err != nil {
					t.Error(err)
					return
				}
			}
			cur[a], cur[b] = cur[b], cur[a]
			s := state{at: db.Now(), names: cur}
			mu.Lock()
			history = append(history, s)
			mu.Unlock()
		}
	}()

	var wg sync.WaitGroup
	for r := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for n := 0; ; n++ {
				select {
				case <-done:
					if n > 0 {
						return
					}
				default:
				}
				// Half the reads take the newest instant, which an index
				// answers until the writer's next removal.
				mu.Lock()
				s := history[len(history)-1]
				if rng.Intn(2) == 0 {
					s = history[rng.Intn(len(history))]
				}
				mu.Unlock()
				k := 1 + rng.Intn(3)
				q := fmt.Sprintf(`SELECT x.NAME FROM x IN D ASOF %d WHERE x.DNO = %d`, s.at, k)
				tbl, _, err := db.Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				var got []string
				for _, tup := range tbl.Tuples {
					got = append(got, string(tup[0].(model.Str)))
				}
				if len(got) != 1 || got[0] != s.names[k] {
					t.Errorf("%s: got %v, want [%s]", q, got, s.names[k])
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done

	// The last instant lies after the last key change: it is read by
	// index, and so is every instant a reader picks once the writer
	// stops.
	last := history[len(history)-1]
	res, err := db.Exec(fmt.Sprintf(`EXPLAIN SELECT x.NAME FROM x IN D ASOF %d WHERE x.DNO = 1`, last.at))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res[0].Message, "index DX(DNO)=1 at") {
		t.Errorf("the read after the last write was not answered by index:\n%s", res[0].Message)
	}
}
