package engine_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/testdata"
)

// TestConcurrentReadersEquivalence is the end-to-end stress test of
// the sharded read path: 8 goroutines stream Examples 1-8 through
// QueryRows while a writer mutates an unrelated scratch table and a
// monitor hammers the lock-free statistics. Every streamed result
// must equal the serial oracle computed up front — the office tables
// are never written, so concurrency must not be observable in any
// result — and the pool must end with zero pinned pages.
func TestConcurrentReadersEquivalence(t *testing.T) {
	db, err := core.OfficeWith(engine.Options{PoolPages: 64, PoolShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	queries := core.ExampleQueries()
	oracle := make(map[string]string, len(queries))
	for _, q := range queries {
		tbl, tt, err := db.Query(q.Text)
		if err != nil {
			t.Fatalf("%s oracle: %v", q.ID, err)
		}
		oracle[q.ID] = model.FormatTable(q.ID, tt, tbl)
	}

	if _, err := db.Exec(`CREATE TABLE SCRATCH (ID INT, NOTE STRING)`); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	const rounds = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Readers: each streams every example query `rounds` times,
	// starting at a different offset so distinct plans overlap.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds*len(queries); i++ {
				q := queries[(r+i)%len(queries)]
				rows, err := db.QueryRows(q.Text)
				if err != nil {
					t.Errorf("reader %d %s: %v", r, q.ID, err)
					return
				}
				got := &model.Table{}
				for rows.Next() {
					got.Append(rows.Tuple())
				}
				if err := rows.Err(); err != nil {
					t.Errorf("reader %d %s: stream failed: %v", r, q.ID, err)
					return
				}
				rows.Close()
				if s := model.FormatTable(q.ID, rows.Type(), got); s != oracle[q.ID] {
					t.Errorf("reader %d: %s result diverged from serial oracle under concurrency:\ngot:\n%s\nwant:\n%s",
						r, q.ID, s, oracle[q.ID])
					return
				}
			}
		}(r)
	}

	// Writer: churns the scratch table only. Office-table reads must
	// not observe it.
	var writes atomic.Int64
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Exec(fmt.Sprintf(`INSERT INTO SCRATCH VALUES (%d, 'w')`, i)); err != nil {
				t.Errorf("writer insert %d: %v", i, err)
				return
			}
			if i >= 8 {
				if _, err := db.Exec(fmt.Sprintf(`DELETE s FROM s IN SCRATCH WHERE s.ID = %d`, i-8)); err != nil {
					t.Errorf("writer delete %d: %v", i-8, err)
					return
				}
			}
			writes.Add(1)
		}
	}()

	// Monitor: reads the lock-free pool and statement statistics while
	// everything above is in flight (-race is the assertion here).
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := db.Pool().Stats()
			if s.Fetches < last {
				t.Errorf("pool Fetches went backwards: %d after %d", s.Fetches, last)
				return
			}
			last = s.Fetches
			_ = db.LastStmtStats()
			_ = db.Pool().PinnedCount()
		}
	}()

	// Wait for the readers; under a loaded scheduler the writer may
	// not have had a turn yet, so also wait for it to commit at least
	// a few statements before stopping everything.
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for writes.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-writerDone
	<-monitorDone

	if writes.Load() == 0 {
		t.Error("writer made no progress")
	}
	if got := db.Pool().PinnedCount(); got != 0 {
		t.Errorf("PinnedCount = %d after all statements finished, want 0", got)
	}
}

// TestRetainedRowsAreNotScratch keeps every row of Examples 2 and 4
// exactly as Rows handed it out — no clone — until the cursor is
// closed and a second statement has run over the same objects, then
// compares them with the materialized result. The cursor stack reuses
// its bindings and the reader its window from row to row; nothing a
// returned tuple references may be part of that.
func TestRetainedRowsAreNotScratch(t *testing.T) {
	db, err := core.OfficeWith(engine.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, q := range core.ExampleQueries() {
		if q.ID != "E2" && q.ID != "E4" {
			continue
		}
		rows, err := db.QueryRows(q.Text)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		var kept []model.Tuple
		for rows.Next() {
			kept = append(kept, rows.Tuple())
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		want, tt, err := db.Query(q.Text)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		got := &model.Table{Ordered: want.Ordered, Tuples: kept}
		if !model.TableEqual(got, want) {
			t.Errorf("%s: retained rows differ from the materialized result\n%s\n%s",
				q.ID, model.FormatTable("retained", tt, got), model.FormatTable("materialized", tt, want))
		}
	}
}

// TestRetainedRowsSurviveGCAndWrites keeps every row of Examples 1-8,
// of the seven scan_cold statements and of shapes around them — ORDER
// BY, DISTINCT, two stored FROM items, a correlated sub-block over a
// stored table, SELECT * rows that take the fetched tuple, a sub-block
// that is not an identity — exactly as Rows handed it out, under each
// Mini Directory layout. The atoms of those rows live in the readers'
// slabs, and a scan whose rows take nothing reads every object into the
// containers of the last (object.Arena). The test then collects
// garbage, runs every statement again, rewrites every object they were
// read from, collects again, and compares the kept rows with the oracle
// computed up front by full-object execution, each oracle row cloned
// the moment it arrived. The first rows of two cursors abandoned
// mid-scan before the next statement are kept too. Nothing a row holds
// may alias a page, a slab chunk or a container that is reused. Run
// under -race, which also checks the slab's pointer conversions.
func TestRetainedRowsSurviveGCAndWrites(t *testing.T) {
	for _, layout := range []object.Layout{object.SS1, object.SS2, object.SS3} {
		t.Run(layout.String(), func(t *testing.T) { retainedRowsSurviveGCAndWrites(t, layout) })
	}
}

func retainedRowsSurviveGCAndWrites(t *testing.T, layout object.Layout) {
	db, err := core.OfficeWith(engine.Options{PoolPages: 64, DefaultLayout: layout})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	gen := testdata.GenDepartments(testdata.GenConfig{Departments: 16, ProjsPerDept: 4, MembersPerProj: 6, EquipPerDept: 3, ConsultantEvery: 4, Seed: 22})
	for _, d := range gen.Tuples {
		if err := db.Insert("DEPARTMENTS", d); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		// A department every member of which is a consultant, so that the
		// ALL ... ALL statement has a survivor.
		`INSERT INTO DEPARTMENTS VALUES (999, 1, {(77, 'VLSI Design', {(1, 'Consultant'), (2, 'Consultant')})}, 5000, {})`,
		`CREATE INDEX DEPT_FUNCTION ON DEPARTMENTS (PROJECTS.MEMBERS.FUNCTION) USING HIERARCHICAL`,
		`CREATE TEXT INDEX DEPT_PNAME ON DEPARTMENTS (PROJECTS.PNAME)`,
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	var texts []string
	for _, q := range core.ExampleQueries() {
		texts = append(texts, q.Text)
	}
	texts = append(texts, scanColdStatements(77)...)
	const allAll = 3 // the ALL ... ALL statement of scan_cold, counted from its first
	allAllAt := len(texts) - len(scanColdStatements(0)) + allAll
	texts = append(texts,
		`SELECT x.DNO, y.PNO, y.PNAME FROM x IN DEPARTMENTS, y IN x.PROJECTS ORDER BY y.PNAME DESC, y.PNO`,
		`SELECT DISTINCT x.MGRNO, z.FUNCTION FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS`,
		`SELECT x.DNO, w.MGRNO, w.PROJECTS FROM x IN DEPARTMENTS, w IN DEPARTMENTS WHERE w.BUDGET > x.BUDGET`,
		`SELECT x.DNO, PEERS = (SELECT w.DNO, w.EQUIP FROM w IN DEPARTMENTS WHERE w.MGRNO = x.MGRNO) FROM x IN DEPARTMENTS`,
		`SELECT * FROM x IN DEPARTMENTS WHERE EXISTS y IN x.EQUIP: y.TYPE = 'PC/AT'`,
		`SELECT x.DNO, x.PROJECTS, x.EQUIP FROM x IN DEPARTMENTS`,
		`SELECT x.DNO, PROJECTS = (SELECT y.PNAME, y.PNO, y.MEMBERS FROM y IN x.PROJECTS) FROM x IN DEPARTMENTS`,
		`SELECT x.REPNO, x.AUTHORS[1], D = (SELECT d.WORD FROM d IN x.DESCRIPTORS) FROM x IN REPORTS`,
	)

	// query streams q and returns its first limit rows (all when limit is
	// 0), each cloned on arrival when clone is set and kept as handed out
	// otherwise, with the cursor closed unless abandon is set.
	query := func(q string, limit int, clone, abandon bool) (*model.Table, *model.TableType) {
		rows, err := db.QueryRows(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		kept := &model.Table{Ordered: rows.Type().Ordered}
		for (limit == 0 || kept.Len() < limit) && rows.Next() {
			tup := rows.Tuple()
			if clone {
				tup = tup.Clone()
			}
			kept.Append(tup)
		}
		if abandon {
			return kept, rows.Type()
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return kept, rows.Type()
	}

	oracle := make([]string, len(texts))
	db.Executor().FullPaths = true
	for i, q := range texts {
		tbl, tt := query(q, 0, true, false)
		oracle[i] = model.FormatTable("", tt, tbl)
	}
	db.Executor().FullPaths = false

	kept := make([]*model.Table, len(texts))
	types := make([]*model.TableType, len(texts))
	for i, q := range texts {
		kept[i], types[i] = query(q, 0, false, false)
	}
	if kept[allAllAt].Len() == 0 {
		t.Fatal("the ALL ... ALL statement has no survivor")
	}
	// Two cursors abandoned after their first rows: Example 4's unnest,
	// whose rows take nothing, and Example 1's SELECT *, whose rows take
	// the fetched tuple.
	abandoned := []string{texts[3], texts[0]}
	const prefix = 5
	prefixes := make([]string, len(abandoned))
	heads := make([]*model.Table, len(abandoned))
	headTypes := make([]*model.TableType, len(abandoned))
	for i, q := range abandoned {
		want, tt := query(q, prefix, true, false)
		prefixes[i] = model.FormatTable("", tt, want)
		heads[i], headTypes[i] = query(q, prefix, false, true)
	}

	runtime.GC()
	for _, q := range texts {
		if _, _, err := db.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	for _, q := range []string{
		`UPDATE x IN DEPARTMENTS SET BUDGET = x.BUDGET + 1`,
		`UPDATE y FROM x IN DEPARTMENTS, y IN x.PROJECTS SET PNAME = 'renamed' WHERE x.DNO = 999`,
		`INSERT INTO x.EQUIP FROM x IN DEPARTMENTS VALUES (9, 'PC/AT')`,
		`DELETE z FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS WHERE z.FUNCTION = 'Consultant'`,
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	runtime.GC()
	for i, q := range texts {
		if got := model.FormatTable("", types[i], kept[i]); got != oracle[i] {
			t.Errorf("%.60s: kept rows changed\ngot:\n%s\nwant:\n%s", q, got, oracle[i])
		}
	}
	for i, q := range abandoned {
		if heads[i].Len() != prefix {
			t.Fatalf("%.60s: %d rows before the cursor was abandoned, want %d", q, heads[i].Len(), prefix)
		}
		if got := model.FormatTable("", headTypes[i], heads[i]); got != prefixes[i] {
			t.Errorf("%.60s: rows of an abandoned cursor changed\ngot:\n%s\nwant:\n%s", q, got, prefixes[i])
		}
	}
}

// scanColdStatements is the statement cycle of the scan_cold workload
// (bench/scan.go) with the Fig 7 statement on project pno.
func scanColdStatements(pno int) []string {
	return []string{
		`SELECT x.DNO, x.MGRNO, PROJECTS = (SELECT y.PNO, y.PNAME, MEMBERS = (SELECT z.EMPNO, z.FUNCTION FROM z IN y.MEMBERS) FROM y IN x.PROJECTS), x.BUDGET, EQUIP = (SELECT v.QU, v.TYPE FROM v IN x.EQUIP) FROM x IN DEPARTMENTS`,
		`SELECT x.DNO, x.MGRNO, y.PNO, y.PNAME, z.EMPNO, z.FUNCTION FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS`,
		`SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS WHERE EXISTS y IN x.EQUIP: y.TYPE = 'PC/AT'`,
		`SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS WHERE ALL y IN x.PROJECTS ALL z IN y.MEMBERS: z.FUNCTION = 'Consultant'`,
		`SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS`,
		`SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS: y.PNAME CONTAINS '*VLSI*'`,
		fmt.Sprintf(`SELECT x.DNO, x.MGRNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS: (y.PNO = %d AND EXISTS z IN y.MEMBERS: z.FUNCTION = 'Consultant')`, pno),
	}
}

// TestScansAndWriterOnTheSameObjects runs two streaming scans of a
// nested table against one writer that keeps updating atoms of, and
// inserting and deleting members in, the very objects being scanned —
// the same pages, under -race. The scans run in transactions, so each
// reads the versioned table at its snapshot and must see every object
// whole, whatever the writer has reached (an auto-commit cursor is
// read-committed-per-row and may skip an object the writer is in the
// middle of). The reader holds pins across a whole object but a latch
// only across one subtuple, and never a latch while it pins: the writer
// must get its exclusive latches and nobody may deadlock.
func TestScansAndWriterOnTheSameObjects(t *testing.T) {
	db, err := engine.Open(engine.Options{PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const objects = 12
	exec := func(q string) {
		t.Helper()
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	exec(`CREATE TABLE D (K INT, NOTE STRING, S TABLE OF (V INT, W STRING)) VERSIONED`)
	for k := 0; k < objects; k++ {
		exec(fmt.Sprintf(`INSERT INTO D VALUES (%d, 'n', {(1, 'a'), (2, 'b'), (3, 'c')})`, k))
	}
	scan := func() (int, error) {
		tx, err := db.Begin()
		if err != nil {
			return 0, err
		}
		defer tx.Rollback()
		rows, err := tx.QueryRows(`SELECT x.K, x.NOTE, S = (SELECT y.V, y.W FROM y IN x.S) FROM x IN D`)
		if err != nil {
			return 0, err
		}
		n := 0
		for rows.Next() {
			if members := rows.Tuple()[2].(*model.Table).Len(); members < 3 || members > 4 {
				return n, fmt.Errorf("object with %d members", members)
			}
			n++
		}
		return n, rows.Close()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n, err := scan(); err != nil || n != objects {
					t.Errorf("scan %d: %d rows, %v; want %d", r, n, err, objects)
					return
				}
			}
		}(r)
	}
	for i := 0; i < 150; i++ {
		k := i % objects
		exec(fmt.Sprintf(`UPDATE x IN D SET NOTE = 'note %d' WHERE x.K = %d`, i, k))
		exec(fmt.Sprintf(`INSERT INTO x.S FROM x IN D WHERE x.K = %d VALUES (%d, 'grown')`, k, 100+i))
		exec(fmt.Sprintf(`DELETE y FROM x IN D, y IN x.S WHERE x.K = %d AND y.V = %d`, k, 100+i))
	}
	close(stop)
	wg.Wait()
	if n := db.Pool().PinnedCount(); n != 0 {
		t.Fatalf("%d pages pinned after the run", n)
	}
}

// TestManyReadersOnSmallPool runs more readers than windows of pinned
// pages would leave room for on an 8-frame pool: six snapshot scans and
// a writer over objects of about 25 pages each. A reader's window holds
// no pins (one pin at most, during a view), so the pool never runs out
// of frames, no statement fails and nothing is quarantined.
func TestManyReadersOnSmallPool(t *testing.T) {
	db, err := engine.Open(engine.Options{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const objects, members, readers = 6, 250, 6
	exec := func(q string) {
		t.Helper()
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%.80s: %v", q, err)
		}
	}
	exec(`CREATE TABLE D (K INT, NOTE STRING, S TABLE OF (V INT, W STRING)) VERSIONED`)
	pad := strings.Repeat("w", 380)
	for k := 0; k < objects; k++ {
		var lit strings.Builder
		for v := 0; v < members; v++ {
			if v > 0 {
				lit.WriteString(", ")
			}
			fmt.Fprintf(&lit, "(%d, '%s')", v, pad)
		}
		exec(fmt.Sprintf(`INSERT INTO D VALUES (%d, 'n', {%s})`, k, lit.String()))
	}
	scan := func() error {
		tx, err := db.Begin()
		if err != nil {
			return err
		}
		defer tx.Rollback()
		rows, err := tx.QueryRows(`SELECT x.K, S = (SELECT y.V, y.W FROM y IN x.S) FROM x IN D`)
		if err != nil {
			return err
		}
		n := 0
		for rows.Next() {
			if got := rows.Tuple()[1].(*model.Table).Len(); got < members || got > members+1 {
				return fmt.Errorf("object with %d members, want %d or one more", got, members)
			}
			n++
		}
		if err := rows.Close(); err != nil || n != objects {
			return fmt.Errorf("%d rows, %v; want %d", n, err, objects)
		}
		return nil
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := scan(); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	for i := 0; i < 60; i++ {
		k := i % objects
		exec(fmt.Sprintf(`UPDATE x IN D SET NOTE = 'note %d' WHERE x.K = %d`, i, k))
		exec(fmt.Sprintf(`INSERT INTO x.S FROM x IN D WHERE x.K = %d VALUES (%d, 'grown')`, k, members+i))
		exec(fmt.Sprintf(`DELETE y FROM x IN D, y IN x.S WHERE x.K = %d AND y.V = %d`, k, members+i))
	}
	close(stop)
	wg.Wait()
	if q := db.Quarantined(); len(q) != 0 {
		t.Fatalf("quarantined: %v", q)
	}
	if n := db.Pool().PinnedCount(); n != 0 {
		t.Fatalf("%d pages pinned after the run", n)
	}
}

// TestManyIndexedReadersOnSmallPool is TestManyReadersOnSmallPool with
// an index on K: six snapshot readers look each object up through the
// index (at their snapshot, or by scan past its watermark) while the
// writer's DML locates its victims through it too, all on an 8-frame
// pool. A candidate read that runs out of frames must fail its
// statement with the transient error, never be skipped or quarantined:
// every read finds its object and nothing is quarantined.
func TestManyIndexedReadersOnSmallPool(t *testing.T) {
	db, err := engine.Open(engine.Options{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const objects, members, readers = 6, 250, 6
	exec := func(q string) {
		t.Helper()
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%.80s: %v", q, err)
		}
	}
	exec(`CREATE TABLE D (K INT, NOTE STRING, S TABLE OF (V INT, W STRING)) VERSIONED; CREATE INDEX DK ON D (K)`)
	pad := strings.Repeat("w", 380)
	for k := 0; k < objects; k++ {
		var lit strings.Builder
		for v := 0; v < members; v++ {
			if v > 0 {
				lit.WriteString(", ")
			}
			fmt.Fprintf(&lit, "(%d, '%s')", v, pad)
		}
		exec(fmt.Sprintf(`INSERT INTO D VALUES (%d, 'n', {%s})`, k, lit.String()))
	}
	sel, err := db.Prepare(`SELECT x.K, S = (SELECT y.V, y.W FROM y IN x.S) FROM x IN D WHERE x.K = ?`)
	if err != nil {
		t.Fatal(err)
	}
	read := func(r int) error {
		tx, err := db.Begin()
		if err != nil {
			return err
		}
		defer tx.Rollback()
		for k := 0; k < objects; k++ {
			key := (k + r) % objects
			rows, err := tx.QueryRowsPrepared(context.Background(), sel, model.Int(key))
			if err != nil {
				return err
			}
			n := 0
			for rows.Next() {
				if got := rows.Tuple()[1].(*model.Table).Len(); got < members || got > members+1 {
					return fmt.Errorf("object %d with %d members, want %d or one more", key, got, members)
				}
				n++
			}
			if err := rows.Close(); err != nil || n != 1 {
				return fmt.Errorf("object %d: %d rows, %v; want 1", key, n, err)
			}
		}
		return nil
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := read(r); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	for i := 0; i < 60; i++ {
		k := i % objects
		exec(fmt.Sprintf(`UPDATE x IN D SET NOTE = 'note %d' WHERE x.K = %d`, i, k))
		exec(fmt.Sprintf(`INSERT INTO x.S FROM x IN D WHERE x.K = %d VALUES (%d, 'grown')`, k, members+i))
		exec(fmt.Sprintf(`DELETE y FROM x IN D, y IN x.S WHERE x.K = %d AND y.V = %d`, k, members+i))
	}
	close(stop)
	wg.Wait()
	if q := db.Quarantined(); len(q) != 0 {
		t.Fatalf("quarantined: %v", q)
	}
	if n := db.Pool().PinnedCount(); n != 0 {
		t.Fatalf("%d pages pinned after the run", n)
	}
}
