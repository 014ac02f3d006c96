// Package txsim is a deterministic transaction-interleaving simulator
// for the engine's snapshot isolation. From a seed it generates a
// schedule of BEGIN / read / write / COMMIT / ROLLBACK steps across
// several logical transactions over the office DEPARTMENTS table and
// executes the schedule — single-threaded, so the interleaving is
// exactly reproducible — against two implementations at once:
//
//   - the real engine, through the public transaction API;
//   - a few dozen lines of oracle that model snapshot isolation
//     directly (committed map, per-transaction snapshot view,
//     first-writer-wins locks, commit timestamps).
//
// Every observable outcome — each value read, each affected-row
// count, each ErrWriteConflict, each commit — is compared between
// the two, and the final committed state is compared in full. A
// divergence fails with the seed and step number, which replay the
// schedule exactly.
package txsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/scrub"
)

// Config parameterizes one simulation run.
type Config struct {
	Seed    int64
	Steps   int // schedule length (default 50)
	MaxTxns int // max concurrently open transactions (default 4)
	// Indexed adds hierarchical indexes on DEPARTMENTS.DNO and
	// PROJECTS.MEMBERS.FUNCTION, so every read and write of the schedule
	// locates its object through the DNO index — inside a transaction
	// looked up at its snapshot, as an ASOF read is, unioned with its
	// own pending writes, and scanned when the index's watermark is
	// later than the snapshot.
	Indexed bool
}

// Result counts what one run exercised. Checks is the number of
// engine-vs-oracle comparison points (the matrix currency).
type Result struct {
	Steps     int
	Reads     int
	Writes    int
	Conflicts int
	Commits   int
	Rollbacks int
	Checks    int
}

// txState is one open logical transaction: the engine handle plus the
// oracle's view of it.
type txState struct {
	tx      *engine.Txn
	snap    int64           // oracle logical snapshot time
	view    map[int64]int64 // DNO -> BUDGET as this txn sees it (snapshot + own writes)
	own     map[int64]bool  // DNOs inserted by this txn (writes to them take no lock)
	lock    map[int64]bool  // conflict units this txn holds
	touched map[int64]bool  // DNOs this txn wrote (only these publish at commit)
}

type sim struct {
	db  *engine.DB
	rng *rand.Rand
	res Result

	// Oracle state.
	committed  map[int64]int64 // DNO -> BUDGET, committed
	lastWrite  map[int64]int64 // DNO -> commit time of last committed write
	writeLocks map[int64]int   // DNO -> slot of the holder
	clock      int64
	txns       []*txState // fixed slots; nil = free
	nextDNO    int64      // fresh DNOs for inserts, never reused
}

// Run executes one seeded simulation and reports what it checked. A
// non-nil error is an engine/oracle divergence (or an unexpected
// engine failure) and carries the seed and step for replay.
func Run(cfg Config) (Result, error) {
	if cfg.Steps == 0 {
		cfg.Steps = 50
	}
	if cfg.MaxTxns == 0 {
		cfg.MaxTxns = 4
	}
	db, err := core.Office()
	if err != nil {
		return Result{}, err
	}
	defer db.Close()
	if cfg.Indexed {
		for name, path := range map[string][]string{
			"DEPT_DNO":      {"DNO"},
			"DEPT_FUNCTION": {"PROJECTS", "MEMBERS", "FUNCTION"},
		} {
			if err := db.CreateIndex(name, "DEPARTMENTS", path, "HIERARCHICAL"); err != nil {
				return Result{}, err
			}
		}
	}

	s := &sim{
		db:         db,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		committed:  map[int64]int64{},
		lastWrite:  map[int64]int64{},
		writeLocks: map[int64]int{},
		txns:       make([]*txState, cfg.MaxTxns),
		nextDNO:    1000,
	}
	// Seed the oracle with the fixture departments.
	tbl, _, err := db.Query(`SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS`)
	if err != nil {
		return s.res, err
	}
	for _, tup := range tbl.Tuples {
		s.committed[int64(tup[0].(model.Int))] = int64(tup[1].(model.Int))
	}

	fail := func(step int, format string, a ...any) (Result, error) {
		return s.res, fmt.Errorf("seed %d step %d: %s", cfg.Seed, step, fmt.Sprintf(format, a...))
	}
	for step := 0; step < cfg.Steps; step++ {
		s.res.Steps++
		if err := s.step(); err != nil {
			return fail(step, "%v", err)
		}
	}
	// Drain: roll back whatever is still open, then compare the full
	// committed state.
	for i, t := range s.txns {
		if t != nil {
			t.tx.Rollback()
			s.release(i)
			s.txns[i] = nil
		}
	}
	got := map[int64]int64{}
	tbl, _, err = db.Query(`SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS`)
	if err != nil {
		return s.res, err
	}
	for _, tup := range tbl.Tuples {
		got[int64(tup[0].(model.Int))] = int64(tup[1].(model.Int))
	}
	if len(got) != len(tbl.Tuples) {
		return fail(cfg.Steps, "engine holds duplicate DNOs: %d rows, %d distinct", len(tbl.Tuples), len(got))
	}
	s.res.Checks++
	if fmt.Sprint(sorted(got)) != fmt.Sprint(sorted(s.committed)) {
		return fail(cfg.Steps, "final state diverged:\nengine: %v\noracle: %v", sorted(got), sorted(s.committed))
	}
	if cfg.Indexed {
		// The indexes the schedule kept up to date must equal their
		// rebuild from the final base data.
		if err := scrub.IndexesAgree(db); err != nil {
			return fail(cfg.Steps, "%v", err)
		}
	}
	return s.res, nil
}

// sorted renders a DNO->BUDGET map in DNO order for comparison.
func sorted(m map[int64]int64) []string {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("%d=%d", k, m[k])
	}
	return out
}

// step executes one schedule step.
func (s *sim) step() error {
	switch n := s.rng.Intn(100); {
	case n < 15:
		return s.begin()
	case n < 40:
		return s.read()
	case n < 60:
		return s.update()
	case n < 70:
		return s.insert()
	case n < 78:
		return s.delete()
	case n < 90:
		return s.commit()
	default:
		return s.rollback()
	}
}

// pick returns a random open transaction slot, or -1.
func (s *sim) pick() int {
	var open []int
	for i, t := range s.txns {
		if t != nil {
			open = append(open, i)
		}
	}
	if len(open) == 0 {
		return -1
	}
	return open[s.rng.Intn(len(open))]
}

// candidate returns a DNO to operate on: usually one the transaction
// can see, sometimes one it cannot (deleted, uncommitted elsewhere,
// or plain absent) so misses are exercised too.
func (s *sim) candidate(t *txState) int64 {
	var pool []int64
	for dno := range t.view {
		pool = append(pool, dno)
	}
	for dno := range s.committed {
		pool = append(pool, dno) // duplicates just skew the odds
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	if len(pool) == 0 || s.rng.Intn(10) == 0 {
		return 999 // never exists
	}
	return pool[s.rng.Intn(len(pool))]
}

func (s *sim) begin() error {
	free := -1
	for i, t := range s.txns {
		if t == nil {
			free = i
			break
		}
	}
	if free < 0 {
		return s.read()
	}
	tx, err := s.db.Begin()
	if err != nil {
		return fmt.Errorf("begin: %v", err)
	}
	s.clock++
	view := make(map[int64]int64, len(s.committed))
	for k, v := range s.committed {
		view[k] = v
	}
	s.txns[free] = &txState{
		tx:      tx,
		snap:    s.clock,
		view:    view,
		own:     map[int64]bool{},
		lock:    map[int64]bool{},
		touched: map[int64]bool{},
	}
	return nil
}

// read compares one budget lookup — through a transaction when one is
// open, through the auto-commit path otherwise.
func (s *sim) read() error {
	i := s.pick()
	var got *model.Table
	var err error
	var want []int64
	var who string
	if i < 0 || s.rng.Intn(8) == 0 {
		// Auto-commit read: current committed state.
		dno := s.candidateCommitted()
		got, _, err = s.db.Query(query(dno))
		if v, ok := s.committed[dno]; ok {
			want = []int64{v}
		}
		who = fmt.Sprintf("auto-commit read DNO %d", dno)
	} else {
		t := s.txns[i]
		dno := s.candidate(t)
		got, _, err = t.tx.Query(query(dno))
		if v, ok := t.view[dno]; ok {
			want = []int64{v}
		}
		who = fmt.Sprintf("txn %d read DNO %d", i, dno)
	}
	if err != nil {
		return fmt.Errorf("%s: %v", who, err)
	}
	var have []int64
	for _, tup := range got.Tuples {
		have = append(have, int64(tup[0].(model.Int)))
	}
	s.res.Reads++
	s.res.Checks++
	if fmt.Sprint(have) != fmt.Sprint(want) {
		return fmt.Errorf("%s: engine %v, oracle %v", who, have, want)
	}
	return nil
}

func (s *sim) candidateCommitted() int64 {
	var pool []int64
	for dno := range s.committed {
		pool = append(pool, dno)
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	if len(pool) == 0 || s.rng.Intn(10) == 0 {
		return 999
	}
	return pool[s.rng.Intn(len(pool))]
}

func query(dno int64) string {
	return fmt.Sprintf(`SELECT x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = %d`, dno)
}

// tryLock consults the oracle's conflict rule for a write by slot i
// to dno: nil means the write may proceed (and the lock is now held).
func (s *sim) tryLock(i int, dno int64) error {
	t := s.txns[i]
	if t.own[dno] || t.lock[dno] {
		return nil
	}
	if holder, held := s.writeLocks[dno]; held && holder != i {
		return engine.ErrWriteConflict
	}
	if ts, ok := s.lastWrite[dno]; ok && ts > t.snap {
		return engine.ErrWriteConflict
	}
	s.writeLocks[dno] = i
	t.lock[dno] = true
	return nil
}

// update writes a fresh budget to a candidate DNO and compares the
// outcome: affected count on success, ErrWriteConflict on a conflict.
func (s *sim) update() error {
	i := s.pick()
	if i < 0 {
		return s.begin()
	}
	t := s.txns[i]
	dno := s.candidate(t)
	s.clock++
	val := 1_000_000 + s.clock
	_, visible := t.view[dno]
	var wantErr error
	if visible {
		wantErr = s.tryLock(i, dno)
	}
	res, err := t.tx.Exec(fmt.Sprintf(`UPDATE x IN DEPARTMENTS SET BUDGET = %d WHERE x.DNO = %d`, val, dno))
	s.res.Writes++
	s.res.Checks++
	if wantErr != nil {
		s.res.Conflicts++
		if !errors.Is(err, engine.ErrWriteConflict) {
			return fmt.Errorf("txn %d update DNO %d: engine err %v, oracle wants ErrWriteConflict", i, dno, err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("txn %d update DNO %d: %v", i, dno, err)
	}
	wantCount := 0
	if visible {
		wantCount = 1
		t.view[dno] = val
		t.touched[dno] = true
	}
	if len(res) != 1 || res[0].Count != wantCount {
		return fmt.Errorf("txn %d update DNO %d: engine affected %v, oracle wants %d", i, dno, res, wantCount)
	}
	return nil
}

// insert adds a fresh department (never-reused DNO, empty subtables).
func (s *sim) insert() error {
	i := s.pick()
	if i < 0 {
		return s.begin()
	}
	t := s.txns[i]
	s.nextDNO++
	s.clock++
	dno, val := s.nextDNO, 500_000+s.clock
	_, err := t.tx.Exec(fmt.Sprintf(`INSERT INTO DEPARTMENTS VALUES (%d, 0, {}, %d, {})`, dno, val))
	s.res.Writes++
	s.res.Checks++
	if err != nil {
		return fmt.Errorf("txn %d insert DNO %d: %v", i, dno, err)
	}
	t.view[dno] = val
	t.own[dno] = true
	t.touched[dno] = true
	return nil
}

// delete removes a candidate DNO, with the same conflict rule as
// update.
func (s *sim) delete() error {
	i := s.pick()
	if i < 0 {
		return s.begin()
	}
	t := s.txns[i]
	dno := s.candidate(t)
	_, visible := t.view[dno]
	var wantErr error
	if visible {
		wantErr = s.tryLock(i, dno)
	}
	res, err := t.tx.Exec(fmt.Sprintf(`DELETE x FROM x IN DEPARTMENTS WHERE x.DNO = %d`, dno))
	s.res.Writes++
	s.res.Checks++
	if wantErr != nil {
		s.res.Conflicts++
		if !errors.Is(err, engine.ErrWriteConflict) {
			return fmt.Errorf("txn %d delete DNO %d: engine err %v, oracle wants ErrWriteConflict", i, dno, err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("txn %d delete DNO %d: %v", i, dno, err)
	}
	wantCount := 0
	if visible {
		wantCount = 1
		delete(t.view, dno)
		t.touched[dno] = true
		// An own-insert deleted again before commit is elided: it
		// must not resurface at commit.
		delete(t.own, dno)
	}
	if len(res) != 1 || res[0].Count != wantCount {
		return fmt.Errorf("txn %d delete DNO %d: engine affected %v, oracle wants %d", i, dno, res, wantCount)
	}
	return nil
}

// commit publishes slot i's view (when one is open; otherwise begins).
func (s *sim) commit() error {
	i := s.pick()
	if i < 0 {
		return s.begin()
	}
	t := s.txns[i]
	err := t.tx.Commit()
	s.res.Commits++
	s.res.Checks++
	if err != nil {
		return fmt.Errorf("txn %d commit: %v", i, err)
	}
	s.clock++
	// The oracle publishes only the DNOs the transaction wrote: the
	// rest of its view is a stale snapshot and must not clobber what
	// other transactions committed meanwhile (first-writer-wins
	// guarantees the touched set is disjoint from theirs).
	for dno := range t.touched {
		if v, ok := t.view[dno]; ok {
			s.committed[dno] = v
		} else {
			delete(s.committed, dno)
		}
	}
	for dno := range t.lock {
		s.lastWrite[dno] = s.clock
	}
	s.release(i)
	s.txns[i] = nil
	return nil
}

func (s *sim) rollback() error {
	i := s.pick()
	if i < 0 {
		return s.begin()
	}
	if err := s.txns[i].tx.Rollback(); err != nil {
		return fmt.Errorf("txn %d rollback: %v", i, err)
	}
	s.res.Rollbacks++
	s.release(i)
	s.txns[i] = nil
	return nil
}

// release frees slot i's oracle write locks.
func (s *sim) release(i int) {
	for dno := range s.txns[i].lock {
		if s.writeLocks[dno] == i {
			delete(s.writeLocks, dno)
		}
	}
}
