package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/netserver"
	"repro/internal/sql"
	"repro/internal/testdata"
)

const table = "DEPARTMENTS"

// firstDNO is the department number the generator starts from.
const firstDNO = 100

// workload is one of the four named load shapes.
type workload interface {
	name() string
	// setup opens the database in e.dir and generates, loads, indexes
	// and checkpoints it; net_mixed also starts its server.
	setup(e *env) error
	// newClient builds load generator id of e.nClients: its seeded
	// stream, its prepared statements, its connection.
	newClient(e *env, id int) (client, error)
	// cycle is how many operations form one indivisible unit.
	cycle() int
	// openRate is the open loop's total request rate; 0 means the
	// workload is a closed loop.
	openRate(sz sizes) float64
	// traceOps is the operation count of the traced run's count-bound
	// passes.
	traceOps(sz sizes) int
	// fixedOps is the operation count of the untraced run's count-bound
	// pass: ops before the checkpoint at which space_amp is taken, tail
	// after it and before the timed reopens. Both are 0 on a workload
	// that writes nothing.
	fixedOps(sz sizes) (ops, tail int)
	// probeSQL is the statement whose PathSet the object.ReadPruned
	// probe uses; probeIndex and probeText name the indexes to probe
	// ("" for none) and probeKey picks a key for sample i.
	probeSQL() string
	probeIndex() (name string, key func(e *env, i int) model.Value)
	probeText() (name, mask string)
}

// shard is the part of the oracle one client owns: the departments
// only that client writes, as model tuples mutated in step with the
// database. No other goroutine touches them while the client runs.
type shard struct {
	depts []model.Tuple
	// User bytes, in the storage codec, that this client has put into
	// the table (the load, whole objects, members) and overwritten in
	// place (budgets): the denominators of space_amp and wal.write_amp.
	inserted, updated int64
}

// replayOp is one read of net_mixed's traced pass, kept so that the
// same statement can be run again in process.
type replayOp struct {
	unnest bool
	dept   model.Tuple
}

// ckptSpan is one harness-issued checkpoint, in nanoseconds since the
// current window began.
type ckptSpan struct{ start, end int64 }

// env is one set-up instance of a workload: a database directory, the
// open engine, its I/O meter and the oracle.
type env struct {
	w        workload
	sz       sizes
	seed     int64
	dir      string
	nClients int

	opts  engine.Options
	db    *engine.DB
	meter *ioMeter
	tt    *model.TableType
	// shards[i] is client i's slice of the oracle; together they are
	// every department the database must hold.
	shards []*shard

	srv    *netserver.Server
	asofTS int64
	// closers undo what newClient opened (connections), in order.
	closers []func()

	// commits counts acknowledged commits; every sz.CkptEvery-th one
	// makes the committing client issue a checkpoint. windowStart
	// anchors ckpts to the running window.
	commits     atomic.Int64
	conflicts   atomic.Int64 // statements refused with ErrWriteConflict
	windowStart time.Time
	ckptMu      sync.Mutex
	ckpts       []ckptSpan

	// Filled by the traced pass only (one client): statements and rows
	// seen and a few result rows for the netproto probes.
	trStmts, trRows int64
	trFirstRow      []int64 // aimnet: request sent -> first row, ns
	trReplay        []replayOp
	sampleRows      []model.Tuple
}

// newEnv makes the directory for one set-up under base.
func newEnv(w workload, sz sizes, seed int64, base string, nClients int) (*env, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "db-"+w.name()+"-")
	if err != nil {
		return nil, err
	}
	return &env{w: w, sz: sz, seed: seed, dir: dir, nClients: nClients, meter: &ioMeter{}, tt: testdata.DepartmentsType()}, nil
}

// open opens (or reopens) the database with the shims installed over
// the real file store and, when wal is set, the real log directory.
// Everything else is the engine default: fsync per group commit,
// GroupCommitWait 0, 4 MiB WAL segments, no background checkpointer.
func (e *env) open(pool int, wal bool) error {
	e.opts = engine.Options{Dir: e.dir, PoolPages: pool, DisableWAL: !wal, OpenStore: e.meter.openStore(e.dir)}
	if wal {
		e.opts.OpenWALStorage = e.meter.openWAL(e.dir)
	}
	db, err := engine.Open(e.opts)
	e.db = db
	return err
}

// load creates DEPARTMENTS, bulk-loads the generated departments under
// one commit, and deals them out to the clients' shards.
func (e *env) load(cfg testdata.GenConfig, versioned bool) error {
	data := testdata.GenDepartments(cfg)
	if err := e.db.CreateTable(table, e.tt, engine.TableOptions{Versioned: versioned}); err != nil {
		return err
	}
	e.shards = make([]*shard, e.nClients)
	for i := range e.shards {
		e.shards[i] = &shard{}
	}
	for i, tup := range data.Tuples {
		if err := e.db.Insert(table, tup); err != nil {
			return err
		}
		s := e.shards[i%e.nClients]
		s.depts = append(s.depts, tup)
		s.inserted += tupleBytes(e.tt, tup)
	}
	return e.db.Commit()
}

// seal makes the loaded state the durable baseline.
func (e *env) seal() error {
	if err := e.db.Commit(); err != nil {
		return err
	}
	return e.db.WALCheckpoint()
}

// close shuts clients, server and database, keeping the directory.
func (e *env) close() error {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := e.srv.Shutdown(ctx)
		cancel()
		e.srv = nil
		if err != nil {
			return err
		}
	}
	if e.db == nil {
		return nil
	}
	db := e.db
	e.db = nil
	return db.Close()
}

// destroy closes everything and removes the directory.
func (e *env) destroy() {
	_ = e.close() // the directory is thrown away either way
	os.RemoveAll(e.dir)
}

// rng returns client id's seeded stream.
func (e *env) rng(id int) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*7919 + int64(id)))
}

// after is called by the runners once an operation's latency has been
// taken. Every write-class operation is one acknowledged commit; the
// client whose commit makes the count a multiple of CkptEvery issues a
// checkpoint before its next operation (count-triggered, never
// timer-triggered). The other client's commits wait on the apply lock
// meanwhile, which is the stall ckpt.stall_ratio measures. It reports
// whether the checkpoint, if any, succeeded.
func (e *env) after(class opClass) bool {
	if class != classWrite || e.commits.Add(1)%int64(e.sz.CkptEvery) != 0 {
		return true
	}
	start := time.Since(e.windowStart)
	err := e.db.WALCheckpoint()
	end := time.Since(e.windowStart)
	e.ckptMu.Lock()
	e.ckpts = append(e.ckpts, ckptSpan{int64(start), int64(end)})
	e.ckptMu.Unlock()
	return err == nil
}

// beginWindow resets what is measured per window.
func (e *env) beginWindow() {
	e.ckptMu.Lock()
	e.ckpts = nil
	e.ckptMu.Unlock()
	e.windowStart = time.Now()
}

// oracle returns every department the database must hold, by DNO.
func (e *env) oracle() map[int64]model.Tuple {
	out := make(map[int64]model.Tuple)
	for _, s := range e.shards {
		for _, d := range s.depts {
			out[int64(d[aDNO].(model.Int))] = d
		}
	}
	return out
}

// userBytes is how many bytes of user data the clients have inserted
// into the table, the load included, and how many they have overwritten.
func (e *env) userBytes() (inserted, updated int64) {
	for _, s := range e.shards {
		inserted += s.inserted
		updated += s.updated
	}
	return inserted, updated
}

// dataPages is the number of allocated pages over all segments.
func (e *env) dataPages() (n uint32) {
	for _, id := range e.db.Segments() {
		if st := e.db.Pool().Store(id); st != nil {
			n += st.PageCount()
		}
	}
	return n
}

// dirBytes is the size of every file of the database directory: the
// segment files plus whatever WAL segments are retained.
func (e *env) dirBytes() (int64, error) {
	var n int64
	entries, err := os.ReadDir(e.dir)
	if err != nil {
		return 0, err
	}
	for _, ent := range entries {
		info, err := os.Stat(filepath.Join(e.dir, ent.Name()))
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// reopen closes the database and times engine.Open on the closed
// directory until a first indexed query answers: catalog, WAL tail,
// in-memory index rebuild.
func (e *env) reopen() (time.Duration, error) {
	if err := e.close(); err != nil {
		return 0, err
	}
	first := int64(e.shards[0].depts[0][aDNO].(model.Int))
	// Opening allocates the whole buffer pool; collect the closed
	// handle's first, so every round starts from the same heap.
	runtime.GC()
	start := time.Now()
	db, err := engine.Open(e.opts)
	if err != nil {
		return 0, err
	}
	e.db = db
	rows, err := db.QueryRows(fmt.Sprintf(`SELECT x.DNO FROM x IN %s WHERE x.DNO = %d`, table, first))
	if err != nil {
		return 0, err
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Close(); err != nil {
		return 0, err
	}
	d := time.Since(start)
	if n != 1 {
		return 0, fmt.Errorf("bench: first query after reopen returned %d rows, want 1", n)
	}
	return d, nil
}

// verifyAll compares the whole table against the oracle and returns
// how many departments are wrong, missing or unexpected. Run after a
// reopen it proves that every acknowledged write is readable after a
// restart.
func (e *env) verifyAll() (int, error) {
	want := e.oracle()
	rows, err := e.db.QueryRows(`SELECT * FROM x IN ` + table)
	if err != nil {
		return 0, err
	}
	bad := 0
	for rows.Next() {
		tup := rows.Tuple()
		dno := int64(tup[aDNO].(model.Int))
		d, ok := want[dno]
		if !ok || !model.TupleEqual(d, tup) {
			bad++
		}
		delete(want, dno)
	}
	if err := rows.Err(); err != nil {
		return 0, err
	}
	if err := rows.Close(); err != nil {
		return 0, err
	}
	return bad + len(want), nil
}

// checkRows runs one cursor to its end — first row, drain, close, each
// its own span — hashing every row, and reports whether the answer is
// the expected one.
func (e *env) checkRows(tr *tracer, open func() (rowSource, error), want expect) bool {
	tr.begin("execute.first_row")
	rows, err := open()
	if err != nil {
		tr.end()
		return false
	}
	var got expect
	more := rows.Next()
	if more {
		got.add(rows.Tuple())
		if tr != nil && len(e.sampleRows) < 64 {
			e.sampleRows = append(e.sampleRows, rows.Tuple().Clone())
		}
	}
	tr.end()
	tr.begin("execute.drain")
	for more {
		if more = rows.Next(); more {
			got.add(rows.Tuple())
		}
	}
	tr.end()
	tr.begin("close")
	err = rows.Err()
	cerr := rows.Close()
	tr.end()
	if tr != nil {
		e.trStmts++
		e.trRows += int64(got.rows)
	}
	return err == nil && cerr == nil && got == want
}

// queryText runs an unprepared SELECT the way DB.QueryRows does — one
// parse, inline planning in the open — through the zero-reparse entry
// point, so the parse gets a span of its own.
func (e *env) queryText(tr *tracer, text string, want expect) bool {
	tr.begin("parse")
	st, err := sql.ParseOneStmt(text)
	tr.end()
	if err != nil {
		return false
	}
	return e.checkRows(tr, func() (rowSource, error) { return e.db.QueryRowsStmt(context.Background(), st) }, want)
}

// adhocPrepared runs ad-hoc text through DB.Prepare — parse, Normalize,
// a plan-cache lookup that misses for new text, bind — and executes
// the plan. Prepare does not expose its parse, so the traced pass first
// times the same ParseOneStmt + Normalize directly ("parse" span) and
// plan.prepare_us is the "plan" span minus that.
func (e *env) adhocPrepared(tr *tracer, text string, want expect) bool {
	if tr != nil {
		tr.begin("parse")
		_, perr := sql.ParseOneStmt(text)
		_, nerr := sql.Normalize(text)
		tr.end()
		if perr != nil || nerr != nil {
			return false
		}
	}
	tr.begin("plan")
	ps, err := e.db.Prepare(text)
	tr.end()
	if err != nil {
		return false
	}
	return e.checkRows(tr, func() (rowSource, error) { return ps.QueryRows() }, want)
}
