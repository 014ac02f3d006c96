package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/buffer"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/sql"
)

// nClients is the load shape: this sandbox has two processors, so the
// generator is one process with two clients, never more.
const nClients = 2

// sloLimit is the fixed latency limit of net_mixed's open loop.
const sloLimit = 20 * time.Millisecond

var workloads = []workload{pointWarm{}, scanCold{}, writeDurable{}, netMixed{}}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name() == name {
			return w, true
		}
	}
	return nil, false
}

// runConfig is one invocation: a workload, a seed, a window length.
type runConfig struct {
	w       workload
	sz      sizes
	seed    int64
	seconds float64
	base    string    // directory for database files and trace output
	log     io.Writer // human-readable progress
}

// outcome is what a run measured: the metrics by name plus the
// operation and failure counts of the result line.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
}

// setUp builds one instance: directory, database, clients. The time
// it takes is setup_s: generate, load, build indexes, checkpoint,
// start the server, connect and prepare. The fixed-length warm-up
// that follows is not part of it.
func (c runConfig) setUp(clients int) (*env, []client, time.Duration, error) {
	// Every set-up starts from a collected heap, whatever ran before it.
	runtime.GC()
	start := time.Now()
	e, err := newEnv(c.w, c.sz, c.seed, c.base, clients)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := c.w.setup(e); err != nil {
		e.destroy()
		return nil, nil, 0, fmt.Errorf("%s: setup: %w", c.w.name(), err)
	}
	cs := make([]client, clients)
	for i := range cs {
		if cs[i], err = c.w.newClient(e, i); err != nil {
			e.destroy()
			return nil, nil, 0, fmt.Errorf("%s: client %d: %w", c.w.name(), i, err)
		}
	}
	return e, cs, time.Since(start), nil
}

// shaped runs the workload's own load shape for d: the open loop at
// its frozen rate where it has one (net_mixed), else the closed loop.
func (c runConfig) shaped(e *env, cs []client, d time.Duration) loadResult {
	if rate := c.w.openRate(c.sz); rate > 0 {
		return runOpen(e, cs, rate, d)
	}
	return runClosed(e, cs, d, c.w.cycle())
}

func (c runConfig) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// warmUp is the untimed run that fills the plan cache and the pool.
func (c runConfig) warmUp() time.Duration { return min(c.window()/4, 2*time.Second) }

// endToEnd is the untraced run behind every end-to-end metric. Two
// instances live through it: the fixed one takes the count-bound pass
// behind space_amp and is the one reopen_s reopens, the main one takes
// the timed window. The window runs in sz.Parts parts, and after each
// part come one more timed set-up (of an instance thrown away at once)
// and a few timed reopens, so that every metric's samples are spread
// over the whole run and its median is not set by one slow stretch of
// the machine.
func (c runConfig) endToEnd() (*outcome, error) {
	var setups, reopens []float64
	fe, fcs, d, err := c.setUp(nClients)
	if err != nil {
		return nil, err
	}
	defer fe.destroy()
	setups = append(setups, d.Seconds())
	fixed, err := c.fixedPass(fe, fcs[0])
	if err != nil {
		return nil, err
	}

	e, cs, d, err := c.setUp(nClients)
	if err != nil {
		return nil, err
	}
	defer e.destroy()
	setups = append(setups, d.Seconds())
	pagesAtLoad := e.dataPages()
	// Every workload's end-to-end numbers come from its closed loop: the
	// open loop's latencies are too unsteady here to carry a bound (see
	// README.md, Calibration) and are reported by the traced run instead.
	runClosed(e, cs, c.warmUp(), c.w.cycle())
	var parts []loadResult
	var ops, failed int
	var mallocs uint64
	for k := 0; k < c.sz.Parts; k++ {
		res := runClosed(e, cs, c.window()/time.Duration(c.sz.Parts), c.w.cycle())
		parts = append(parts, res)
		ops, failed, mallocs = ops+res.ops, failed+res.failed, mallocs+res.mem.mallocs

		scratch, _, d, err := c.setUp(nClients)
		if err != nil {
			return nil, err
		}
		scratch.destroy()
		setups = append(setups, d.Seconds())
		for i := 0; i < c.sz.Reopens; i++ {
			if d, err = fe.reopen(); err != nil {
				return nil, err
			}
			reopens = append(reopens, d.Seconds())
		}
	}

	// After a restart every write either instance acknowledged must be
	// readable.
	if _, err := e.reopen(); err != nil {
		return nil, err
	}
	lost := 0
	for _, inst := range []*env{fe, e} {
		n, err := inst.verifyAll()
		if err != nil {
			return nil, err
		}
		lost += n
	}

	rate, p50, p95 := steady(parts)
	out := &outcome{attempted: ops + fixed.ops, failed: failed + fixed.failed + lost, metrics: map[string]float64{
		"setup_s":       median(setups),
		"ops_per_s":     rate * ratio(float64(ops-failed), float64(ops)),
		"op_p50_ms":     ms(p50),
		"op_p95_ms":     ms(p95),
		"allocs_per_op": ratio(float64(mallocs), float64(ops)),
		"space_amp":     fixed.spaceAmp,
		// A reopen lasts milliseconds, and whatever else the machine does
		// in them only ever adds time: the lower quartile is nearer to the
		// undisturbed cost than the median, and steadier.
		"reopen_s": lowerQuartile(reopens),
	}}
	fmt.Fprintf(c.log, "set-up samples (s): %.5f\nreopen samples (s): %.5f\n", setups, reopens)
	var pooled [][]sample
	for _, p := range parts {
		pooled = append(pooled, p.reads, p.writes)
	}
	fmt.Fprintf(c.log, "p99 over all parts, not gated (ms): %.6f\n", ms(quantile(latencies(pooled...), 0.99)))
	fmt.Fprintf(c.log, "%s seed %d: %d operations in %d parts of %.2fs by %d clients, %d failed; %d data pages at load, pool %d pages; flush policy: engine default (fsync per group commit, GroupCommitWait 0, 4 MiB WAL segments), checkpoint every %d commits\n",
		c.w.name(), c.seed, ops, c.sz.Parts, c.window().Seconds()/float64(c.sz.Parts), nClients, out.failed, pagesAtLoad, e.opts.PoolPages, c.sz.CkptEvery)
	return out, nil
}

// fixedResult is what the count-bound pass of the untraced run measured.
type fixedResult struct {
	ops, failed int
	spaceAmp    float64
}

// fixedPass measures what must not depend on how many operations a
// timed window had time for: one client runs a fixed operation count
// (none on a workload that writes nothing), then comes a checkpoint and
// space_amp, then a fixed tail of operations left in the log for the
// timed reopens. A seed's database is the same on every machine at each
// of those points.
func (c runConfig) fixedPass(e *env, cl client) (*fixedResult, error) {
	ops, tail := c.w.fixedOps(c.sz)
	load := runCount(e, cl, ops, nil)
	f := &fixedResult{ops: ops + tail, failed: load.failed}

	// Space after a checkpoint, against the user data inserted: the
	// segment files never shrink, so against the live data alone the
	// ratio would grow with every insert there had been.
	if err := e.db.WALCheckpoint(); err != nil {
		return nil, err
	}
	stored, err := e.dirBytes()
	if err != nil {
		return nil, err
	}
	inserted, _ := e.userBytes()
	f.spaceAmp = ratio(float64(stored), float64(inserted))

	for i := 0; i < tail; i++ {
		if _, bad := cl.step(nil); bad {
			f.failed++
		}
	}
	return f, nil
}

// counters is every public counter the harness reads from outside,
// taken at one instant so that two of them give a pass's deltas.
type counters struct {
	buf                        buffer.Stats
	decoded                    uint64
	parsed, prepares, chooses  uint64
	plans                      engine.PlanCacheStats
	wal                        engine.WALStats
	net                        engine.NetStats
	segRead, segWrite, segSync callSnap
	walWrite, walSync          callSnap
	fsyncHist                  *histSnap
}

func (e *env) counters() counters {
	m := e.meter
	return counters{
		buf: e.db.Pool().Stats(), decoded: e.db.DecodeCount(),
		parsed: sql.StatementsParsed(), prepares: plan.PrepareCount(), chooses: plan.ChooseCount(),
		plans: e.db.PlanCacheStats(), wal: e.db.WALStats(), net: e.db.NetStats(),
		segRead: m.segRead.snap(), segWrite: m.segWrite.snap(), segSync: m.segSync.snap(),
		walWrite: m.walWrite.snap(), walSync: m.walSync.snap(), fsyncHist: m.walSync.hist.snap(),
	}
}

// heapPeak samples the live heap without stopping the world until stop
// is closed, and returns the largest value seen, in bytes.
func heapPeak(stop <-chan struct{}) <-chan uint64 {
	out := make(chan uint64, 1)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-stop:
				out <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// perLayer is the traced run behind every per-layer metric. It has
// three parts, each on a fresh set-up of the same seed:
//
//	load    the untraced two-client loop, for what only shows under
//	        concurrency (group commit, checkpoint stalls, GC, open-loop
//	        lateness);
//	base    one client, a fixed operation count, untraced;
//	traced  the same client and count with spans recorded, then the
//	        direct layer probes.
//
// Counters come from the traced pass, where they repeat exactly.
func (c runConfig) perLayer() (*outcome, error) {
	m := map[string]float64{}
	out := &outcome{metrics: m}

	// Part 1: load.
	e, cs, _, err := c.setUp(nClients)
	if err != nil {
		return nil, err
	}
	c.shaped(e, cs, c.warmUp())
	before := e.counters()
	stop := make(chan struct{})
	peak := heapPeak(stop)
	res := c.shaped(e, cs, c.window()/2)
	close(stop)
	m["go.heap_peak_mb"] = float64(<-peak) / (1 << 20)
	after := e.counters()
	c.loadMetrics(e, m, res, before, after)
	out.attempted += res.ops
	out.failed += res.failed
	e.destroy()

	// Part 2: base pass.
	n := c.w.traceOps(c.sz)
	e, cs, _, err = c.setUp(1)
	if err != nil {
		return nil, err
	}
	base := runCount(e, cs[0], n, nil)
	out.attempted += base.ops
	out.failed += base.failed
	e.destroy()

	// Part 3: traced pass and probes.
	e, cs, _, err = c.setUp(1)
	if err != nil {
		return nil, err
	}
	defer e.destroy()
	before = e.counters()
	ins0, upd0 := e.userBytes()
	tr := newTracer()
	e.meter.tr.Store(tr)
	traced := runCount(e, cs[0], n, tr)
	e.meter.tr.Store(nil)
	after = e.counters()
	out.attempted += traced.ops
	out.failed += traced.failed
	m["bench.trace_overhead_ratio"] = ratio(float64(traced.ops)/traced.elapsed.Seconds(), float64(base.ops)/base.elapsed.Seconds())
	ins1, upd1 := e.userBytes()
	layers := tr.selfTimes()
	c.tracedMetrics(e, m, layers, traced, before, after, ins1-ins0+upd1-upd0)
	if err := c.netTax(e, m, traced); err != nil {
		return nil, err
	}
	if err := probeLayers(e, m); err != nil {
		return nil, err
	}
	if err := tr.write(c.base, c.w.name(), c.seed); err != nil {
		return nil, err
	}
	c.printLayers(layers)
	return out, nil
}

// loadMetrics fills the metrics that only the concurrent loop shows.
func (c runConfig) loadMetrics(e *env, m map[string]float64, res loadResult, a, b counters) {
	reads, writes := latencies(res.reads), latencies(res.writes)
	all := latencies(res.reads, res.writes)
	m["bench.samples"] = float64(len(all))
	m["bench.fail_ratio"] = ratio(float64(res.failed), float64(res.ops))
	m["bench.read_p50_ms"] = ms(quantile(reads, 0.50))
	m["bench.read_p99_ms"] = ms(quantile(reads, 0.99))
	m["bench.write_p50_ms"] = ms(quantile(writes, 0.50))
	m["bench.write_p99_ms"] = ms(quantile(writes, 0.99))

	lag := append([]int64(nil), res.lag...)
	sort.Slice(lag, func(i, j int) bool { return lag[i] < lag[j] })
	m["bench.sched_lag_p99_ms"] = ms(quantile(lag, 0.99))
	m["bench.slo_miss_ratio"] = 0
	if len(res.lag) > 0 {
		// A failed request misses the limit whatever its latency.
		late := sort.Search(len(all), func(i int) bool { return all[i] > int64(sloLimit) })
		m["bench.slo_miss_ratio"] = ratio(float64(len(all)-late+res.failed), float64(res.ops))
	}

	m["wal.commits_per_fsync"] = ratio(float64(len(res.writes)), float64(b.walSync.calls-a.walSync.calls))
	m["txn.conflicts"] = float64(e.conflicts.Load())
	m["netserver.queue_waits"] = float64(b.net.QueueWaits - a.net.QueueWaits)
	m["netserver.shed_stmts"] = float64(b.net.ShedStmts - a.net.ShedStmts)

	// Checkpoints: how many, how long, and how much worse the commits
	// that overlapped one fared than the rest.
	var busy, longest int64
	for _, k := range e.ckpts {
		busy += k.end - k.start
		longest = max(longest, k.end-k.start)
	}
	var during, apart []int64
	for _, w := range res.writes {
		overlaps := false
		for _, k := range e.ckpts {
			overlaps = overlaps || (w.at-w.lat < k.end && w.at > k.start)
		}
		if overlaps {
			during = append(during, w.lat)
		} else {
			apart = append(apart, w.lat)
		}
	}
	sort.Slice(during, func(i, j int) bool { return during[i] < during[j] })
	sort.Slice(apart, func(i, j int) bool { return apart[i] < apart[j] })
	m["ckpt.count"] = float64(len(e.ckpts))
	m["ckpt.busy_s"] = float64(busy) / 1e9
	m["ckpt.max_ms"] = ms(float64(longest))
	m["ckpt.stall_ratio"] = ratio(quantile(during, 0.99), quantile(apart, 0.99))

	m["go.alloc_bytes_per_op"] = ratio(float64(res.mem.bytes), float64(res.ops))
	m["go.gc_cycles"] = float64(res.mem.gcCycles)
	m["go.gc_pause_total_ms"] = ms(float64(res.mem.gcPause))
}

// tracedMetrics fills the metrics of the single-client traced pass:
// counter deltas, shim meters and span times.
func (c runConfig) tracedMetrics(e *env, m map[string]float64, layers map[string]*layerTime, res loadResult, a, b counters, userBytes int64) {
	ops := float64(res.ops)
	mean := func(name string) float64 { // mean span duration, µs
		if l := layers[name]; l != nil {
			return us(float64(l.Total)) / float64(l.Count)
		}
		return 0
	}
	self := func(names ...string) (d time.Duration) {
		for _, n := range names {
			if l := layers[n]; l != nil {
				d += l.Self
			}
		}
		return d
	}

	m["sql.parse_us"] = mean("parse")
	m["sql.stmts"] = float64(b.parsed - a.parsed)
	// engine.Prepare repeats the parse the "parse" span timed.
	m["plan.prepare_us"] = 0
	if layers["plan"] != nil {
		m["plan.prepare_us"] = max(mean("plan")-mean("parse"), 0)
	}
	m["plan.prepares"] = float64(b.prepares - a.prepares)
	m["plan.chooses"] = float64(b.chooses - a.chooses)
	hits, misses := float64(b.plans.Hits-a.plans.Hits), float64(b.plans.Misses-a.plans.Misses)
	m["plan.cache_hit_ratio"] = ratio(hits, hits+misses)

	fetches, decoded := float64(b.buf.Fetches-a.buf.Fetches), float64(b.decoded-a.decoded)
	m["exec.first_row_us"] = mean("execute.first_row")
	m["exec.drain_us"] = mean("execute.drain")
	m["exec.self_us"] = us(float64(self("execute", "execute.first_row", "execute.drain"))) / ops
	m["exec.rows_per_stmt"] = ratio(float64(e.trRows), float64(e.trStmts))
	m["exec.fetches_per_stmt"] = fetches / ops
	m["exec.decoded_per_row"] = ratio(decoded, float64(e.trRows))
	m["subtuple.decoded"] = decoded
	m["subtuple.decoded_per_stmt"] = decoded / ops

	m["buffer.fetches"] = fetches
	m["buffer.hit_ratio"] = ratio(float64(b.buf.Hits-a.buf.Hits), fetches)
	m["buffer.reads"] = float64(b.buf.Reads - a.buf.Reads)
	m["buffer.writes"] = float64(b.buf.Writes - a.buf.Writes)
	m["buffer.fetches_per_op"] = fetches / ops

	sr, sw, ss := b.segRead.sub(a.segRead), b.segWrite.sub(a.segWrite), b.segSync.sub(a.segSync)
	m["segment.reads"] = float64(sr.calls)
	m["segment.read_us"] = ratio(us(float64(sr.busy)), float64(sr.calls))
	m["segment.read_busy_s"] = sr.busy.Seconds()
	m["segment.writes"] = float64(sw.calls)
	m["segment.write_bytes"] = float64(sw.bytes)
	m["segment.write_busy_s"] = sw.busy.Seconds()
	m["segment.syncs"] = float64(ss.calls)
	m["segment.sync_busy_s"] = ss.busy.Seconds()

	ww, ws := b.walWrite.sub(a.walWrite), b.walSync.sub(a.walSync)
	commits := float64(len(res.writes))
	m["wal.appended_bytes"] = float64(b.wal.End - a.wal.End)
	m["wal.bytes_per_commit"] = ratio(float64(b.wal.End-a.wal.End), commits)
	m["wal.write_calls"] = float64(ww.calls)
	m["wal.write_busy_s"] = ww.busy.Seconds()
	m["wal.fsyncs"] = float64(ws.calls)
	m["wal.fsync_p50_ms"] = ms(e.meter.walSync.hist.quantileSince(a.fsyncHist, 0.50))
	m["wal.fsync_busy_s"] = ws.busy.Seconds()
	m["wal.write_amp"] = ratio(float64(ww.bytes+sw.bytes), float64(userBytes))
	m["wal.segments"] = float64(b.wal.Segments)
	m["txn.commits"] = commits

	m["netserver.bytes_in"] = float64(b.net.BytesIn - a.net.BytesIn)
	m["netserver.bytes_out"] = float64(b.net.BytesOut - a.net.BytesOut)
	m["netserver.rows_streamed"] = float64(b.net.RowsStreamed - a.net.RowsStreamed)
	first := append([]int64(nil), e.trFirstRow...)
	sort.Slice(first, func(i, j int) bool { return first[i] < first[j] })
	m["aimnet.first_row_us"] = us(quantile(first, 0.50))

	// How much of the statement spans the layer spans account for.
	var stmt, inner time.Duration
	for name, l := range layers {
		if name == "stmt" {
			stmt = l.Total
		} else {
			inner += l.Self
		}
	}
	m["bench.span_coverage_ratio"] = ratio(float64(inner), float64(stmt))
}

// netTax runs the point and unnest reads of the traced pass again, in
// process on the same database, and compares medians: loopback over
// in-process.
func (c runConfig) netTax(e *env, m map[string]float64, traced loadResult) error {
	m["aimnet.net_tax_ratio"] = 0
	if e.srv == nil {
		return nil
	}
	flat, err := e.db.Prepare(sqlFlatPoint)
	if err != nil {
		return err
	}
	unnest, err := e.db.Prepare(sqlUnnest)
	if err != nil {
		return err
	}
	var local []int64
	for _, op := range e.trReplay {
		ps, want := flat, wantFlat(op.dept)
		if op.unnest {
			ps, want = unnest, wantUnnest(op.dept)
		}
		start := time.Now()
		if !e.checkRows(nil, func() (rowSource, error) { return ps.QueryRows(op.dept[aDNO]) }, want) {
			return fmt.Errorf("net_mixed: in-process replay disagrees with the oracle")
		}
		local = append(local, int64(time.Since(start)))
	}
	sort.Slice(local, func(i, j int) bool { return local[i] < local[j] })
	m["aimnet.net_tax_ratio"] = ratio(quantile(latencies(traced.reads), 0.50), quantile(local, 0.50))
	return nil
}

// printLayers prints the layer table of the traced pass: per span
// name, how often, how long in total and in self time, and the share
// of all statement time that self time is.
func (c runConfig) printLayers(layers map[string]*layerTime) {
	var rows []*layerTime
	var stmt time.Duration
	for _, l := range layers {
		rows = append(rows, l)
		if l.Name == "stmt" {
			stmt = l.Total
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Self > rows[j].Self })
	fmt.Fprintf(c.log, "%s traced pass, self time by span (share of statement time):\n", c.w.name())
	for _, l := range rows {
		fmt.Fprintf(c.log, "  %-20s %8d spans %10.3f ms total %10.3f ms self %5.1f%%\n",
			l.Name, l.Count, ms(float64(l.Total)), ms(float64(l.Self)), 100*ratio(float64(l.Self), float64(stmt)))
	}
}
