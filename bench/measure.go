package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// opClass says which latency metric an operation feeds.
type opClass uint8

const (
	classRead opClass = iota
	classWrite
)

// client is one seeded load generator bound to one connection (or one
// in-process caller). step runs its next operation to completion —
// last row drained, cursor closed, commit acknowledged — checks the
// answer against the oracle and reports the operation's class and
// whether it failed. tr is nil outside the traced pass.
type client interface {
	step(tr *tracer) (opClass, bool)
}

// sample is one completed operation: when it completed (nanoseconds
// since the window began) and how long it took.
type sample struct{ at, lat int64 }

// loadResult is what one timed window (or one count-bound pass) saw.
type loadResult struct {
	elapsed time.Duration
	// rate is the clients' own rates added up: each client's operations
	// over the time to its own last completion, so that a client waiting
	// at the end for the other to finish its cycle does not count as slow.
	rate   float64
	ops    int
	failed int
	reads  []sample
	writes []sample
	lag    []int64 // open loop only: how late each request was sent
	mem    memDelta
}

// memDelta is the process-wide allocation and GC activity of a window.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
}

func memNow() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(a runtime.MemStats) memDelta {
	b := memNow()
	return memDelta{b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, b.NumGC - a.NumGC, time.Duration(b.PauseTotalNs - a.PauseTotalNs)}
}

// clientLog is what one client goroutine records; merged afterwards
// so the hot loop shares nothing.
type clientLog struct {
	ops, failed   int
	last          int64 // when the last operation completed
	reads, writes []sample
	lag           []int64
}

func (l *clientLog) note(class opClass, failed bool, at, lat int64) {
	l.ops++
	l.last = at
	if failed {
		l.failed++
	}
	if class == classWrite {
		l.writes = append(l.writes, sample{at, lat})
	} else {
		l.reads = append(l.reads, sample{at, lat})
	}
}

func merge(logs []clientLog, elapsed time.Duration, mem memDelta) loadResult {
	r := loadResult{elapsed: elapsed, mem: mem}
	for i := range logs {
		r.ops += logs[i].ops
		r.rate += ratio(float64(logs[i].ops), float64(logs[i].last)/1e9)
		r.failed += logs[i].failed
		r.reads = append(r.reads, logs[i].reads...)
		r.writes = append(r.writes, logs[i].writes...)
		r.lag = append(r.lag, logs[i].lag...)
	}
	return r
}

// runClosed drives a closed loop: every client sends its next
// operation as soon as the previous one completes, until d has passed.
// The deadline is only looked at every `unit` operations, so a client
// always finishes a whole cycle and per-operation averages are not
// skewed by half-run cycles. elapsed runs to the last completion.
func runClosed(e *env, clients []client, d time.Duration, unit int) loadResult {
	e.beginWindow()
	runtime.GC()
	before := memNow()
	logs := make([]clientLog, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(c client, log *clientLog) {
			defer wg.Done()
			for n := 0; ; n++ {
				t0 := time.Now()
				if n%unit == 0 && t0.Sub(start) >= d {
					return
				}
				class, failed := c.step(nil)
				t1 := time.Now()
				log.note(class, failed, int64(t1.Sub(start)), int64(t1.Sub(t0)))
				if !e.after(class) {
					log.failed++
				}
			}
		}(clients[i], &logs[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	return merge(logs, elapsed, memSince(before))
}

// runCount drives one client through exactly n operations, traced or
// not: the count-bound pass whose counters repeat exactly.
func runCount(e *env, c client, n int, tr *tracer) loadResult {
	e.beginWindow()
	runtime.GC()
	before := memNow()
	var log clientLog
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		class, failed := c.step(tr)
		t1 := time.Now()
		log.note(class, failed, int64(t1.Sub(start)), int64(t1.Sub(t0)))
		if !e.after(class) {
			log.failed++
		}
	}
	elapsed := time.Since(start)
	return merge([]clientLog{log}, elapsed, memSince(before))
}

// runOpen drives an open loop: requests fall due at a fixed total rate
// (spread evenly over the clients, each with its own staggered
// schedule) whether or not earlier ones have completed, and every
// request is timed from its due time, so the wait a stall imposes on
// later requests is counted. A connection carries one request at a
// time; a request that falls due while the previous one is in flight
// is sent late and the lateness is recorded.
func runOpen(e *env, clients []client, rate float64, d time.Duration) loadResult {
	e.beginWindow()
	runtime.GC()
	before := memNow()
	logs := make([]clientLog, len(clients))
	interval := time.Duration(float64(len(clients)) / rate * float64(time.Second))
	slack := sleepOvershoot() + 150*time.Microsecond
	start := time.Now()
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int, c client, log *clientLog) {
			defer wg.Done()
			offset := interval * time.Duration(i) / time.Duration(len(clients))
			for k := 0; ; k++ {
				due := offset + interval*time.Duration(k)
				if due >= d {
					return
				}
				// Sleep short of the due time by what a sleep overshoots
				// here, then yield until it is due: the generator's own
				// lateness must not pass for the server's latency.
				if wait := due - time.Since(start); wait > slack {
					time.Sleep(wait - slack)
				}
				for time.Since(start) < due {
					runtime.Gosched()
				}
				sent := time.Since(start)
				class, failed := c.step(nil)
				done := time.Since(start)
				log.lag = append(log.lag, int64(sent-due))
				log.note(class, failed, int64(done), int64(done-due))
				if !e.after(class) {
					log.failed++
				}
			}
		}(i, clients[i], &logs[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	return merge(logs, elapsed, memSince(before))
}

// sleepOvershoot measures how much longer than asked a short sleep
// takes on this machine (a timer tick, typically): the median of a few.
func sleepOvershoot() time.Duration {
	const ask = 200 * time.Microsecond
	over := make([]float64, 9)
	for i := range over {
		t0 := time.Now()
		time.Sleep(ask)
		over[i] = float64(time.Since(t0) - ask)
	}
	return time.Duration(median(over))
}

// latencies returns the samples' latencies, sorted.
func latencies(ss ...[]sample) []int64 {
	var out []int64
	for _, s := range ss {
		for _, x := range s {
			out = append(out, x.lat)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile reads quantile q from sorted values (0 when empty).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))])
}

// minPerPart is how many samples every part of a timed window needs
// before the percentiles are taken per part: p95 then has fifty samples
// beyond it in each.
const minPerPart = 1000

// steady reduces the parts of a timed window to its three headline
// numbers so that one hiccup of the sandbox does not move them: each
// number is the median over the parts. Throughput is always taken that
// way; the percentiles only when every part holds at least minPerPart
// samples, otherwise over all parts pooled. Rates count every completed
// operation; the caller scales by the verified share.
func steady(parts []loadResult) (opsPerS, p50, p95 float64) {
	rates, p50s, p95s := make([]float64, len(parts)), make([]float64, len(parts)), make([]float64, len(parts))
	var pooled [][]sample
	fewest := parts[0].ops
	for k, p := range parts {
		lats := latencies(p.reads, p.writes)
		rates[k], p50s[k], p95s[k] = p.rate, quantile(lats, 0.50), quantile(lats, 0.95)
		pooled = append(pooled, p.reads, p.writes)
		fewest = min(fewest, len(lats))
	}
	if fewest < minPerPart {
		all := latencies(pooled...)
		return median(rates), quantile(all, 0.50), quantile(all, 0.95)
	}
	return median(rates), median(p50s), median(p95s)
}

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

// median returns the middle of vs (mean of the middle two when even).
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// lowerQuartile returns the value a quarter of the way up sorted vs.
func lowerQuartile(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	return s[(len(s)-1)/4]
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
