package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/netserver"
	"repro/internal/repl"
)

// Replication mode (-repl): measure what WAL shipping costs the
// primary and what it buys the fleet. Each rung runs the same
// concurrent-writer workload against a durable primary with 0, 1 or 2
// live followers attached over loopback; the report shows the
// primary's write throughput per rung (the shipping tax), the read
// throughput the followers add, and the apply lag the asynchronous
// design incurs (sampled during the run, and the time to drain to zero
// after the writers stop).

// replPoint is one rung of the replication ladder.
type replPoint struct {
	Followers      int     `json:"followers"`
	Writers        int     `json:"writers"`
	Commits        int     `json:"commits"`
	WriteQPS       float64 `json:"write_qps"`
	FollowerReads  int     `json:"follower_reads"`
	FollowerQPS    float64 `json:"follower_read_qps"`
	LagP50Bytes    uint64  `json:"lag_p50_bytes"`
	LagMaxBytes    uint64  `json:"lag_max_bytes"`
	DrainMs        float64 `json:"drain_ms"`
	BytesShipped   uint64  `json:"bytes_shipped"`
	SnapshotsTaken uint64  `json:"snapshots_taken"`
}

// replBenchReport is the JSON artifact of one -repl run (BENCH_10).
type replBenchReport struct {
	Bench       string      `json:"bench"`
	Workload    string      `json:"workload"`
	DurationSec float64     `json:"duration_s"`
	Points      []replPoint `json:"points"`
}

// replWriters is the number of concurrent writer goroutines on the
// primary at every rung.
const replWriters = 4

// runReplBench measures the 0/1/2-follower ladder, writing
// BENCH_10.json.
func runReplBench(duration time.Duration, outPath string, w io.Writer) error {
	rep := replBenchReport{
		Bench:       "BENCH_10 WAL-shipping replication: primary write qps vs followers, follower read qps, apply lag",
		Workload:    fmt.Sprintf("%d concurrent auto-commit INSERT/UPDATE writers on KV(K,V) VERSIONED; one point-SELECT reader per follower", replWriters),
		DurationSec: duration.Seconds(),
	}
	fmt.Fprintf(w, "\n================ replication ladder (%s per rung, %d writers) ================\n\n", duration, replWriters)
	fmt.Fprintf(w, "%10s %10s %12s %14s %12s %12s %10s %12s\n",
		"followers", "commits", "write qps", "follower qps", "lag p50", "lag max", "drain ms", "shipped")
	for _, followers := range []int{0, 1, 2} {
		pt, err := measureReplPoint(followers, duration)
		if err != nil {
			return err
		}
		rep.Points = append(rep.Points, pt)
		fmt.Fprintf(w, "%10d %10d %12.1f %14.1f %12d %12d %10.1f %12d\n",
			pt.Followers, pt.Commits, pt.WriteQPS, pt.FollowerQPS,
			pt.LagP50Bytes, pt.LagMaxBytes, pt.DrainMs, pt.BytesShipped)
	}

	if outPath != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("replbench: writing report: %w", err)
		}
		fmt.Fprintf(w, "\nreport written to %s\n", outPath)
	}
	return nil
}

// measureReplPoint runs one rung: a fresh durable primary, `followers`
// live replicas, replWriters concurrent writer goroutines for the
// duration, one reader per follower.
func measureReplPoint(followers int, duration time.Duration) (replPoint, error) {
	dir, err := os.MkdirTemp("", "aimbench-repl-*")
	if err != nil {
		return replPoint{}, err
	}
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir+"/primary", 0o755); err != nil {
		return replPoint{}, err
	}
	primary, err := engine.Open(engine.Options{Dir: dir + "/primary"})
	if err != nil {
		return replPoint{}, err
	}
	defer primary.Close()
	if _, err := primary.Exec(`CREATE TABLE KV (K INT, V INT) VERSIONED`); err != nil {
		return replPoint{}, err
	}
	for k := 0; k < 256; k++ {
		if _, err := primary.Exec(fmt.Sprintf(`INSERT INTO KV VALUES (%d, 0)`, k)); err != nil {
			return replPoint{}, err
		}
	}
	srv := netserver.New(primary, netserver.Options{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return replPoint{}, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	fls := make([]*repl.Follower, followers)
	for i := range fls {
		f, err := repl.Start(repl.Options{Addr: srv.Addr(), Dir: fmt.Sprintf("%s/follower%d", dir, i)})
		if err != nil {
			return replPoint{}, err
		}
		defer f.Close()
		if err := f.WaitApplied(primary.Log().End(), 30*time.Second); err != nil {
			return replPoint{}, fmt.Errorf("replbench: follower %d bootstrap: %w", i, err)
		}
		fls[i] = f
	}

	var commits, reads atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, replWriters+followers)

	for wi := 0; wi < replWriters; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wi) + 1))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(256)
				var q string
				if i%4 == 0 {
					q = fmt.Sprintf(`INSERT INTO KV VALUES (%d, %d)`, 1000+rng.Intn(100000), i)
				} else {
					q = fmt.Sprintf(`UPDATE x IN KV SET V = %d WHERE x.K = %d`, i, k)
				}
				if _, err := primary.Exec(q); err != nil {
					errs[wi] = err
					return
				}
				commits.Add(1)
			}
		}(wi)
	}
	for fi, f := range fls {
		wg.Add(1)
		go func(fi int, f *repl.Follower) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(fi) + 100))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := fmt.Sprintf(`SELECT x.V FROM x IN KV WHERE x.K = %d`, rng.Intn(256))
				if _, _, err := f.DB().Query(q); err != nil {
					errs[replWriters+fi] = err
					return
				}
				reads.Add(1)
			}
		}(fi, f)
	}

	// Sample apply lag while the workload runs.
	var lags []uint64
	deadline := time.Now().Add(duration)
	for time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		for _, f := range fls {
			if db := f.DB(); db != nil {
				lags = append(lags, db.ReplStats().LagBytes)
			}
		}
	}
	close(stop)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return replPoint{}, err
		}
	}

	// Drain: how long until every follower has applied the whole log.
	drainStart := time.Now()
	end := primary.Log().End()
	for _, f := range fls {
		if err := f.WaitApplied(end, 30*time.Second); err != nil {
			return replPoint{}, fmt.Errorf("replbench: drain: %w", err)
		}
	}
	drain := time.Since(drainStart)

	pt := replPoint{
		Followers: followers,
		Writers:   replWriters,
		Commits:   int(commits.Load()),
		WriteQPS:  float64(commits.Load()) / duration.Seconds(),
	}
	if followers > 0 {
		pt.FollowerReads = int(reads.Load())
		pt.FollowerQPS = float64(reads.Load()) / duration.Seconds()
		pt.DrainMs = float64(drain.Milliseconds())
		for _, f := range fls {
			st := f.DB().ReplStats()
			pt.SnapshotsTaken += st.SnapshotsTaken
		}
		pt.BytesShipped = primary.ReplStats().BytesShipped
		if len(lags) > 0 {
			sorted := append([]uint64(nil), lags...)
			for i := 1; i < len(sorted); i++ { // insertion sort: small n
				for j := i; j > 0 && sorted[j-1] > sorted[j]; j-- {
					sorted[j-1], sorted[j] = sorted[j], sorted[j-1]
				}
			}
			pt.LagP50Bytes = sorted[len(sorted)/2]
			pt.LagMaxBytes = sorted[len(sorted)-1]
		}
	}
	return pt, nil
}
