// Command aimbench regenerates every table (T1-T8) and figure
// (F1-F8) of the paper and runs the quantitative storage and
// addressing experiments behind its qualitative claims.
//
// Usage:
//
//	aimbench              # run everything
//	aimbench -run T5      # one artifact
//	aimbench -run F7      # one figure
//	aimbench -experiments # only the quantitative experiments
//	aimbench -scale 4     # scale factor for the experiment workloads
//	aimbench -repl -duration 3s -rout BENCH_10.json
//	                      # replication ladder: primary write qps with
//	                      # 0/1/2 WAL-shipping followers, follower read
//	                      # qps and apply lag
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/testdata"
)

func main() {
	run := flag.String("run", "", "single artifact id (T1..T8, F1..F8)")
	experimentsOnly := flag.Bool("experiments", false, "run only the quantitative experiments")
	scale := flag.Int("scale", 1, "workload scale factor for the experiments")
	dir := flag.String("dir", "", "materialize the office database on disk at this directory after the run (inspect it with aimdoctor)")
	replMode := flag.Bool("repl", false, "replication mode: primary write qps with 0/1/2 WAL-shipping followers, follower read qps and apply lag")
	duration := flag.Duration("duration", 2*time.Second, "how long each replication rung runs (with -repl)")
	rout := flag.String("rout", "BENCH_10.json", "replication report path (with -repl; empty disables the file)")
	flag.Parse()

	if *replMode {
		if err := runReplBench(*duration, *rout, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "aimbench:", err)
			os.Exit(1)
		}
		return
	}

	if *run != "" {
		if err := runOne(*run, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "aimbench:", err)
			os.Exit(1)
		}
		materialize(*dir)
		return
	}
	if err := runAll(os.Stdout, *experimentsOnly, *scale); err != nil {
		fmt.Fprintln(os.Stderr, "aimbench:", err)
		os.Exit(1)
	}
	materialize(*dir)
}

// runAll writes what aimbench prints without -run or -repl: every
// paper artifact (unless experimentsOnly), then the quantitative
// experiments. Its output carries no timings, so it is deterministic.
func runAll(out io.Writer, experimentsOnly bool, scale int) error {
	if !experimentsOnly {
		for _, id := range core.AllIDs() {
			if err := runOne(id, out); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
	}
	return runExperiments(out, scale)
}

// materialize writes the office database to disk at dir (when set) so
// post-run tooling — aimdoctor scan/verify in particular — has a real
// bench-produced database to work on.
func materialize(dir string) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "aimbench: materialize:", err)
		os.Exit(1)
	}
	db, err := core.OfficeAt(dir)
	if err == nil {
		err = db.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aimbench: materialize:", err)
		os.Exit(1)
	}
	fmt.Printf("\noffice database written to %s (try: aimdoctor -dir %s verify)\n", dir, dir)
}

// runOne regenerates a single paper artifact and writes its report.
func runOne(id string, out io.Writer) error {
	rep, err := core.Run(strings.ToUpper(id))
	if err != nil {
		return err
	}
	printReport(out, rep)
	return nil
}

func printReport(out io.Writer, rep core.Report) {
	fmt.Fprintf(out, "\n================ %s — %s ================\n\n", rep.ID, rep.Title)
	fmt.Fprintln(out, rep.Text)
}

func runExperiments(out io.Writer, scale int) error {
	fmt.Fprintf(out, "\n================ quantitative experiments (scale %d) ================\n", scale)

	fmt.Fprintln(out, "\n--- E1: storage structures SS1/SS2/SS3 at scale (§4.1, /DGW85/) ---")
	layoutRows, err := core.CompareLayouts(testdata.GenConfig{
		Departments: 50 * scale, ProjsPerDept: 8, MembersPerProj: 15, EquipPerDept: 5, Seed: 42,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-6s %12s %10s %10s %8s %12s %11s %13s %10s %12s\n",
		"layout", "MD subtuples", "MD bytes", "pointers", "pages", "build fetch", "read pages", "read decoded", "nav pages", "nav decoded")
	for _, r := range layoutRows {
		fmt.Fprintf(out, "%-6s %12d %10d %10d %8d %12d %11d %13d %10d %12d\n",
			r.Layout, r.MDSubtuples, r.MDBytes, r.Pointers, r.Pages,
			r.BuildFetches, r.ReadFetches, r.ReadDecoded, r.NavFetches, r.NavDecoded)
	}
	fmt.Fprintln(out, "shape: #MD subtuples and subtuples decoded per read SS1 > SS3 > SS2; pages pinned per read = pages of the object under every layout")

	fmt.Fprintln(out, "\n--- E2: index address strategies (Fig 7 at scale, §4.2) ---")
	stratRes, err := core.CompareIndexStrategies(testdata.GenConfig{
		Departments: 100 * scale, ProjsPerDept: 8, MembersPerProj: 15, EquipPerDept: 4,
		Seed: 7, ConsultantEvery: 9,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "conjunctive query: project PNO=%d with a Consultant\n", stratRes.TargetPNO)
	fmt.Fprintf(out, "%-14s %18s %13s %10s\n", "strategy", "subtuple accesses", "pages pinned", "results")
	for _, r := range stratRes.Rows {
		fmt.Fprintf(out, "%-14s %18d %13d %10d\n", r.Strategy, r.Decoded, r.Fetches, r.Results)
	}
	fmt.Fprintln(out, "shape: HIERARCHICAL << ROOT << DATA (hierarchical addresses avoid all scans)")

	fmt.Fprintln(out, "\n--- E3: clustering — local address spaces vs Lorie's 'on top' tuples (§1, §4.1) ---")
	clusterRows, err := core.CompareClustering(16*scale, 5, 12, 40, 3)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-34s %14s %10s %8s\n", "system", "physical reads", "fetches", "pages")
	for _, r := range clusterRows {
		fmt.Fprintf(out, "%-34s %14d %10d %8d\n", r.System, r.PhysicalReads, r.Fetches, r.PagesTotal)
	}
	fmt.Fprintln(out, "shape: cold whole-object reads touch far fewer pages with clustering")

	fmt.Fprintln(out, "\n--- E4: page-level checkout cost vs object size (§4.1) ---")
	checkoutRows, err := core.MeasureCheckout([]int{10, 100, 1000, 5000})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%8s %10s %7s %18s\n", "members", "subtuples", "pages", "relocate fetches")
	for _, r := range checkoutRows {
		if r.Refused != "" {
			fmt.Fprintf(out, "%8d %10d %7d %18s  %s\n", r.Members, r.Subtuples, r.Pages, "refused", r.Refused)
			continue
		}
		fmt.Fprintf(out, "%8d %10d %7d %18d\n", r.Members, r.Subtuples, r.Pages, r.RelocateFetches)
	}
	fmt.Fprintln(out, "shape: relocation cost follows pages, not subtuples (Mini TIDs survive the move)")

	fmt.Fprintln(out, "\n--- E5: ASOF cost vs version-chain depth (§5) ---")
	asofRows, err := core.MeasureASOF([]int{1, 10, 100, 1000, 10000})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%10s %16s %16s\n", "versions", "latest decoded", "oldest decoded")
	for _, r := range asofRows {
		fmt.Fprintf(out, "%10d %16d %16d\n", r.Versions, r.DecodedLatest, r.DecodedOldest)
	}
	fmt.Fprintln(out, "shape: current state is O(1); time travel is O(log versions)")
	return nil
}
