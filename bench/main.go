// Command bench is the repository's one committed benchmark: four named
// workloads over real files and real fsync, measured end to end with
// tracing off and layer by layer in a separate traced run, every answer
// checked against a generator-side oracle. BENCHMARK.json at the
// repository root names its workloads, metrics and bounds; README.md
// in this directory explains them. The harness is a module of its own
// (go.mod here, replacing repro with the parent directory); run.sh
// builds it into .bench_build/ and runs it from the repository root:
//
//	bash bench/run.sh --workload point_warm --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                     # all workloads, both runs, bench/out/result.json
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four, untraced then traced)")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 0, "timed window in seconds (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		runs    = flag.Int("runs", 1, "without -workload: how many seeds to run, from -seed upward")
		outPath = flag.String("out", "", "without -workload: where to write the machine-readable result (default: result.json in -dir)")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		base    = flag.String("dir", "", "directory for traces, results and database files (default: bench/out beside BENCHMARK.json)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *runs, *outPath, *compare, *base, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace, runs int, outPath string, compare bool, base string, args []string) error {
	spec, root, err := loadSpec()
	if err != nil {
		return err
	}
	if base == "" {
		base = filepath.Join(root, "bench", "out")
	}
	if outPath == "" {
		outPath = filepath.Join(base, "result.json")
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two result files")
		}
		return compareFiles(spec, args[0], args[1], os.Stdout)
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	cfg := runConfig{sz: full, seed: seed, seconds: seconds, base: base, log: os.Stdout}
	if name == "" {
		return runAll(spec, cfg, runs, outPath)
	}
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	cfg.w = w
	res, err := cfg.measure(spec, trace == 1)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure makes one run and shapes it into the result line: exactly
// the metrics BENCHMARK.json lists for that kind of run, each with its
// unit. A metric the harness did not produce, or produced without
// being listed, is an error — the spec and the harness cannot drift.
func (c runConfig) measure(spec *benchSpec, traced bool) (*result, error) {
	defs, do := spec.EndToEnd, c.endToEnd
	if traced {
		defs, do = spec.PerLayer, c.perLayer
	}
	out, err := do()
	if err != nil {
		return nil, err
	}
	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s is in BENCHMARK.json but was not measured", c.w.name(), d.Name)
		}
		res.Metrics[d.Name] = value{v, d.Unit}
		fmt.Fprintf(c.log, "  %-28s %16.6g %s\n", d.Name, v, d.Unit)
	}
	if len(out.metrics) != len(defs) {
		var extra []string
		for name := range out.metrics {
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("%s: measured but not in BENCHMARK.json: %v", c.w.name(), extra)
	}
	return res, nil
}

// fileResult is the machine-readable result of a full run: per
// workload, every run's result lines (untraced and traced).
type fileResult struct {
	Seconds   float64                  `json:"seconds"`
	Seeds     []int64                  `json:"seeds"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	EndToEnd []*result `json:"end_to_end"`
	PerLayer []*result `json:"per_layer"`
}

// runAll is `bash bench/run.sh`: every workload, untraced then traced,
// for each seed, all metrics printed by name and one JSON file written.
func runAll(spec *benchSpec, cfg runConfig, runs int, outPath string) error {
	file := fileResult{Seconds: cfg.seconds, Workloads: map[string]*workloadRuns{}}
	for first := cfg.seed; cfg.seed < first+int64(runs); cfg.seed++ {
		file.Seeds = append(file.Seeds, cfg.seed)
		for _, w := range workloads {
			cfg.w = w
			wr := file.Workloads[w.name()]
			if wr == nil {
				wr = &workloadRuns{}
				file.Workloads[w.name()] = wr
			}
			fmt.Fprintf(cfg.log, "== %s, seed %d, untraced\n", w.name(), cfg.seed)
			e2e, err := cfg.measure(spec, false)
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.log, "== %s, seed %d, traced\n", w.name(), cfg.seed)
			layers, err := cfg.measure(spec, true)
			if err != nil {
				return err
			}
			wr.EndToEnd = append(wr.EndToEnd, e2e)
			wr.PerLayer = append(wr.PerLayer, layers)
		}
	}
	blob, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "result written to %s\n", outPath)
	return nil
}
