package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareFiles applies each end-to-end metric's bound from
// BENCHMARK.json to two result files of `bash bench/run.sh` (A the
// parent, B the change) and prints one row per workload × metric:
//
//	ok          B's median is no worse than A's by more than the bound;
//	worse       it is;
//	unresolved  either side's run-to-run spread (interquartile range
//	            over median, four runs or more) is wider than the bound,
//	            so "no worse" cannot be told from noise.
//
// It fails on any `worse` row and on a higher failure share.
func compareFiles(spec *benchSpec, pathA, pathB string, w io.Writer) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	worse := 0
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, wl := range spec.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			return fmt.Errorf("compare: workload %s is missing from a result file", wl.Name)
		}
		for _, d := range spec.EndToEnd {
			va, vb := series(ra.EndToEnd, d.Name), series(rb.EndToEnd, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("compare: %s has no %s", wl.Name, d.Name)
			}
			ma, mb := median(va), median(vb)
			change := ratio(mb-ma, ma) // positive: B is larger
			if d.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case change > d.Bound:
				verdict = "worse"
				worse++
			case spread(va) > d.Bound || spread(vb) > d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-14s %-14s %14.6g %14.6g %+7.1f%% %6.0f%%  %s\n", wl.Name, d.Name, ma, mb, 100*ratio(mb-ma, ma), 100*d.Bound, verdict)
		}
		fa, fb := failShare(ra.EndToEnd), failShare(rb.EndToEnd)
		verdict := "ok"
		if fb > fa {
			verdict = "worse"
			worse++
		}
		fmt.Fprintf(w, "%-14s %-14s %14.6g %14.6g %8s %7s  %s\n", wl.Name, "fail_ratio", fa, fb, "", "", verdict)
	}
	if worse > 0 {
		return fmt.Errorf("compare: %d rows worse than their bound", worse)
	}
	return nil
}

func readResult(path string) (*fileResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f fileResult
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// series collects one metric's value from every run.
func series(runs []*result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// failShare is failed operations over attempted ones, all runs.
func failShare(runs []*result) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

// spread is the distance between the first and third quartile as a
// share of the median, by the method of Python's
// statistics.quantiles(n=4) (exclusive); 0 with fewer than four runs.
func spread(vs []float64) float64 {
	if len(vs) < 4 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return ratio(q(3)-q(1), median(s))
}
