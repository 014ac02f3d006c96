package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef is one workload of BENCHMARK.json.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec mirrors BENCHMARK.json. The harness does not read it to
// measure — the names it emits are fixed in run.go — but -compare
// takes its bounds from it and the smoke test holds the two together.
type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory (run.sh
// starts the harness at the root of the checkout) or, for `go test` and
// `go run .` inside bench/, from its parent. It also returns the
// directory the file was found in.
func loadSpec() (spec *benchSpec, root string, err error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, dir, nil
	}
	return nil, "", firstErr
}

// value is one measured metric as it appears in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the driver's contract.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}
