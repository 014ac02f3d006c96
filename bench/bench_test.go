package main

import (
	"io"
	"regexp"
	"sort"
	"testing"
)

// TestSmoke runs every workload at toy size, untraced and traced, and
// holds the harness to BENCHMARK.json: the workloads are exactly the
// listed ones, each run emits exactly the listed metrics (measure
// fails on a missing or an extra one), every name is well-formed, no
// operation fails, and a second seed also passes the oracle. It makes
// no claim about any timing, so it is safe under -short and -race.
func TestSmoke(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var listed, have []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.name())
	}
	sort.Strings(listed)
	sort.Strings(have)
	if len(listed) != len(have) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the harness has %v", listed, have)
	}
	for i := range listed {
		if listed[i] != have[i] {
			t.Fatalf("BENCHMARK.json lists workloads %v, the harness has %v", listed, have)
		}
	}

	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, name := range listed {
		if !wellFormed.MatchString(name) || seen[name] {
			t.Errorf("workload name %q is malformed or repeated", name)
		}
		seen[name] = true
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !wellFormed.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		hasSetup = hasSetup || d.Name == "setup_s"
	}
	if !hasSetup {
		t.Error("BENCHMARK.json has no setup_s")
	}

	for _, w := range workloads {
		w := w
		t.Run(w.name(), func(t *testing.T) {
			cfg := runConfig{w: w, sz: toy, seed: 1, seconds: 0.4, base: t.TempDir(), log: io.Discard}
			for _, traced := range []bool{false, true} {
				res, err := cfg.measure(spec, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
					t.Errorf("traced=%v: %d of %d operations failed", traced, res.Failed, res.Attempted)
				}
				for name, v := range res.Metrics {
					if v.Unit == "" {
						t.Errorf("metric %s has no unit", name)
					}
				}
				if !traced {
					for name, v := range res.Metrics {
						if v.Value <= 0 {
							t.Errorf("end-to-end metric %s is %v, must be positive", name, v.Value)
						}
					}
				}
			}
			cfg.seed = 2
			res, err := cfg.measure(spec, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Errorf("seed 2: %d of %d operations failed", res.Failed, res.Attempted)
			}
		})
	}
}

// TestOracleCatchesWrongAnswers makes sure a wrong row is a failure:
// the hash is order-insensitive for relations but not value-blind.
func TestOracleCatchesWrongAnswers(t *testing.T) {
	e, err := newEnv(pointWarm{}, toy, 3, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.destroy()
	if err := (pointWarm{}).setup(e); err != nil {
		t.Fatal(err)
	}
	d := e.shards[0].depts[0]
	text := `SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 100`
	if !e.queryText(nil, text, wantFlat(d)) {
		t.Error("the right answer was rejected")
	}
	if e.queryText(nil, text, wantFlat(e.shards[0].depts[1])) {
		t.Error("another department's answer was accepted")
	}
	if e.queryText(nil, text, expect{2, wantFlat(d).hash}) {
		t.Error("a wrong row count was accepted")
	}
	if bad, err := e.verifyAll(); err != nil || bad != 0 {
		t.Errorf("verifyAll on a fresh load: %d bad, %v", bad, err)
	}
	d[aBUDGET] = d[aMGRNO] // the oracle now disagrees with the database
	if bad, err := e.verifyAll(); err != nil || bad != 1 {
		t.Errorf("verifyAll after a lost update: %d bad (want 1), %v", bad, err)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(vs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
