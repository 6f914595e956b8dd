package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// TestSmoke runs every workload, timed and traced, at a scale of a few
// hundred states per search (runConfig.small), and checks the contract
// between the program, the metric catalogue and BENCHMARK.json: every
// declared name is emitted exactly once per run, nothing undeclared is,
// values are finite, counts equal the golden table, and no op fails.
func TestSmoke(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	declared, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(declared, manifestJSON()) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with: go run ./bench -manifest > BENCHMARK.json")
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	e2e, layer := 0, 0
	for _, d := range metricDefs {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is not [A-Za-z0-9_/%%.-]{1,16}", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
		switch {
		case !d.Driver:
		case d.declaredEndToEnd():
			e2e++
			if d.Bound <= 0 || d.Bound > 0.25 {
				t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
			}
		default:
			layer++
		}
	}
	if n := len(workloadWhy); n != 4 {
		t.Errorf("%d workloads, want 4", n)
	}
	for _, w := range workloadWhy {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if e2e < 1 || e2e > 16 || layer < 1 || layer > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics declared; limits are 16 and 128", e2e, layer)
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}

	// Noise can push a difference of two measured times below zero.
	mayBeNegative := map[string]bool{"obs.trace_overhead_share": true, "checker.search_self_ns_per_state": true, "blocks.compose_self_ms": true}
	outDir := t.TempDir()
	for _, w := range workloadWhy {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runConfig{Workload: w.Name, Seed: 1, Seconds: 0.1, Traced: traced,
				OutDir: outDir, start: time.Now(), golden: golden, small: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", w.Name, traced, res.Failed, res.Attempted, res.Failures)
			}
			got := map[string]int{}
			for _, m := range res.Metrics {
				got[m.Name]++
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (m.Value < 0 && !mayBeNegative[m.Name]) {
					t.Errorf("%s traced=%v: %s = %v", w.Name, traced, m.Name, m.Value)
				}
			}
			for _, d := range metricDefs {
				n, reports := got[d.Name], d.reportedBy(w.Name)
				switch {
				case d.endToEnd() && !traced && reports && n != 1,
					!d.endToEnd() && traced && reports && n != 1:
					t.Errorf("%s traced=%v: %s emitted %d times, want 1", w.Name, traced, d.Name, n)
				case !reports && n != 0, !d.endToEnd() && !traced && n != 0, n > 1:
					t.Errorf("%s traced=%v: %s emitted %d times, want 0", w.Name, traced, d.Name, n)
				}
			}
			line, err := driverMetrics(res)
			if err != nil {
				t.Error(err)
			}
			wantLine := e2e
			if traced {
				wantLine = layer
			}
			if len(line) != wantLine {
				t.Errorf("%s traced=%v: driver line has %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(line), wantLine)
			}
			if v, ok := res.get("checker.states_stored"); ok {
				id := runConfig{small: true}.searchDesigns().verified
				if int(v) != golden[id].States {
					t.Errorf("%s: checker.states_stored %v, golden %d", w.Name, v, golden[id].States)
				}
			}
			if traced {
				if _, err := os.Stat(outDir + "/trace-" + w.Name + ".json"); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
		}
	}
}
