// Command bench is the repository's benchmark: four workloads, an
// end-to-end verdict time for each, and a per-layer breakdown from a
// separate traced run. See README.md in this directory.
//
//	go run ./bench                      all four workloads, timed then traced
//	go run ./bench -workload NAME       one workload
//	go run ./bench -check-repeat        everything twice; exit 1 past a bound
//	go run ./bench -update-golden       regenerate bench/golden/*.tsv
//
// With -workload and -trace both given it runs that one workload in
// this process and prints one JSON object as its last line of output —
// the form the PR driver calls (BENCHMARK.json at the repository root).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

var processStart = time.Now()

// runConfig is one workload run.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Traced   bool
	// Reverse flips the mode order of search_modes; -check-repeat sets it
	// on its second pass so an order effect cannot hide.
	Reverse bool
	OutDir  string

	start  time.Time // set-up is timed from here
	golden goldenTable
	// small swaps the bridge for designs of a few hundred states. Only
	// the smoke test sets it; it is not a user knob.
	small bool
}

// defaultSeconds is the measuring time every count is sized for; the
// driver passes the same value as run_seconds.
const defaultSeconds = 20

func main() {
	var (
		workload    = flag.String("workload", "", "run only this workload ("+strings.Join(workloadNames(), ", ")+")")
		seed        = flag.Int64("seed", 1, "seed for every generated input")
		seconds     = flag.Float64("seconds", defaultSeconds, "measuring time the fixed op counts are sized for")
		trace       = flag.Int("trace", 0, "with -workload: 0 runs timed and prints end-to-end metrics, 1 runs traced and prints per-layer metrics")
		outDir      = flag.String("out", filepath.Join("bench", "out"), "directory for results, trace files and scratch data")
		checkRepeat = flag.Bool("check-repeat", false, "run the set twice and fail if any end-to-end metric moves past its bound or any exact count differs")
		updateGold  = flag.Bool("update-golden", false, "regenerate bench/golden/*.tsv (run from the repository root)")
		manifest    = flag.Bool("manifest", false, "print BENCHMARK.json as the metric catalogue defines it")
		reverse     = flag.Bool("reverse", false, "internal: second pass of -check-repeat")
		resultFile  = flag.String("result", "", "internal: also write the full result JSON here")
		traceWasSet bool
	)
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		traceWasSet = traceWasSet || f.Name == "trace"
	})
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *workload != "" && !slices.Contains(workloadNames(), *workload) {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}

	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
	case *updateGold:
		if err := updateGolden("bench"); err != nil {
			fatal(err)
		}
	case *workload != "" && traceWasSet:
		cfg := runConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Traced: *trace == 1,
			Reverse: *reverse, OutDir: *outDir, start: processStart}
		if err := runSingle(cfg, *resultFile); err != nil {
			fatal(err)
		}
	default:
		names := workloadNames()
		if *workload != "" {
			names = []string{*workload}
		}
		if err := runSet(names, *seed, *seconds, *outDir, *checkRepeat); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	out := make([]string, len(workloadWhy))
	for i, w := range workloadWhy {
		out[i] = w.Name
	}
	return out
}

// runWorkload runs one workload in this process.
func runWorkload(cfg runConfig) (*Result, error) {
	if cfg.golden == nil {
		g, err := loadGolden()
		if err != nil {
			return nil, err
		}
		cfg.golden = g
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	var res *Result
	var err error
	switch cfg.Workload {
	case wSearchExhaustive:
		res, err = runSearchExhaustive(cfg)
	case wSearchModes:
		res, err = runSearchModes(cfg)
	case wServiceEditLoop, wFleetDurable:
		res, err = runService(cfg)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	res.Workload, res.Traced, res.Seed, res.Seconds = cfg.Workload, cfg.Traced, cfg.Seed, cfg.Seconds
	res.WallS = time.Since(cfg.start).Seconds()
	return res, nil
}

// driverLine is the last line of output the PR driver parses.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverMetrics projects a result onto the metrics BENCHMARK.json
// declares for its kind of run. The driver wants every declared metric
// from every workload; a per-layer metric of a layer this workload does
// not exercise reads 0.
func driverMetrics(res *Result) (map[string]driverValue, error) {
	out := make(map[string]driverValue)
	for _, d := range metricDefs {
		if !d.Driver || d.declaredEndToEnd() == res.Traced {
			continue
		}
		v, ok := res.get(d.Name)
		if !ok && d.reportedBy(res.Workload) && res.Failed == 0 {
			return nil, fmt.Errorf("%s did not report %s", res.Workload, d.Name)
		}
		out[d.Name] = driverValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// runSingle is the driver's form, and the form the parent uses for its
// children: one workload, in this process.
func runSingle(cfg runConfig, resultFile string) error {
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "bench: failed op:", f)
	}
	if resultFile != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(resultFile, data, 0o644); err != nil {
			return err
		}
	}
	metrics, err := driverMetrics(res)
	if err != nil {
		return err
	}
	line, err := json.Marshal(driverLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setResult is what `go run ./bench` writes to <out>/results.json.
type setResult struct {
	Env     Env       `json:"env"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Results []*Result `json:"results"`
}

// runChild re-executes this binary for one workload run, so peak RSS
// and GC state belong to that run alone.
func runChild(cfg runConfig) (*Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	kind := "timed"
	traceArg := "0"
	if cfg.Traced {
		kind, traceArg = "traced", "1"
	}
	file := filepath.Join(cfg.OutDir, fmt.Sprintf("result-%s-%s.json", cfg.Workload, kind))
	args := []string{"-workload", cfg.Workload, "-seed", fmt.Sprint(cfg.Seed), "-seconds", fmt.Sprint(cfg.Seconds),
		"-trace", traceArg, "-out", cfg.OutDir, "-result", file}
	if cfg.Reverse {
		args = append(args, "-reverse")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (%s): %w", cfg.Workload, kind, err)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// runSet runs each named workload timed, then traced, each run in its
// own child process, printing results as they arrive. With checkRepeat
// every run is made twice, back to back — the machine's speed drifts
// over minutes, so the two passes are interleaved rather than run one
// after the other — and the second pass reverses search_modes' order.
func runSet(names []string, seed int64, seconds float64, outDir string, checkRepeat bool) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	env := currentEnv()
	fmt.Printf("# %s, nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d, load %.2f\n",
		env.CPUModel, env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit, seed, env.Load1)
	var first, second []*Result
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{Workload: name, Seed: seed, Seconds: seconds, Traced: traced, OutDir: outDir}
			res, err := runChild(cfg)
			if err != nil {
				return err
			}
			printResult(res)
			first = append(first, res)
			if checkRepeat {
				cfg.Reverse = true
				if res, err = runChild(cfg); err != nil {
					return err
				}
				fmt.Print("\n-- second pass")
				printResult(res)
				second = append(second, res)
			}
		}
	}
	data, err := json.MarshalIndent(setResult{Env: env, Seed: seed, Seconds: seconds, Results: first}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "results.json"), data, 0o644); err != nil {
		return err
	}
	if checkRepeat {
		diffs := compareRuns(first, second)
		for _, d := range diffs {
			fmt.Println("REPEAT", d)
		}
		if len(diffs) > 0 {
			return fmt.Errorf("%d metrics did not repeat", len(diffs))
		}
		fmt.Println("# both passes agree within every bound; every exact count is identical")
	}
	if failed := failedOps(first) + failedOps(second); failed > 0 {
		return fmt.Errorf("%d failed ops", failed)
	}
	return nil
}

func failedOps(rs []*Result) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

// compareRuns lists every end-to-end metric that moved by more than its
// bound between two passes and every exact count that moved at all.
func compareRuns(a, b []*Result) []string {
	var out []string
	for i := range a {
		ra, rb := a[i], b[i]
		for _, d := range metricDefs {
			va, oka := ra.get(d.Name)
			vb, okb := rb.get(d.Name)
			if !oka && !okb {
				continue
			}
			kind := "timed"
			if ra.Traced {
				kind = "traced"
			}
			switch {
			case oka != okb:
				out = append(out, fmt.Sprintf("%s (%s) %s: reported by one pass only", ra.Workload, kind, d.Name))
			case d.Exact && va != vb:
				out = append(out, fmt.Sprintf("%s (%s) %s: exact count %v != %v", ra.Workload, kind, d.Name, va, vb))
			case !ra.Traced && d.Bound > 0 && va != 0 && math.Abs(va-vb) > d.Slack && math.Abs(va-vb)/math.Abs(va) > d.Bound:
				out = append(out, fmt.Sprintf("%s %s: %v vs %v differs by %.1f%%, bound %.0f%%",
					ra.Workload, d.Name, va, vb, 100*math.Abs(va-vb)/math.Abs(va), 100*d.Bound))
			case !ra.Traced && d.Name == "failed_ops_share" && vb > va:
				out = append(out, fmt.Sprintf("%s failed_ops_share rose: %v -> %v", ra.Workload, va, vb))
			}
		}
	}
	return out
}

// printResult prints one run's metrics by name and unit: end-to-end
// metrics for a timed run, per-layer metrics grouped by layer for a
// traced one.
func printResult(res *Result) {
	kind := "timed"
	if res.Traced {
		kind = "traced"
	}
	fmt.Printf("\n== %s (%s): %d ops, %d failed, %.1f s\n", res.Workload, kind, res.Attempted, res.Failed, res.WallS)
	byName := make(map[string]Metric, len(res.Metrics))
	for _, m := range res.Metrics {
		byName[m.Name] = m
	}
	layers := []string{}
	for _, d := range metricDefs {
		if d.endToEnd() != res.Traced && !slices.Contains(layers, d.Layer) {
			layers = append(layers, d.Layer)
		}
	}
	sort.Strings(layers)
	for _, layer := range layers {
		for _, d := range metricDefs {
			m, ok := byName[d.Name]
			if !ok || d.Layer != layer || d.endToEnd() == res.Traced {
				continue
			}
			line := fmt.Sprintf("  %-40s %14.6g %-9s", m.Name, m.Value, m.Unit)
			if m.N > 1 {
				line += fmt.Sprintf(" n=%d q1=%.6g q3=%.6g", m.N, m.Q1, m.Q3)
			}
			if d.Exact {
				line += " (=)"
			}
			fmt.Println(strings.TrimRight(line, " "))
		}
	}
	for _, f := range res.Failures {
		fmt.Println("  FAILED:", f)
	}
}

// manifestJSON renders BENCHMARK.json from the catalogue, so the file
// and the program cannot name different metrics.
func manifestJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, w := range workloadWhy {
		m.Workloads = append(m.Workloads, workload{w.Name, w.Why})
	}
	for _, d := range metricDefs {
		switch {
		case !d.Driver:
		case d.declaredEndToEnd():
			m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
		default:
			m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
		}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(data, '\n')
}
