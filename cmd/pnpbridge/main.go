// Command pnpbridge runs the paper's single-lane bridge experiments and
// prints the tables recorded in EXPERIMENTS.md:
//
//	E8  exactly-N bridge with asynchronous enter sends  -> safety violated
//	E9  same system, synchronous enter sends            -> verified
//	E10 at-most-N bridge (Fig. 14)                      -> verified
//	E11 model-construction reuse across the E8->E9 edit
//	E13 paper-literal vs optimized block models (state explosion)
//	E15 state-space scaling with buffer size
//
// Usage: pnpbridge [-quick] [-trace] [-metrics] [-trace-out FILE]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pnp/internal/adl"
	"pnp/internal/artifact"
	"pnp/internal/blocks"
	"pnp/internal/bridge"
	"pnp/internal/checker"
	"pnp/internal/obs"
	"pnp/internal/obs/tracing"
)

func main() {
	quick := flag.Bool("quick", false, "smaller sweeps (skips the slowest rows)")
	showTrace := flag.Bool("trace", false, "print the E8 counterexample trace and MSC")
	metrics := flag.Bool("metrics", false, "collect checker metrics and print a table per experiment")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON file of the checker-phase spans")
	flag.Parse()
	var rec *tracing.Recorder
	if *traceOut != "" {
		rec = tracing.NewRecorder(tracing.DefaultRecorderCapacity)
	}
	if err := run(*quick, *showTrace, *metrics, rec); err != nil {
		fmt.Fprintf(os.Stderr, "pnpbridge: %v\n", err)
		os.Exit(1)
	}
	if rec != nil {
		if err := tracing.WriteChromeFile(*traceOut, rec.Spans()); err != nil {
			fmt.Fprintf(os.Stderr, "pnpbridge: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *traceOut)
	}
}

// newRegistry returns a fresh registry when metrics are requested, nil
// otherwise (a nil registry disables all instrumentation).
func newRegistry(metrics bool) *obs.Registry {
	if !metrics {
		return nil
	}
	return obs.NewRegistry()
}

// dumpMetrics prints one experiment's collected metrics table.
func dumpMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	fmt.Println("-- metrics --")
	reg.Dump(os.Stdout)
}

// rate renders states per second of one verification run.
func rate(states int, d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	r := float64(states) / d.Seconds()
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.3gM/s", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.3gk/s", r/1e3)
	default:
		return fmt.Sprintf("%.0f/s", r)
	}
}

func run(quick, showTrace, metrics bool, rec *tracing.Recorder) error {
	store := artifact.NewMemoryStore()

	fmt.Println("== E8/E9/E10: bridge safety across connector choices ==")
	fmt.Printf("%-28s %-20s %-12s %10s %12s %8s %12s %10s\n",
		"design", "enter send port", "verdict", "states", "transitions", "depth", "states/s", "time")
	regSafety := newRegistry(metrics)

	type row struct {
		label string
		cfg   bridge.Config
	}
	rows := []row{
		{"exactly-N (Fig.13 initial)", bridge.Config{Variant: bridge.ExactlyN, EnterSend: blocks.AsynBlockingSend}},
		{"exactly-N (checking)", bridge.Config{Variant: bridge.ExactlyN, EnterSend: blocks.AsynCheckingSend}},
		{"exactly-N (fixed, E9)", bridge.Config{Variant: bridge.ExactlyN, EnterSend: blocks.SynBlockingSend}},
		{"exactly-N (syn-checking)", bridge.Config{Variant: bridge.ExactlyN, EnterSend: blocks.SynCheckingSend}},
		{"at-most-N (Fig.14, async)", bridge.Config{Variant: bridge.AtMostN, EnterSend: blocks.AsynBlockingSend}},
	}
	if !quick {
		rows = append(rows, row{"at-most-N (Fig.14, E10)",
			bridge.Config{Variant: bridge.AtMostN, EnterSend: blocks.SynBlockingSend}})
	}
	var e8 *checker.Result
	for _, r := range rows {
		res, err := bridge.Verify(r.cfg, store, checker.Options{Metrics: regSafety, Tracer: rec})
		if err != nil {
			return err
		}
		verdict := "VERIFIED"
		if !res.OK {
			verdict = res.Kind.String()
		}
		fmt.Printf("%-28s %-20s %-12s %10d %12d %8d %12s %10s\n",
			r.label, r.cfg.EnterSend, verdict,
			res.Stats.StatesStored, res.Stats.Transitions, res.Stats.MaxDepth,
			rate(res.Stats.StatesStored, res.Stats.Elapsed),
			res.Stats.Elapsed.Round(time.Millisecond))
		if e8 == nil && !res.OK {
			e8 = res
		}
	}
	dumpMetrics(regSafety)

	if showTrace && e8 != nil && e8.Trace != nil {
		fmt.Println("\n-- E8 counterexample (shortest) --")
		fmt.Println(e8.Trace)
		fmt.Println(e8.Trace.MSC(nil))
	}

	fmt.Println("\n== E11: model-construction reuse across the E8->E9 edit ==")
	if err := reuseExperiment(); err != nil {
		return err
	}

	fmt.Println("\n== E13: paper-literal vs optimized block models ==")
	if err := ablationExperiment(quick, metrics); err != nil {
		return err
	}

	fmt.Println("\n== E17: partial-order reduction on the E9 verification ==")
	fmt.Printf("%-28s %10s %12s %12s %10s\n", "search", "states", "transitions", "states/s", "time")
	regPOR := newRegistry(metrics)
	for _, por := range []bool{false, true} {
		label := "full"
		if por {
			label = "partial-order reduction"
		}
		res, err := bridge.Verify(bridge.Config{
			Variant: bridge.ExactlyN, EnterSend: blocks.SynBlockingSend,
		}, store, checker.Options{PartialOrder: por, Metrics: regPOR, Tracer: rec})
		if err != nil {
			return err
		}
		fmt.Printf("%-28s %10d %12d %12s %10s\n",
			label, res.Stats.StatesStored, res.Stats.Transitions,
			rate(res.Stats.StatesStored, res.Stats.Elapsed),
			res.Stats.Elapsed.Round(time.Millisecond))
	}
	dumpMetrics(regPOR)

	fmt.Println("\n== E15: state-space scaling with the per-turn quota N ==")
	fmt.Printf("%-12s %10s %12s %12s %10s\n", "quota N", "states", "transitions", "states/s", "time")
	regScale := newRegistry(metrics)
	maxN := 4
	if quick {
		maxN = 2
	}
	for n := 1; n <= maxN; n++ {
		res, err := bridge.Verify(bridge.Config{
			Variant: bridge.ExactlyN, EnterSend: blocks.SynBlockingSend, N: n,
		}, store, checker.Options{Metrics: regScale, Tracer: rec})
		if err != nil {
			return err
		}
		fmt.Printf("N=%-10d %10d %12d %12s %10s\n",
			n, res.Stats.StatesStored, res.Stats.Transitions,
			rate(res.Stats.StatesStored, res.Stats.Elapsed),
			res.Stats.Elapsed.Round(time.Millisecond))
	}
	dumpMetrics(regScale)
	return nil
}

// reuseExperiment measures the paper's central verification-cost claim:
// after the designer swaps a connector block, the component and library
// models are reused, so re-verification skips model construction.
func reuseExperiment() error {
	unsafeCfg := bridge.Config{Variant: bridge.ExactlyN, EnterSend: blocks.AsynBlockingSend}
	safeCfg := bridge.Config{Variant: bridge.ExactlyN, EnterSend: blocks.SynBlockingSend}

	// Without reuse: compile everything from scratch both times.
	t0 := time.Now()
	if _, err := bridge.Build(unsafeCfg, nil); err != nil {
		return err
	}
	scratch1 := time.Since(t0)
	t0 = time.Now()
	if _, err := bridge.Build(safeCfg, nil); err != nil {
		return err
	}
	scratch2 := time.Since(t0)

	// With reuse: the second build takes the program and the unchanged
	// connectors from the artifact store.
	store := artifact.NewMemoryStore()
	t0 = time.Now()
	if _, err := bridge.Build(unsafeCfg, store); err != nil {
		return err
	}
	first := time.Since(t0)
	t0 = time.Now()
	if _, err := bridge.Build(safeCfg, store); err != nil {
		return err
	}
	reused := time.Since(t0)
	st := store.Stats()

	fmt.Printf("%-44s %12s\n", "initial model construction (cold)", first.Round(time.Microsecond))
	fmt.Printf("%-44s %12s\n", "re-construction after port swap (cached)", reused.Round(time.Microsecond))
	fmt.Printf("%-44s %12s\n", "re-construction without reuse (scratch)", scratch2.Round(time.Microsecond))
	fmt.Printf("modules: %d hit(s), %d miss(es); scratch baseline first build %s\n",
		st.Hits, st.Misses, scratch1.Round(time.Microsecond))
	if reused > 0 {
		fmt.Printf("speedup from reuse: %.1fx\n", float64(scratch2)/float64(reused))
	}
	return nil
}

// ablationExperiment compares the paper-literal block models (every
// protocol step its own interleaving point) against the optimized ones
// on the same producer/consumer system; the full run adds the E9 bridge
// over the literal models.
func ablationExperiment(quick, metrics bool) error {
	msgs := 3
	if quick {
		msgs = 2
	}
	pipe := fmt.Sprintf(`system ablation {
    connector pipe {
        send    asyn-blocking
        channel single-slot
        receive blocking
    }
    instance p = PnPSender(send pipe, %d, 0)
    instance c = PnPReceiver(recv pipe, %d)
}
`, msgs, msgs)
	type row struct {
		name, library, src string
		comps              map[string]string
	}
	rows := []row{
		{"paper-literal (Figs. 5-11)", blocks.LibrarySourcePlain, pipe, nil},
		{"optimized (Sec. 6)", blocks.LibrarySource, pipe, nil},
	}
	if !quick {
		d, err := bridge.Design(bridge.Config{Variant: bridge.ExactlyN, EnterSend: blocks.SynBlockingSend})
		if err != nil {
			return err
		}
		src, comps, err := d.ADL()
		if err != nil {
			return err
		}
		rows = append(rows, row{"paper-literal E9 bridge", blocks.LibrarySourcePlain, src, comps})
	}
	reg := newRegistry(metrics)
	fmt.Printf("%-28s %10s %12s %12s %10s\n", "library", "states", "transitions", "states/s", "time")
	for _, r := range rows {
		sys, err := adl.LoadWithLibrary(r.library, r.src, func(path string) (string, error) { return r.comps[path], nil }, nil)
		if err != nil {
			return err
		}
		res := sys.VerifyAll(checker.Options{Metrics: reg})["safety"]
		fmt.Printf("%-28s %10d %12d %12s %10s\n",
			r.name, res.Stats.StatesStored, res.Stats.Transitions,
			rate(res.Stats.StatesStored, res.Stats.Elapsed),
			res.Stats.Elapsed.Round(time.Millisecond))
	}
	dumpMetrics(reg)
	return nil
}
