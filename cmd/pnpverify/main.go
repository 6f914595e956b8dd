// Command pnpverify verifies a Plug-and-Play architecture description:
// it composes the system from the block library and the referenced
// component models, checks every declared property, and prints verdicts
// with counterexample traces (optionally as message sequence charts).
//
// Usage:
//
//	pnpverify [-workers N] [-max-states N] [-msc] [-json]
//	          [-timeout 30s] [-progress] [-metrics-addr :8080]
//	          [-trace-out trace.json] [-checkpoint-dir DIR]
//	          [-visited collapse] [-mem-limit 2GiB] [-spill-dir DIR]
//	          system.pnp
//
// Big searches: -visited=collapse interns per-process and per-channel
// sub-vectors so each stored state costs a few bytes instead of its
// full encoding, and -mem-limit spills the visited set to disk segments
// when it outgrows the budget. Both change memory use only — verdicts,
// counterexamples, and state counts are identical to an exact run.
//
// With -checkpoint-dir the parallel searches append each BFS level to a
// log in that directory, keyed by a content hash of the design;
// re-running the same command after an interruption resumes each
// property's search from its last checkpoint commit instead of starting
// over.
//
// With -remote the design is submitted to a running verification
// service (pnpd) instead of being checked in-process: component files
// are inlined into the request, the job's verdict report is printed in
// the same format, and cached results come back in microseconds.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"pnp/internal/adl"
	"pnp/internal/checker"
	"pnp/internal/obs"
	"pnp/internal/obs/tracing"
	"pnp/internal/verifyd"
	"pnp/internal/verifyd/client"
)

func main() {
	os.Exit(run())
}

func run() int {
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "search workers for the breadth-first safety/reachability engine (0 or 1 = inline on one goroutine); verdicts, state counts and counterexample lengths are the same at every count")
	maxStates := flag.Int("max-states", 0, "state limit (0 = unlimited)")
	msc := flag.Bool("msc", false, "render counterexamples as message sequence charts")
	bitstate := flag.Bool("bitstate", false, "bitstate hashing (probabilistic, lower memory)")
	fair := flag.Bool("fair", false, "weak process fairness for LTL properties")
	strongFair := flag.Bool("strong-fair", false, "strong process fairness for LTL properties (fair-SCC search)")
	por := flag.Bool("por", false, "partial-order reduction for the safety search")
	visited := flag.String("visited", "", "visited-set storage for parallel searches: exact or collapse (collapse interns per-process/per-channel sub-vectors, Spin -DCOLLAPSE style)")
	memLimit := flag.String("mem-limit", "", "visited-set memory budget with an optional size suffix (e.g. 512MB, 2GiB); searches over budget spill visited states to disk and keep going")
	spillDir := flag.String("spill-dir", "", "directory for spill scratch files, unlinked as they are created (default: the OS temp dir)")
	ckptDir := flag.String("checkpoint-dir", "", "log parallel searches level by level into this directory and resume them on re-run (keyed by a content hash of the design)")
	unreached := flag.Bool("unreached", false, "report never-executed transitions (dead code)")
	dotFile := flag.String("dot", "", "write the state graph (<=500 states) to this DOT file")
	simulate := flag.Int("simulate", 0, "random-walk simulate N steps instead of verifying")
	seed := flag.Int64("seed", 1, "simulation seed")
	jsonOut := flag.Bool("json", false, "emit the verdict report as JSON (same document the pnpd service serves)")
	timeout := flag.Duration("timeout", 0, "abort each property search after this long with a canceled verdict (0 = no limit)")
	progress := flag.Bool("progress", false, "print periodic search progress lines and a final stats table")
	progressInterval := flag.Duration("progress-interval", 200*time.Millisecond, "interval between progress lines")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /metrics.json, and /debug/trace on this address while verifying")
	remote := flag.String("remote", "", "submit to a verification service at this base URL instead of checking in-process")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON file of the verification spans (view in chrome://tracing or Perfetto)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: pnpverify [flags] system.pnp\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		return 2
	}
	path := flag.Arg(0)
	switch *visited {
	case "", checker.VisitedExact, checker.VisitedCollapse:
	default:
		fmt.Fprintf(os.Stderr, "pnpverify: -visited=%s: want exact or collapse\n", *visited)
		return 2
	}
	memBudget, err := checker.ParseByteSize(*memLimit)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnpverify: -mem-limit: %v\n", err)
		return 2
	}
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnpverify: %v\n", err)
		return 1
	}
	dir := filepath.Dir(path)
	resolve := func(ref string) (string, error) {
		b, err := os.ReadFile(filepath.Join(dir, ref))
		return string(b), err
	}
	if *remote != "" {
		return runRemote(*remote, string(src), dir, *workers, *maxStates, *visited, memBudget, *timeout, *jsonOut, *msc, *traceOut)
	}
	sys, err := adl.Load(string(src), resolve, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnpverify: %v\n", err)
		return 1
	}
	if !*jsonOut {
		fmt.Printf("system %s: %d processes, %d channels\n",
			sys.Name, sys.Builder.System().NumInstances(), sys.Builder.System().NumChannels())
		if sys.Faults != nil {
			fmt.Printf("fault plan: %s (%d rule(s), applied at runtime; lossy channels model loss in the checker)\n",
				sys.Faults.Canonical(), len(sys.Faults.Rules))
		}
	}

	if *dotFile != "" {
		f, err := os.Create(*dotFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pnpverify: %v\n", err)
			return 1
		}
		chk := checker.New(sys.Builder.System(), checker.Options{Invariants: sys.Invariants})
		werr := chk.WriteDOT(f, 500)
		cerr := f.Close()
		if werr != nil || cerr != nil {
			fmt.Fprintf(os.Stderr, "pnpverify: writing %s: %v %v\n", *dotFile, werr, cerr)
			return 1
		}
		if !*jsonOut {
			fmt.Printf("state graph written to %s\n", *dotFile)
		}
	}

	if *simulate > 0 {
		chk := checker.New(sys.Builder.System(), checker.Options{Invariants: sys.Invariants})
		res := chk.Simulate(*seed, *simulate)
		fmt.Println(res.Trace)
		if !res.OK {
			fmt.Printf("simulation hit: %s\n", res.Summary())
			return 1
		}
		return 0
	}

	opts := checker.Options{
		Workers:         *workers,
		MaxStates:       *maxStates,
		WeakFairness:    *fair,
		StrongFairness:  *strongFair,
		PartialOrder:    *por,
		ReportUnreached: *unreached,
		Storage: checker.StorageOptions{
			Bitstate: *bitstate,
			Visited:  *visited,
			MemLimit: memBudget,
			SpillDir: *spillDir,
		},
	}
	if *ckptDir != "" {
		// The key is the design's content address; VerifyAll suffixes it
		// per property, so each search gets its own checkpoint log.
		sum := sha256.Sum256(src)
		opts.Durability = &checker.DurabilityOptions{
			Dir:    *ckptDir,
			Key:    hex.EncodeToString(sum[:]),
			Resume: true,
		}
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts.Context = ctx
	}
	// VerifyAll runs properties sequentially, so the callback needs no lock.
	// Progress goes to stderr so it never corrupts -json output on stdout.
	var finals []checker.Progress
	if *progress {
		opts.ProgressInterval = *progressInterval
		opts.Progress = func(p checker.Progress) {
			if p.Final {
				finals = append(finals, p)
				return
			}
			fmt.Fprintf(os.Stderr, "  progress [%s] states %d (%d matched) trans %d depth %d %s heap %.1fMB\n",
				p.Phase, p.StatesStored, p.StatesMatched, p.Transitions, p.Depth,
				fmtRate(p.StatesPerSec), float64(p.HeapAlloc)/(1<<20))
		}
	}
	var rec *tracing.Recorder
	var rootSpan *tracing.Span
	if *traceOut != "" {
		rec = tracing.NewRecorder(tracing.DefaultRecorderCapacity)
		opts.Tracer = rec
		tctx := opts.Context
		if tctx == nil {
			tctx = context.Background()
		}
		tctx, rootSpan = rec.StartSpan(tctx, "pnpverify", tracing.A("system", path))
		opts.Context = tctx
	}
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		opts.Metrics = reg
		var mounts []obs.Mount
		if rec != nil {
			mounts = append(mounts, obs.Mount{Pattern: "/debug/trace", Handler: rec.Handler()})
		}
		srv, err := obs.Serve(reg, *metricsAddr, mounts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pnpverify: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", srv.Addr())
	}

	results := sys.VerifyAll(opts)
	rootSpan.End()
	// Spill summary goes to stderr (like progress) so it never corrupts
	// -json output; the counter name matches the /metrics series.
	var spilledTotal int
	var peakBytes int64
	for _, res := range results {
		spilledTotal += res.Stats.SpilledStates
		if res.Stats.VisitedBytes > peakBytes {
			peakBytes = res.Stats.VisitedBytes
		}
	}
	if spilledTotal > 0 {
		fmt.Fprintf(os.Stderr, "visited storage: over budget, spilled to disk: visited_spilled_states_total %d (peak in-memory %.1fMB)\n",
			spilledTotal, float64(peakBytes)/(1<<20))
	}
	if rec != nil {
		if err := tracing.WriteChromeFile(*traceOut, rec.Spans()); err != nil {
			fmt.Fprintf(os.Stderr, "pnpverify: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *traceOut)
	}
	if *jsonOut {
		rep := verifyd.NewReport(sys, results)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "pnpverify: %v\n", err)
			return 1
		}
		if rep.OK {
			return 0
		}
		return 1
	}
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := 0
	for _, name := range names {
		res := results[name]
		fmt.Printf("  %-20s %s\n", name, res.Summary())
		if !res.OK {
			failed++
			if res.Trace != nil {
				fmt.Println(res.Trace)
				if *msc {
					fmt.Println(res.Trace.MSC(nil))
				}
			}
		}
	}
	if *unreached {
		if safety := results["safety"]; safety != nil && len(safety.Unreached) > 0 {
			fmt.Println("never-executed transitions:")
			for _, u := range safety.Unreached {
				fmt.Printf("  %s\n", u)
			}
		}
	}
	if *progress && len(finals) > 0 {
		fmt.Fprintln(os.Stderr, "search statistics:")
		fmt.Fprintf(os.Stderr, "  %-22s %10s %10s %12s %6s %12s %10s\n",
			"phase", "states", "matched", "transitions", "depth", "states/s", "elapsed")
		for _, p := range finals {
			fmt.Fprintf(os.Stderr, "  %-22s %10d %10d %12d %6d %12s %10s\n",
				p.Phase, p.StatesStored, p.StatesMatched, p.Transitions, p.Depth,
				fmtRate(p.StatesPerSec), p.Elapsed.Round(time.Millisecond))
		}
	}
	if failed > 0 {
		fmt.Printf("%d propert(y/ies) FAILED\n", failed)
		return 1
	}
	fmt.Println("all properties verified")
	return 0
}

// runRemote submits the design to a verification service and prints its
// verdict report. Component references are resolved locally and inlined
// into the request — the service never touches this machine's files.
// With traceOut set, the submission carries a traceparent so the job
// joins a locally-rooted trace; the server's spans are fetched back and
// written together with the local root as one Chrome trace file.
func runRemote(base, src, dir string, workers, maxStates int, visited string, memLimit int64, timeout time.Duration, jsonOut, msc bool, traceOut string) int {
	refs, err := adl.ComponentRefs(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnpverify: %v\n", err)
		return 1
	}
	comps := make(map[string]string, len(refs))
	for _, ref := range refs {
		b, err := os.ReadFile(filepath.Join(dir, ref))
		if err != nil {
			fmt.Fprintf(os.Stderr, "pnpverify: component %q: %v\n", ref, err)
			return 1
		}
		comps[ref] = string(b)
	}

	req := client.JobRequest{ADL: src, Components: comps, TimeoutMS: int(timeout / time.Millisecond)}
	if workers > 0 {
		req.Workers = &workers
	}
	if maxStates > 0 {
		req.MaxStates = &maxStates
	}
	if visited != "" {
		req.Visited = &visited
	}
	if memLimit > 0 {
		req.MemLimitBytes = &memLimit
	}

	ctx := context.Background()
	var rec *tracing.Recorder
	var rootSpan *tracing.Span
	if traceOut != "" {
		rec = tracing.NewRecorder(tracing.DefaultRecorderCapacity)
		ctx, rootSpan = rec.StartSpan(ctx, "pnpverify", tracing.A("remote", base))
	}
	c := client.New(base)
	job, err := c.Submit(ctx, req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnpverify: %v\n", err)
		return 1
	}
	done, err := c.Wait(ctx, job.ID)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnpverify: %v\n", err)
		return 1
	}
	if rec != nil {
		rootSpan.End()
		spans := rec.Spans()
		if remoteSpans, terr := c.JobTrace(ctx, job.ID); terr == nil {
			spans = append(spans, remoteSpans...)
		} else {
			fmt.Fprintf(os.Stderr, "pnpverify: fetching remote trace: %v (is pnpd running with --trace-entries > 0?)\n", terr)
		}
		if err := tracing.WriteChromeFile(traceOut, spans); err != nil {
			fmt.Fprintf(os.Stderr, "pnpverify: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", traceOut)
	}
	rep := done.Report
	if rep == nil {
		if done.Err != "" {
			fmt.Fprintf(os.Stderr, "pnpverify: job %s failed: %s\n", job.ID, done.Err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "pnpverify: job %s finished without a report\n", job.ID)
		return 1
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "pnpverify: %v\n", err)
			return 1
		}
		if rep.OK {
			return 0
		}
		return 1
	}
	// Against a cluster coordinator the final document names the worker
	// that served the job (or "coordinator" for cluster-cache answers).
	served := base
	if done.Node != "" {
		served = done.Node
	}
	fmt.Printf("system %s: %d processes, %d channels (remote %s, job %s, %d cached)\n",
		rep.System, rep.Processes, rep.Channels, served, job.ID, done.CacheHits)
	for _, p := range rep.Properties {
		fmt.Printf("  %-20s %s\n", p.Name, p.Summary)
		if !p.OK && p.Counterexample != "" {
			fmt.Println(p.Counterexample)
			if msc && p.MSC != "" {
				fmt.Println(p.MSC)
			}
		}
	}
	if rep.Failed > 0 {
		fmt.Printf("%d propert(y/ies) FAILED\n", rep.Failed)
		return 1
	}
	fmt.Println("all properties verified")
	return 0
}

// fmtRate renders a states/second rate compactly (12345678 -> "12.3M/s").
func fmtRate(r float64) string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.3gM/s", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.3gk/s", r/1e3)
	default:
		return fmt.Sprintf("%.0f/s", r)
	}
}
