package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"pnp/internal/adl"
	"pnp/internal/artifact"
	"pnp/internal/checker"
	"pnp/internal/obs"
	"pnp/internal/obs/tracing"
)

// The two search workloads use the library the way pnpverify does: ADL
// text in hand, adl.LoadModular, one checker call, verdict checked
// against the golden row. An op is all of that.

// searchDesigns names the designs the search workloads run. The smoke
// test swaps in small ones with the same roles.
type searchDesigns struct {
	exhaustive, verified, ltl, broken string
}

func (cfg runConfig) searchDesigns() searchDesigns {
	if cfg.small {
		return searchDesigns{smokeOK, smokeOK, smokeLTL, smokeBroken}
	}
	return searchDesigns{bridgeN2, bridgeN1, bridgeN1LTL, bridgeBroken}
}

// searchRig is what one search workload process holds across ops.
type searchRig struct {
	cfg    runConfig
	nproc  int
	store  *artifact.Store
	rec    *tracing.Recorder // nil in timed runs
	reg    *obs.Registry     // nil in timed runs
	tmpDir string            // spill segments and checkpoints live here

	// Durability accounting of the latest checkpoint op.
	ckptWrites int
	ckptBytes  int64
}

func newSearchRig(cfg runConfig) (*searchRig, error) {
	store, err := artifact.NewStore(0, "", nil)
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(cfg.OutDir, fmt.Sprintf("tmp-%s-%d", cfg.Workload, os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	return &searchRig{cfg: cfg, nproc: runtime.GOMAXPROCS(0), store: store, tmpDir: tmp}, nil
}

func (r *searchRig) close() { os.RemoveAll(r.tmpDir) }

// trace switches the flight recorder and the metrics registry on for
// the ops that follow.
func (r *searchRig) trace() {
	r.rec = tracing.NewRecorder(0) // a search run records a few dozen spans
	r.reg = obs.NewRegistry()
}

// options builds the checker configuration of one mode. "exhaustive"
// is the search_exhaustive op; the rest are the search_modes modes.
func (r *searchRig) options(mode string) checker.Options {
	switch mode {
	case "dfs", "ltl":
		return checker.Options{}
	case "par1":
		return checker.Options{Workers: 1}
	case "collapse":
		return checker.Options{Workers: r.nproc, Storage: checker.StorageOptions{Visited: checker.VisitedCollapse}}
	case "spill":
		// A 1 KB budget is over at the first barrier: every state spills.
		return checker.Options{Workers: r.nproc, Storage: checker.StorageOptions{MemLimit: 1024, SpillDir: r.tmpDir}}
	case "checkpoint":
		// What pnpd --data-dir gives every job: a snapshot per level.
		dir := filepath.Join(r.tmpDir, "ckpt")
		r.ckptWrites, r.ckptBytes = 0, 0
		return checker.Options{Workers: r.nproc, Durability: &checker.DurabilityOptions{
			Dir: dir, Key: "bench", Interval: 1,
			OnWrite: func(file string, depth, states int) {
				r.ckptWrites++
				if fi, err := os.Stat(file); err == nil {
					r.ckptBytes += fi.Size()
				}
			},
		}}
	case "exhaustive", "violation":
		return checker.Options{Workers: r.nproc}
	}
	panic("bench: unknown search mode " + mode)
}

// searchOutcome is one op as observed from outside.
type searchOutcome struct {
	latency time.Duration
	search  time.Duration
	res     *checker.Result
	sys     *adl.System
	err     error // load failure or golden mismatch: a failed op
	// Deltas of the parallel engine's existing busy-time and shard
	// contention counters over this op (zero while the registry is off).
	busyNs, contention int64
}

// busyShare is the fraction of the op's search time its workers spent
// expanding states rather than waiting at level barriers.
func (o searchOutcome) busyShare(workers int) float64 {
	return ratio(float64(o.busyNs), float64(o.search)*float64(workers))
}

// op runs one design through one mode: text -> LoadModular -> checker
// -> (for violations) trace and MSC rendering -> golden check.
func (r *searchRig) op(d Design, mode string) searchOutcome {
	// Every op starts from a collected heap, as a fresh pnpverify process
	// would: where the collector's cycles land inside an op then depends
	// on the op, not on what the previous op left behind. Outside the
	// op's clock.
	runtime.GC()
	opts := r.options(mode)
	ctx, op := r.rec.StartSpan(context.Background(), opSpan, tracing.A("mode", mode), tracing.A("design", d.ID))
	defer op.End()
	t0 := time.Now()

	_, sp := r.rec.StartSpan(ctx, "adl.load")
	sys, err := adl.LoadModular(d.ADL, d.resolve, r.store)
	sp.End()
	if err != nil {
		return searchOutcome{latency: time.Since(t0), err: err}
	}

	opts.Invariants = sys.Invariants
	opts.Metrics = r.reg
	opts.Tracer = r.rec
	sctx, sp := r.rec.StartSpan(ctx, "checker.search")
	if r.rec != nil {
		opts.Context = sctx // parents the checker's own phase span; nil keeps the hot loop poll-free
	}
	busy0, cont0 := r.parCounters()
	ts := time.Now()
	var res *checker.Result
	c := checker.New(sys.Builder.System(), opts)
	if mode == "ltl" {
		p := sys.LTL[0]
		res = c.CheckLTL(p.Formula, p.Props)
	} else {
		res = c.CheckSafety()
	}
	search := time.Since(ts)
	sp.End()
	busy1, cont1 := r.parCounters()

	if res.Trace != nil {
		// A user reads the counterexample, so rendering it is part of
		// the verdict's cost.
		_, sp := r.rec.StartSpan(ctx, "trace.render")
		m := sys.Builder.System()
		procs := make([]string, 0, m.NumInstances())
		for _, in := range m.Instances() {
			procs = append(procs, in.Name)
		}
		renderSink = len(res.Trace.String()) + len(res.Trace.MSC(procs))
		sp.End()
	}

	_, sp = r.rec.StartSpan(ctx, "bench.check")
	bfs := opts.Workers >= 1
	err = r.cfg.golden.check(d.ID, rowOf(res), bfs)
	if err == nil && res.Stats.Truncated {
		err = fmt.Errorf("%s: search truncated", d.ID)
	}
	sp.End()
	latency := time.Since(t0)
	if opts.Durability != nil {
		// The snapshot goes now, outside the op's clock, so the next op
		// does not start with it in the page cache.
		os.RemoveAll(opts.Durability.Dir)
	}
	return searchOutcome{latency: latency, search: search, res: res, sys: sys, err: err,
		busyNs: busy1 - busy0, contention: cont1 - cont0}
}

var renderSink int

// opCounts sizes a run from its --seconds budget. Counts are fixed, not
// time-boxed, so every count repeats exactly; they are sized on the
// 2-core reference box, where one exhaustive op takes about 3 s and
// one round of the seven modes about 27 s.
func (cfg runConfig) exhaustiveOps() int { return max(1, int(cfg.Seconds/3.3)) }
func (cfg runConfig) modeRounds() int    { return max(1, int(cfg.Seconds/24)) }

// modeReps is how many ops of a mode one round runs. The violation op
// takes 40 ms where the others take seconds; one sample of it moves by a
// quarter from run to run, the median of five does not.
func modeReps(mode string) int {
	if mode == "violation" {
		return 5
	}
	return 1
}

func runSearchExhaustive(cfg runConfig) (*Result, error) {
	start := cfg.start
	res := &Result{}
	rig, err := newSearchRig(cfg)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	d := fixedDesign(cfg.searchDesigns().exhaustive)

	// Set-up: one warm-up op grows the heap to its working size, so the
	// timed ops do not pay first-touch page faults.
	if out := rig.op(d, "exhaustive"); out.err != nil {
		return nil, fmt.Errorf("warm-up: %w", out.err)
	}
	res.set("setup_s", time.Since(start).Seconds())

	if !cfg.Traced {
		var lat []float64
		var busy time.Duration
		states := 0
		for i := 0; i < cfg.exhaustiveOps(); i++ {
			res.Attempted++
			out := rig.op(d, "exhaustive")
			if out.err != nil {
				res.fail(out.err.Error())
				continue
			}
			lat = append(lat, ms(out.latency))
			busy += out.latency
			states += out.res.Stats.StatesStored
		}
		reportEndToEnd(res, lat, states, busy)
		return res, nil
	}

	// Traced run: one untraced op as the overhead baseline, then the
	// same op with the recorder and the registry on, then one extra
	// single-worker op for the scaling ratio.
	res.Attempted++
	base := rig.op(d, "exhaustive")
	if base.err != nil {
		res.fail(base.err.Error())
	}
	rig.trace()
	var traced []searchOutcome
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	for i := 0; i < max(1, cfg.exhaustiveOps()/2); i++ {
		res.Attempted++
		out := rig.op(d, "exhaustive")
		if out.err != nil {
			res.fail(out.err.Error())
			continue
		}
		traced = append(traced, out)
	}
	runtime.ReadMemStats(&mem1)
	if len(traced) == 0 || base.err != nil {
		return res, nil
	}
	var searchMs, lat, busy, contention []float64
	states := 0
	for _, out := range traced {
		searchMs = append(searchMs, ms(out.search))
		lat = append(lat, ms(out.latency))
		busy = append(busy, out.busyShare(rig.nproc))
		contention = append(contention, float64(out.contention))
		states += out.res.Stats.StatesStored
	}
	last := traced[len(traced)-1]
	res.setMedian("checker.search_ms", searchMs)
	res.set("obs.trace_overhead_share", 1-ms(base.latency)/median(lat))
	res.setMedian("checker.worker_busy_share", busy)
	res.setMedian("checker.shard_contention", contention)
	reportSearchCounts(res, last.res.Stats)
	reportAllocs(res, &mem0, &mem1, states)
	reportFrontier(res, rig.rec.Spans())
	reportModules(res, last.sys, rig.store)

	res.Attempted++
	w1 := rig.op(d, "par1")
	if w1.err != nil {
		res.fail(w1.err.Error())
		return res, nil
	}
	res.set("checker.scaling_w1_over_wn", ratio(ms(w1.search), median(searchMs)))

	spans := rig.rec.Spans()
	if err := rig.reportModelAndFrontEnd(res, d, w1); err != nil {
		return nil, err
	}
	return res, finishTrace(res, cfg, rig.rec, spans)
}

func runSearchModes(cfg runConfig) (*Result, error) {
	start := cfg.start
	res := &Result{}
	rig, err := newSearchRig(cfg)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	sd := cfg.searchDesigns()
	designs := map[string]Design{}
	for _, m := range searchModes {
		switch m {
		case "ltl":
			designs[m] = fixedDesign(sd.ltl)
		case "violation":
			designs[m] = fixedDesign(sd.broken)
		default:
			designs[m] = fixedDesign(sd.verified)
		}
	}
	// Rotation starts at seed mod 7, so across seeds every mode takes
	// every position; -check-repeat's second pass reverses the order.
	order := make([]string, len(searchModes))
	for i := range order {
		order[i] = searchModes[(i+int(cfg.Seed%7+7))%len(searchModes)]
	}
	if cfg.Reverse {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}

	if out := rig.op(designs["par1"], "exhaustive"); out.err != nil {
		return nil, fmt.Errorf("warm-up: %w", out.err)
	}
	res.set("setup_s", time.Since(start).Seconds())

	// The traced run records the same rounds with the recorder on; its
	// overhead baseline is the untraced par1 op it runs first.
	var base searchOutcome
	if cfg.Traced {
		res.Attempted++
		if base = rig.op(designs["par1"], "par1"); base.err != nil {
			res.fail(base.err.Error())
		}
		rig.trace()
	}

	byMode := map[string][]float64{}
	outcome := map[string]searchOutcome{}
	allocStates := 0 // states stored by every op, the denominator of the allocation rates
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	ckptWrites, ckptBytes := 0, int64(0)
	for round := 0; round < cfg.modeRounds(); round++ {
		for i := range order {
			mode := order[(i+round)%len(order)]
			for rep := 0; rep < modeReps(mode); rep++ {
				res.Attempted++
				out := rig.op(designs[mode], mode)
				if out.err != nil {
					res.fail(out.err.Error())
					continue
				}
				byMode[mode] = append(byMode[mode], ms(out.latency))
				outcome[mode] = out
				allocStates += out.res.Stats.StatesStored
				if mode == "checkpoint" {
					ckptWrites, ckptBytes = rig.ckptWrites, rig.ckptBytes
				}
			}
		}
	}
	runtime.ReadMemStats(&mem1)
	// The workload's own figures count each mode once, at its median, so
	// the violation op's extra samples do not outvote the other modes.
	var lat []float64
	var busy time.Duration
	states := 0
	for _, m := range searchModes {
		res.setMedian("verdict_ms."+m, byMode[m])
		if out, ok := outcome[m]; ok {
			lat = append(lat, median(byMode[m]))
			busy += time.Duration(median(byMode[m]) * float64(time.Millisecond))
			states += out.res.Stats.StatesStored
		}
	}
	reportEndToEnd(res, lat, states, busy)
	if !cfg.Traced || res.Failed > 0 {
		return res, nil
	}

	// Layer numbers come from two ops of the last round: par1 for what
	// one worker does, collapse (the only nproc-worker mode that touches
	// no disk) for how well the workers are kept busy.
	par1, collapse := outcome["par1"], outcome["collapse"]
	res.set("obs.trace_overhead_share", 1-ms(base.latency)/median(byMode["par1"]))
	res.set("checker.search_ms", ms(par1.search))
	res.set("checker.worker_busy_share", collapse.busyShare(rig.nproc))
	res.set("checker.shard_contention", float64(collapse.contention))
	reportSearchCounts(res, par1.res.Stats)
	reportAllocs(res, &mem0, &mem1, allocStates)
	reportFrontier(res, rig.rec.Spans())
	reportModules(res, par1.sys, rig.store)
	res.set("checker.ce_len", float64(outcome["violation"].res.Trace.Len()))
	for _, m := range []string{"par1", "collapse", "spill"} {
		st := outcome[m].res.Stats
		res.set("checker.visited_bytes_per_state."+m, ratio(float64(st.VisitedBytes), float64(st.StatesStored)))
	}
	res.set("checker.spilled_states", float64(outcome["spill"].res.Stats.SpilledStates))
	res.set("checker.checkpoint_bytes", float64(ckptBytes))
	res.set("checker.checkpoint_writes", float64(ckptWrites))

	spans := rig.rec.Spans()
	if err := rig.reportModelAndFrontEnd(res, designs["par1"], par1); err != nil {
		return nil, err
	}
	if err := measureLTL(res, outcome["ltl"].sys.LTL[0].Formula); err != nil {
		return nil, err
	}
	return res, finishTrace(res, cfg, rig.rec, spans)
}

// reportModelAndFrontEnd measures the layers no op span isolates, on
// design d: the model replay (whose reachable-state count must equal the
// golden row), what is left of oneWorker's search after the replayed
// model cost, and the text-to-model front end. oneWorker is an op of d
// on a single search worker, where per-state costs simply add up.
func (r *searchRig) reportModelAndFrontEnd(res *Result, d Design, oneWorker searchOutcome) error {
	costs := replayModel(oneWorker.sys.Builder.System(), r.cfg.sampleStates(), rand.New(rand.NewSource(r.cfg.Seed)))
	if want := r.cfg.golden[d.ID].States; costs.reachable != want {
		res.fail(fmt.Sprintf("model replay reached %d states, golden %d", costs.reachable, want))
	}
	costs.report(res)
	st := oneWorker.res.Stats
	res.set("checker.search_self_ns_per_state",
		float64(oneWorker.search)/float64(st.StatesStored)-
			costs.perStoredState(float64(st.Transitions)/float64(st.StatesStored)))
	return measureFrontEnd(res, d)
}

// sampleStates is how many reachable states the model replay keeps.
func (cfg runConfig) sampleStates() int {
	if cfg.small {
		return 500
	}
	return 50000
}

// reportEndToEnd fills the end-to-end metrics of a search run from its
// per-op latencies, the states its searches stored, and the timed wall:
// the sum of the op latencies, which leaves out the collection between
// ops.
func reportEndToEnd(res *Result, latMs []float64, states int, wall time.Duration) {
	if len(latMs) > 0 {
		res.setSampled("verdict_ms_p50", median(latMs), latMs)
		res.setSampled("verdict_ms_p99", percentile(latMs, 99), latMs)
	}
	res.set("jobs_per_s", ratio(float64(len(latMs)), wall.Seconds()))
	res.set("states_per_s", ratio(float64(states), wall.Seconds()))
	res.set("peak_rss_mb", peakRSSMiB())
	res.set("failed_ops_share", ratio(float64(res.Failed), float64(res.Attempted)))
}

func reportSearchCounts(res *Result, st checker.Stats) {
	res.set("checker.levels", float64(st.MaxDepth))
	res.set("checker.states_stored", float64(st.StatesStored))
	res.set("checker.states_matched", float64(st.StatesMatched))
	res.set("checker.transitions", float64(st.Transitions))
}

func reportAllocs(res *Result, before, after *runtime.MemStats, states int) {
	res.set("checker.alloc_bytes_per_state", ratio(float64(after.TotalAlloc-before.TotalAlloc), float64(states)))
	res.set("checker.allocs_per_state", ratio(float64(after.Mallocs-before.Mallocs), float64(states)))
	res.set("checker.gc_cycles", float64(after.NumGC-before.NumGC))
	res.set("checker.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
}

// reportFrontier reads BFS level widths off the `level` events of the
// deepest parallel-BFS phase span recorded (the violation op stops
// early). A span keeps at most 256 events, so on searches deeper than
// that (the N=2 bridge has 363 levels) the widths are those of the
// first 256 levels.
func reportFrontier(res *Result, spans []tracing.SpanData) {
	var best []float64
	for _, s := range spans {
		if s.Name != "checker:safety-par-bfs" {
			continue
		}
		var widths []float64
		for _, ev := range s.Events {
			if ev.Name != "level" {
				continue
			}
			for _, a := range ev.Attrs {
				if a.Key == "frontier" {
					if v, err := strconv.Atoi(a.Value); err == nil {
						widths = append(widths, float64(v))
					}
				}
			}
		}
		if len(widths) > len(best) {
			best = widths
		}
	}
	if len(best) > 0 {
		res.set("checker.frontier_p50", median(best))
		res.set("checker.frontier_max", percentile(best, 100))
	}
}

// reportModules reports the artifact store the ops loaded through and
// the module reuse of the last load.
func reportModules(res *Result, sys *adl.System, store *artifact.Store) {
	st := store.Stats()
	res.set("artifact.hit_ratio", ratio(float64(st.Hits), float64(st.Hits+st.Misses)))
	res.set("artifact.evictions", float64(st.Evictions))
	res.set("verifyd.modules_reused_share",
		ratio(float64(sys.ModulesReused), float64(sys.ModulesReused+sys.ModulesCompiled)))
}

// parCounters reads the parallel engine's existing busy-time and shard
// contention counters (zero while the registry is off).
func (r *searchRig) parCounters() (busyNs, contention int64) {
	if r.reg == nil {
		return 0, 0
	}
	busyNs = r.reg.Counter(obs.Labels("checker_worker_busy_ns_total", "phase", "safety-par-bfs")).Value()
	contention = r.reg.Counter(obs.Labels("checker_visited_shard_contention_total", "phase", "safety-par-bfs")).Value()
	return busyNs, contention
}

// finishTrace derives the span shares, reports recorder drops, and
// writes the Chrome trace file.
func finishTrace(res *Result, cfg runConfig, rec *tracing.Recorder, spans []tracing.SpanData) error {
	unc, nonSearch := spanShares(breakdowns(spans))
	res.set("obs.uncovered_share", unc)
	res.set("obs.nonsearch_share", nonSearch)
	res.set("obs.spans_dropped", float64(rec.Dropped()))
	return writeTrace(cfg.OutDir, cfg.Workload, spans)
}
