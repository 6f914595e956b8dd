package main

import (
	"math"
	"slices"
	"sort"
	"strings"
)

// Workload names, in the order `go run ./bench` runs them.
const (
	wSearchExhaustive = "search_exhaustive"
	wSearchModes      = "search_modes"
	wServiceEditLoop  = "service_edit_loop"
	wFleetDurable     = "fleet_durable"
)

// workloadWhy is the one-line reason BENCHMARK.json records for each
// workload (at most 200 characters).
var workloadWhy = []struct{ Name, Why string }{
	{wSearchExhaustive, "the paper's bridge at N=2, exhaustive parallel BFS: model and checker do over 99% of the work, so a hot-loop or scaling gain shows here and nowhere else"},
	{wSearchModes, "the same checker used seven other ways (DFS, one worker, LTL, collapse, forced spill, per-level checkpoints, early-exit violation): a gain bought by costing one of them shows as a loss here"},
	{wServiceEditLoop, "the edit-and-resubmit loop as a service: every fourth job a one-connector edit, the rest repeats, so client, HTTP, compose, artifacts, hashing, queue and caches carry the time, the checker little"},
	{wFleetDurable, "the same loop through a coordinator and two durable workers: every submission journaled and fsynced, every search checkpointed, every request a second hop and cache tier, then restart and replay"},
}

var searchModes = []string{"dfs", "par1", "ltl", "collapse", "spill", "checkpoint", "violation"}

// metricDef declares one metric the benchmark can report.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen by
	// Slack is an absolute difference -check-repeat always tolerates,
	// whatever share of the value it is (the issue's max(20%, 0.5 s) for
	// set-up, which is tens of milliseconds on the service workloads).
	Slack float64
	Layer string // package the metric belongs to; "" for end-to-end metrics
	// Exact marks counts that must repeat exactly from run to run and,
	// where a golden row exists, equal it.
	Exact bool
	// Workloads lists who reports the metric; nil means all four.
	Workloads []string
	// Driver marks the metrics BENCHMARK.json declares: the driver
	// requires every workload to print every declared end-to-end metric,
	// so only metrics with a meaning on all four can be declared there.
	Driver bool
}

// endToEnd says the metric is reported by timed runs: the metrics with
// no layer, plus search_modes' per-mode latencies.
func (d metricDef) endToEnd() bool {
	return d.Layer == "" || strings.HasPrefix(d.Name, "verdict_ms.")
}

// declaredEndToEnd says BENCHMARK.json lists the metric under
// end_to_end rather than per_layer.
func (d metricDef) declaredEndToEnd() bool { return d.Layer == "" }

func (d metricDef) reportedBy(workload string) bool {
	return d.Workloads == nil || slices.Contains(d.Workloads, workload)
}

var (
	searches = []string{wSearchExhaustive, wSearchModes}
	services = []string{wServiceEditLoop, wFleetDurable}
	modesOn  = []string{wSearchModes}
	fleetOn  = []string{wFleetDurable}
	editOn   = []string{wServiceEditLoop}
)

// metricDefs is the whole catalogue. End-to-end metrics come first;
// per-layer metrics are grouped by the package whose cost they isolate.
var metricDefs = func() []metricDef {
	e2e := func(name, unit, better string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: better, Bound: 0.25, Driver: true}
	}
	layer := func(layer, name, unit, better string, exact bool, on []string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: better, Layer: layer, Exact: exact, Workloads: on, Driver: true}
	}
	defs := []metricDef{
		// Every bound is the contract's maximum, 25%. The reference box is
		// a shared 2-core VM that runs the same work 15-30% slower for
		// minutes at a time; ten consecutive runs of unchanged code spread
		// (first to third quartile over the median) by 6-15% on most
		// metrics and up to 29% on fleet_durable when the sample straddles
		// a fast and a slow spell. A tighter bound would reject unchanged
		// code. The issue's 10-20% bounds need a quieter machine.
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Slack: 0.5, Driver: true},
		e2e("verdict_ms_p50", "ms", "lower"),
		e2e("verdict_ms_p99", "ms", "lower"),
		e2e("jobs_per_s", "jobs/s", "higher"),
		e2e("states_per_s", "states/s", "higher"),
		e2e("peak_rss_mb", "MiB", "lower"),
		// failed_ops_share is 0 on a healthy run, and the driver's bounds
		// are shares of a median, so it travels to the driver as the
		// failed/attempted keys instead of as a declared metric.
		{Name: "failed_ops_share", Unit: "ratio", Better: "lower"},
	}
	for _, m := range searchModes {
		// Per-mode latencies are end-to-end for search_modes alone, so
		// the driver sees them as checker-layer metrics of the traced run
		// (0 elsewhere) while -check-repeat gates them with this bound.
		defs = append(defs, metricDef{Name: "verdict_ms." + m, Unit: "ms", Better: "lower",
			Bound: 0.25, Layer: "checker", Workloads: modesOn, Driver: true})
	}
	defs = append(defs,
		layer("pml", "pml.compile_ms", "ms", "lower", false, nil),
		layer("adl", "adl.load_ms", "ms", "lower", false, nil),
		layer("blocks", "blocks.compose_self_ms", "ms", "lower", false, nil),
		layer("adl", "adl.rewrite_ms", "ms", "lower", false, nil),

		layer("artifact", "artifact.hit_ratio", "ratio", "higher", false, nil),
		layer("artifact", "artifact.evictions", "count", "lower", false, nil),
		layer("artifact", "verifyd.modules_reused_share", "ratio", "higher", false, nil),

		layer("model", "model.successors_ns_per_state", "ns", "lower", false, searches),
		layer("model", "model.encode_ns_per_state", "ns", "lower", false, searches),
		layer("model", "model.encode_components_ns_per_state", "ns", "lower", false, searches),
		layer("model", "model.hash_ns_per_state", "ns", "lower", false, searches),
		layer("model", "model.key_bytes_per_state", "bytes", "lower", true, searches),
		layer("model", "model.successors_per_state", "count", "lower", true, searches),

		layer("checker", "checker.search_ms", "ms", "lower", false, searches),
		layer("checker", "checker.search_self_ns_per_state", "ns", "lower", false, searches),
		layer("checker", "checker.scaling_w1_over_wn", "ratio", "higher", false, []string{wSearchExhaustive}),
		layer("checker", "checker.worker_busy_share", "ratio", "higher", false, searches),
		layer("checker", "checker.shard_contention", "count", "lower", false, searches),
		layer("checker", "checker.levels", "count", "lower", true, searches),
		layer("checker", "checker.frontier_p50", "states", "higher", true, searches),
		layer("checker", "checker.frontier_max", "states", "higher", true, searches),
		layer("checker", "checker.states_stored", "states", "lower", true, searches),
		layer("checker", "checker.states_matched", "states", "lower", true, searches),
		layer("checker", "checker.transitions", "count", "lower", true, searches),
		layer("checker", "checker.ce_len", "steps", "lower", true, modesOn),
		layer("checker", "checker.alloc_bytes_per_state", "bytes", "lower", false, searches),
		layer("checker", "checker.allocs_per_state", "count", "lower", false, searches),
		layer("checker", "checker.gc_cycles", "count", "lower", false, searches),
		layer("checker", "checker.gc_pause_ms", "ms", "lower", false, searches),
		layer("checker", "checker.visited_bytes_per_state.par1", "bytes", "lower", true, modesOn),
		layer("checker", "checker.visited_bytes_per_state.collapse", "bytes", "lower", true, modesOn),
		layer("checker", "checker.visited_bytes_per_state.spill", "bytes", "lower", true, modesOn),
		layer("checker", "checker.spilled_states", "states", "lower", true, modesOn),
		layer("checker", "checker.checkpoint_bytes", "bytes", "lower", false, modesOn),
		layer("checker", "checker.checkpoint_writes", "count", "lower", false, modesOn),

		layer("ltl", "ltl.translate_ms", "ms", "lower", false, modesOn),
		layer("ltl", "ltl.automaton_states", "count", "lower", true, modesOn),

		layer("client", "client.submit_ms_p50", "ms", "lower", false, services),
		layer("client", "client.wait_ms_p50", "ms", "lower", false, services),
		layer("client", "client.retries", "count", "lower", false, services),

		layer("verifyd", "verifyd.compose_ms_p50", "ms", "lower", false, services),
		layer("verifyd", "verifyd.queue_ms_p50", "ms", "lower", false, services),
		layer("verifyd", "verifyd.queue_ms_p99", "ms", "lower", false, services),
		layer("verifyd", "verifyd.run_ms_p50", "ms", "lower", false, services),
		layer("verifyd", "verifyd.search_ms_p50", "ms", "lower", false, services),
		layer("verifyd", "verifyd.http_self_ms_p50", "ms", "lower", false, services),
		layer("verifyd", "verifyd.key_ms", "ms", "lower", false, services),
		layer("verifyd", "verifyd.report_cache_hit_ratio", "ratio", "higher", false, services),
		layer("verifyd", "verifyd.result_cache_hit_ratio", "ratio", "higher", false, services),
		layer("verifyd", "verifyd.cache_evictions", "count", "lower", false, services),
		layer("verifyd", "verifyd.journal_fsync_ms_mean", "ms", "lower", false, fleetOn),
		layer("verifyd", "verifyd.journal_fsyncs_per_job", "count", "lower", false, fleetOn),
		layer("verifyd", "verifyd.journal_bytes_per_job", "bytes", "lower", false, fleetOn),
		layer("verifyd", "verifyd.replay_s", "s", "lower", false, fleetOn),
		layer("verifyd", "verifyd.jobs_recovered", "count", "higher", false, fleetOn),

		layer("cluster", "cluster.hop_ms_p50", "ms", "lower", false, fleetOn),
		layer("cluster", "cluster.cache_hit_ratio", "ratio", "higher", false, fleetOn),
		layer("cluster", "cluster.node_share_max", "ratio", "lower", false, fleetOn),
		layer("cluster", "cluster.failovers", "count", "lower", true, fleetOn),
		layer("cluster", "cluster.ring_owner_ns", "ns", "lower", false, fleetOn),

		layer("sweep", "sweep.matrix_ms", "ms", "lower", false, editOn),
		layer("sweep", "sweep.cells_per_s", "cells/s", "higher", false, editOn),
		layer("sweep", "sweep.dedup_hits", "count", "higher", true, editOn),

		layer("obs", "obs.trace_overhead_share", "ratio", "lower", false, nil),
		layer("obs", "obs.spans_dropped", "count", "lower", false, nil),
		// The two shares the acceptance criteria are stated in: op time no
		// benchmark or program span covers, and op time outside checker
		// spans.
		layer("obs", "obs.uncovered_share", "ratio", "lower", false, nil),
		layer("obs", "obs.nonsearch_share", "ratio", "lower", false, nil),
	)
	return defs
}()

func metricDefByName(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// Metric is one reported value. Sample-based metrics carry their sample
// count and quartiles beside the reported median or percentile.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"samples,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// Result is what one workload run (one child process) reports.
type Result struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"` // first few reasons
	WallS     float64  `json:"wall_s"`
	Metrics   []Metric `json:"metrics"`
}

func (r *Result) set(name string, value float64) {
	r.setSampled(name, value, nil)
}

// setSampled records a metric whose value summarizes samples.
func (r *Result) setSampled(name string, value float64, samples []float64) {
	def, ok := metricDefByName(name)
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	m := Metric{Name: name, Unit: def.Unit, Value: value}
	if len(samples) > 0 {
		m.N = len(samples)
		m.Q1, _, m.Q3 = quartiles(samples)
	}
	for i := range r.Metrics {
		if r.Metrics[i].Name == name {
			r.Metrics[i] = m
			return
		}
	}
	r.Metrics = append(r.Metrics, m)
}

func (r *Result) setMedian(name string, samples []float64) {
	if len(samples) == 0 {
		return
	}
	r.setSampled(name, median(samples), samples)
}

func (r *Result) get(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// fail records one failed op. A failed op is missing from every latency
// sample and counts in failed_ops_share.
func (r *Result) fail(reason string) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, reason)
	}
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// exclusive method), which is how the benchmark contract measures
// spread; a single sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// percentile is the nearest-rank percentile; with fewer than a hundred
// samples p99 is therefore the maximum.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
