package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pnp/internal/obs/tracing"
)

// In a traced run every op roots its own trace with a span named "op";
// the benchmark adds one span around each call into a layer, and the
// program's PR6 spans (job, compose, queue, run, property:*, checker:*,
// cluster-job) join the same trace through Options.Context or the
// traceparent header the typed client injects. Everything lands in one
// in-memory flight recorder and is written out when the run ends.

const opSpan = "op"

// recorderCapacity holds every span of the largest traced run (a few
// thousand service ops of about a dozen spans each) without wrapping;
// obs.spans_dropped reports it if it ever does.
const recorderCapacity = 1 << 17

// traceFileOps caps how many ops' traces go to the Chrome file: each
// trace is a process row in the viewer, and thousands are unreadable.
const traceFileOps = 200

// layerOf maps a span name to the package whose time it is.
func layerOf(name string) string {
	switch {
	case name == opSpan:
		return "uncovered"
	case name == "job", name == "compose", name == "queue", name == "run", strings.HasPrefix(name, "property:"):
		return "verifyd"
	case strings.HasPrefix(name, "checker:"):
		return "checker"
	case name == "cluster-job":
		return "cluster"
	case strings.HasPrefix(name, "sweep") || strings.HasPrefix(name, "cell:"):
		return "sweep"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i] // the benchmark's own spans are named layer.call
	}
	return "other"
}

// opBreakdown is one op's time split two ways: exclusive time per layer
// (at every instant the innermost open span owns the clock, so the parts
// sum to the op span exactly) and plain duration per span name.
type opBreakdown struct {
	total   time.Duration
	byLayer map[string]time.Duration
	byName  map[string]time.Duration
}

// breakdowns groups spans by trace and splits each trace rooted at an
// op span. Traces without one (sweeps, warm-up) are ignored.
func breakdowns(spans []tracing.SpanData) []opBreakdown {
	byTrace := make(map[string][]tracing.SpanData)
	var order []string
	for _, s := range spans {
		if _, ok := byTrace[s.TraceID]; !ok {
			order = append(order, s.TraceID)
		}
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	var out []opBreakdown
	for _, id := range order {
		trace := byTrace[id]
		var root *tracing.SpanData
		for i := range trace {
			if trace[i].Name == opSpan && trace[i].Parent == "" {
				root = &trace[i]
			}
		}
		if root == nil {
			continue
		}
		out = append(out, splitOp(*root, trace))
	}
	return out
}

func splitOp(root tracing.SpanData, trace []tracing.SpanData) opBreakdown {
	b := opBreakdown{
		total:   root.Duration(),
		byLayer: make(map[string]time.Duration),
		byName:  make(map[string]time.Duration),
	}
	type iv struct {
		start, end time.Time
		layer      string
	}
	var ivs []iv
	cuts := []time.Time{root.Start, root.End}
	for _, s := range trace {
		b.byName[s.Name] += s.Duration()
		start, end := s.Start, s.End
		if start.Before(root.Start) {
			start = root.Start
		}
		if end.After(root.End) {
			end = root.End
		}
		if !end.After(start) {
			continue
		}
		ivs = append(ivs, iv{start, end, layerOf(s.Name)})
		cuts = append(cuts, start, end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if !hi.After(lo) {
			continue
		}
		// The innermost span open over [lo, hi) started last.
		var owner *iv
		for k := range ivs {
			if !ivs[k].start.After(lo) && !ivs[k].end.Before(hi) {
				if owner == nil || ivs[k].start.After(owner.start) {
					owner = &ivs[k]
				}
			}
		}
		if owner != nil {
			b.byLayer[owner.layer] += hi.Sub(lo)
		}
	}
	return b
}

// spanShares summarizes breakdowns as shares of total op time: the part
// no span but the op's own covers, and the part outside checker spans.
func spanShares(bs []opBreakdown) (uncovered, nonSearch float64) {
	var total, unc, search time.Duration
	for _, b := range bs {
		total += b.total
		unc += b.byLayer["uncovered"]
		search += b.byLayer["checker"]
	}
	return ratio(float64(unc), float64(total)), ratio(float64(total-search), float64(total))
}

// spanMillis collects, per op, the summed duration in milliseconds of
// the spans whose name has the given prefix; ops without one are
// skipped (a cache-served job has no checker span).
func spanMillis(bs []opBreakdown, prefix string) []float64 {
	var out []float64
	for _, b := range bs {
		var d time.Duration
		found := false
		for name, dur := range b.byName {
			if strings.HasPrefix(name, prefix) {
				d += dur
				found = true
			}
		}
		if found {
			out = append(out, ms(d))
		}
	}
	return out
}

func layerMillis(bs []opBreakdown, layers ...string) []float64 {
	out := make([]float64, 0, len(bs))
	for _, b := range bs {
		var d time.Duration
		for _, l := range layers {
			d += b.byLayer[l]
		}
		out = append(out, ms(d))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeTrace writes the first traceFileOps op traces (and any sweep
// trace) as Chrome trace_event JSON.
func writeTrace(outDir, workload string, spans []tracing.SpanData) error {
	keep := make(map[string]bool)
	ops := 0
	for _, s := range spans {
		if s.Parent != "" {
			continue
		}
		if s.Name == opSpan {
			if ops >= traceFileOps {
				continue
			}
			ops++
		}
		keep[s.TraceID] = true
	}
	var kept []tracing.SpanData
	for _, s := range spans {
		if keep[s.TraceID] {
			kept = append(kept, s)
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := tracing.WriteChromeTrace(f, kept); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
