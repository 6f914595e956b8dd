package checker

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"pnp/internal/obs"
	"pnp/internal/obs/tracing"
)

// Progress is one periodic snapshot of a running exploration, the
// Spin-style progress line. The checker emits it through
// Options.Progress every Options.ProgressInterval, plus one final
// snapshot (Final == true) when the search ends.
type Progress struct {
	// Phase names the search: "safety-par-bfs", "reachability-par",
	// "liveness" or "ag-ef".
	Phase string
	// Exploration counters so far.
	StatesStored  int
	StatesMatched int
	Transitions   int
	Depth         int
	Reduced       int
	// Frontier is the size of the current BFS level.
	Frontier int
	// Elapsed is the time since the search started; StatesPerSec is the
	// average storage rate over that window.
	Elapsed      time.Duration
	StatesPerSec float64
	// HeapAlloc is the live heap in bytes at snapshot time.
	HeapAlloc uint64
	// Final marks the last snapshot of the search.
	Final bool
}

// meterCheckEvery bounds how often the meter consults the clock: once
// per this many stored states. Keeps the disabled/armed hot-path cost
// to a counter decrement.
const meterCheckEvery = 1024

// meter drives progress callbacks and metrics publication for one
// search. A nil meter (observability disabled) makes every method a
// no-op, so search loops call it unconditionally.
type meter struct {
	opts      *Options
	phase     string
	start     time.Time
	next      time.Time
	interval  time.Duration
	countdown int

	// Registry instruments, nil when Options.Metrics is nil. Counters
	// carry deltas since the previous emit so they aggregate correctly
	// across properties sharing one registry.
	mStored, mMatched, mTrans, mReduced *obs.Counter
	gStored, gDepth, gHeap              *obs.Gauge
	lastStored, lastMatched, lastTrans  int
	lastReduced                         int

	// span is the phase's trace span, nil when Options.Tracer is nil.
	// frontier carries the latest BFS level size into snapshots.
	span     *tracing.Span
	frontier int
}

// newMeter arms a meter for one search phase; nil when no Progress
// callback, metrics registry, or tracer is configured.
func (c *Checker) newMeter(phase string) *meter {
	if c.opts.Progress == nil && c.opts.Metrics == nil && c.opts.Tracer == nil {
		return nil
	}
	interval := c.opts.ProgressInterval
	if interval <= 0 {
		interval = time.Second
	}
	now := time.Now()
	m := &meter{
		opts:     &c.opts,
		phase:    phase,
		start:    now,
		next:     now, // first tick emits immediately, then every interval
		interval: interval,
		// Countdown of 1 makes the first stored state emit a snapshot, so
		// even sub-interval searches produce one progress line.
		countdown: 1,
	}
	if reg := c.opts.Metrics; reg != nil {
		m.mStored = reg.Counter(obs.Labels("checker_states_stored_total", "phase", phase))
		m.mMatched = reg.Counter(obs.Labels("checker_states_matched_total", "phase", phase))
		m.mTrans = reg.Counter(obs.Labels("checker_transitions_total", "phase", phase))
		m.mReduced = reg.Counter(obs.Labels("checker_reduced_states_total", "phase", phase))
		m.gStored = reg.Gauge(obs.Labels("checker_states_stored", "phase", phase))
		m.gDepth = reg.Gauge(obs.Labels("checker_depth", "phase", phase))
		m.gHeap = reg.Gauge("checker_heap_alloc_bytes")
	}
	if tr := c.opts.Tracer; tr != nil {
		ctx := c.opts.Context
		if ctx == nil {
			ctx = context.Background()
		}
		_, m.span = tr.StartSpan(ctx, "checker:"+phase)
	}
	return m
}

// level is called by the searches at each level barrier with the
// frontier size, which becomes a span event (the per-level timeline in
// the Chrome view) and the Frontier field of subsequent snapshots, and
// the n states stored since the last call; it emits a snapshot when the
// interval has elapsed. Workers never touch the meter.
func (m *meter) level(st *Stats, depth, frontier, n int) {
	if m == nil {
		return
	}
	m.frontier = frontier
	if m.span != nil {
		m.span.AddEvent("level",
			tracing.A("depth", strconv.Itoa(depth)),
			tracing.A("frontier", strconv.Itoa(frontier)),
			tracing.A("stored", strconv.Itoa(st.StatesStored)))
	}
	if m.countdown -= max(n, 0); m.countdown > 0 {
		return
	}
	m.countdown = meterCheckEvery
	now := time.Now()
	if now.Before(m.next) {
		return
	}
	m.next = now.Add(m.interval)
	m.emit(st, depth, now, false)
}

// finish emits the final snapshot and ends the phase span; call it
// (usually deferred) on every exit path of a search.
func (m *meter) finish(st *Stats, depth int) {
	if m == nil {
		return
	}
	m.emit(st, depth, time.Now(), true)
	if m.span != nil {
		m.span.SetAttr("states_stored", strconv.Itoa(st.StatesStored))
		m.span.SetAttr("states_matched", strconv.Itoa(st.StatesMatched))
		m.span.SetAttr("transitions", strconv.Itoa(st.Transitions))
		m.span.SetAttr("max_depth", strconv.Itoa(depth))
		if st.Truncated {
			m.span.SetAttr("truncated", "true")
		}
		m.span.End()
	}
}

func (m *meter) emit(st *Stats, depth int, now time.Time, final bool) {
	elapsed := now.Sub(m.start)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	p := Progress{
		Phase:         m.phase,
		StatesStored:  st.StatesStored,
		StatesMatched: st.StatesMatched,
		Transitions:   st.Transitions,
		Depth:         depth,
		Reduced:       st.Reduced,
		Frontier:      m.frontier,
		Elapsed:       elapsed,
		HeapAlloc:     mem.HeapAlloc,
		Final:         final,
	}
	if elapsed > 0 {
		p.StatesPerSec = float64(st.StatesStored) / elapsed.Seconds()
	}
	m.mStored.Add(int64(st.StatesStored - m.lastStored))
	m.mMatched.Add(int64(st.StatesMatched - m.lastMatched))
	m.mTrans.Add(int64(st.Transitions - m.lastTrans))
	m.mReduced.Add(int64(st.Reduced - m.lastReduced))
	m.lastStored, m.lastMatched = st.StatesStored, st.StatesMatched
	m.lastTrans, m.lastReduced = st.Transitions, st.Reduced
	m.gStored.Set(int64(st.StatesStored))
	m.gDepth.Set(int64(depth))
	m.gHeap.Set(int64(mem.HeapAlloc))
	if m.opts.Progress != nil {
		m.opts.Progress(p)
	}
}

// withPhaseLabel runs fn with a runtime/pprof label identifying the
// exploration phase, so CPU profiles attribute time to safety versus
// liveness versus partial-order-reduction work.
func withPhaseLabel(phase string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("pnp_phase", phase), func(context.Context) {
		fn()
	})
}
