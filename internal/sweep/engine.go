package sweep

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"
	"time"

	"pnp/internal/api"
	"pnp/internal/checker"
	"pnp/internal/obs"
	"pnp/internal/obs/tracing"
	"pnp/internal/verifyd"
)

// Config parameterizes sweep execution.
type Config struct {
	// Server executes the cells; nil runs the sweep on a private
	// in-process server that is drained when Run returns. A shared server
	// (the daemon case) lets concurrent sweeps share its result cache and
	// search-worker budget.
	Server *verifyd.Server

	// Private-server shape, used only when Server is nil.
	Workers      int
	SearchBudget int
	CacheEntries int

	// Options is the private server's base checker configuration for
	// every cell; the spec's MaxStates/Workers/Timeout overlay it. A
	// shared Server's cells start from its own options instead, so they
	// hash into the same cache entries as direct submissions.
	Options checker.Options

	// Registry receives the sweep metric families (sweeps_total,
	// sweep_cells_total, sweep_cache_hits_total, sweep_cells_in_flight);
	// nil disables them.
	Registry *obs.Registry

	// Tracer is the private server's flight recorder: sweep and cell
	// spans record into the executing server's recorder, so one trace
	// spans the sweep, its cells, and their jobs.
	Tracer *tracing.Recorder

	// OnCell, when set, is called with each cell's result as it completes,
	// in cell-index order — the streaming hook behind NDJSON responses
	// and live CLI tables.
	OnCell func(api.SweepCell)
}

// Outcome is one executed cell job as its Executor reports it: the
// job's document as the executor holds it — Report nil with Err set
// when the job ran nowhere (every fleet node refused it), Node naming
// the fleet node that served it (empty in-process) — and where to fetch
// its spans.
type Outcome struct {
	api.Job
	// RemoteSpans fetches the spans the job recorded outside this
	// process's flight recorder; nil when there are none to fetch.
	RemoteSpans func(context.Context) []tracing.SpanData
}

// Executor is what the sweep engine runs cells on: an in-process
// verification server (Local) or a cluster coordinator's fleet.
type Executor interface {
	// Submit starts one cell's design as a job, applying the spec's
	// components and per-cell overrides, and returns the wait for its
	// outcome. An error means the cell could not be submitted at all
	// (its design does not compose, no node accepts it); the sweep
	// records it on the cell and carries on.
	Submit(ctx context.Context, source string, spec Spec) (wait func(context.Context) (Outcome, error), err error)
	// Tracer and Logger receive the sweep's own spans and lifecycle
	// logs, so one trace covers a sweep, its cells and their jobs.
	Tracer() *tracing.Recorder
	Logger() *slog.Logger
	// Draining reports that no new sweep should start.
	Draining() bool
}

// local executes cells as jobs on an in-process verification server.
type local struct{ *verifyd.Server }

// Local returns the executor that runs cells as jobs on srv, starting
// from srv's own checker options so cells hash into the same cache
// entries as direct job submissions.
func Local(srv *verifyd.Server) Executor { return local{srv} }

func (l local) Submit(ctx context.Context, source string, spec Spec) (func(context.Context) (Outcome, error), error) {
	opts := l.Options()
	if spec.MaxStates > 0 {
		opts.MaxStates = spec.MaxStates
	}
	if spec.Workers > 0 {
		opts.Workers = spec.Workers
	}
	job, err := l.SubmitContext(ctx, source, spec.Components, opts, spec.Timeout)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context) (Outcome, error) {
		if err := l.Wait(ctx, job); err != nil {
			return Outcome{}, err
		}
		return Outcome{Job: l.Snapshot(job)}, nil
	}, nil
}

// Run expands the spec and executes every cell on the configured server,
// deduplicating identical cell sources into single jobs. Cells that fail
// to submit (bad composition) carry their error in the result; Run
// itself fails only on an invalid spec or a canceled context.
func Run(ctx context.Context, spec Spec, cfg Config) (*api.SweepResult, error) {
	cells, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	srv := cfg.Server
	if srv == nil {
		srv = verifyd.NewServer(verifyd.Config{
			Workers:      cfg.Workers,
			SearchBudget: cfg.SearchBudget,
			CacheEntries: cfg.CacheEntries,
			Registry:     cfg.Registry,
			Tracer:       cfg.Tracer,
			Options:      cfg.Options,
		})
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Shutdown(sctx)
		}()
	}
	var observe func(api.SweepCell, *Outcome)
	if cfg.OnCell != nil {
		observe = func(cr api.SweepCell, _ *Outcome) { cfg.OnCell(cr) }
	}
	return run(ctx, spec, cells, Local(srv), cfg.Registry, observe)
}

// run is the sweep engine: it executes expanded cells on exec and
// aggregates their results. observe, when non-nil, sees every cell's
// result as it completes, in cell-index order, together with the
// outcome of the job that produced it.
func run(ctx context.Context, spec Spec, cells []Cell, exec Executor, reg *obs.Registry, observe func(api.SweepCell, *Outcome)) (*api.SweepResult, error) {
	tracer := exec.Tracer()
	// One sweep span roots the trace unless the caller already started
	// one (the sweep service does, so the 202 response can carry the
	// TraceID before any cell runs).
	if tracing.SpanFromContext(ctx) == nil {
		var sspan *tracing.Span
		ctx, sspan = tracer.StartSpan(ctx, "sweep",
			tracing.A("name", spec.Name), tracing.A("cells", strconv.Itoa(len(cells))))
		defer sspan.End()
	}

	mSweeps := reg.Counter("sweeps_total")
	mCells := reg.Counter("sweep_cells_total")
	mCacheHits := reg.Counter("sweep_cache_hits_total")
	mInFlight := reg.Gauge("sweep_cells_in_flight")
	mSweeps.Inc()

	// Submit one job per distinct cell source; later cells with the same
	// source become followers of the first (the leader) and reuse its
	// result. The under-lossy companions of an already-lossy-adjacent
	// matrix are the common case: half a sweep can collapse this way.
	type submission struct {
		wait func(context.Context) (Outcome, error)
		err  error
		span *tracing.Span // the cell's span, ended when its wait completes
	}
	leaders := make(map[string]int, len(cells)) // source -> leader cell index
	subs := make(map[int]*submission, len(cells))
	for _, c := range cells {
		if _, ok := leaders[c.Source]; ok {
			continue
		}
		leaders[c.Source] = c.Index
		cctx, cspan := tracer.StartSpan(ctx, "cell:"+strconv.Itoa(c.Index),
			tracing.A("connector", c.Connector))
		wait, err := exec.Submit(cctx, c.Source, spec)
		subs[c.Index] = &submission{wait: wait, err: err, span: cspan}
		if err == nil {
			mInFlight.Add(1)
		} else {
			cspan.SetAttr("error", err.Error())
			cspan.End()
		}
	}

	res := &api.SweepResult{Name: spec.Name, Total: len(cells)}
	start := time.Now()
	for _, c := range cells {
		leader := leaders[c.Source]
		sub := subs[leader]
		cr := api.SweepCell{
			Index:     c.Index,
			Connector: c.Connector,
			Send:      c.Spec.Send.Token(),
			Channel:   c.Spec.Channel.Token(),
			Size:      c.Spec.Size,
			Recv:      c.Spec.Recv.Token(),
			Faults:    c.Faults,
			Companion: c.Companion,
			Primary:   c.Primary,
			Deduped:   leader != c.Index,
		}
		var outcome *Outcome
		if sub.err != nil {
			cr.Verdict = "error"
			cr.Err = sub.err.Error()
		} else {
			o, err := sub.wait(ctx)
			if err != nil {
				sub.span.End()
				return nil, fmt.Errorf("sweep: cell %d: %w", c.Index, err)
			}
			outcome = &o
			cr.Node = o.Node
			if o.Err != "" {
				cr.Verdict = "error"
				cr.Err = o.Err
			} else {
				classify(&cr, o.Report)
			}
			if !cr.Deduped {
				cr.CacheHits = o.CacheHits
				cr.CacheMisses = o.CacheMisses
				cr.ModulesReused = o.ModulesReused
				cr.ModulesCompiled = o.ModulesCompiled
				mInFlight.Add(-1)
				if sub.span != nil {
					sub.span.SetAttr("verdict", cr.Verdict)
					sub.span.SetAttr("job_id", o.ID)
					if o.Node != "" {
						sub.span.SetAttr("node", o.Node)
					}
					sub.span.End()
				}
			} else {
				// Followers record a zero-cost span pointing at the
				// leader's job, so the trace shows where each cell's
				// verdict came from.
				_, fspan := tracer.StartSpan(ctx, "cell:"+strconv.Itoa(c.Index),
					tracing.A("connector", c.Connector),
					tracing.A("deduped", "true"),
					tracing.A("leader", strconv.Itoa(leader)),
					tracing.A("verdict", cr.Verdict))
				fspan.End()
			}
		}
		mCells.Inc()
		// A cell is "served from cache" when it piggybacked on another
		// cell's job, or when its own job never ran a search.
		if cr.Err == "" && (cr.Deduped || cr.CacheMisses == 0) {
			mCacheHits.Inc()
		}
		if cr.Deduped {
			res.DedupHits++
		}
		res.CacheHits += cr.CacheHits
		res.CacheMisses += cr.CacheMisses
		res.ModulesReused += cr.ModulesReused
		res.ModulesCompiled += cr.ModulesCompiled
		if cr.Err == "" && cr.OK {
			res.Passed++
		} else {
			res.Failed++
		}
		res.Cells = append(res.Cells, cr)
		if observe != nil {
			observe(cr, outcome)
		}
	}
	res.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return res, nil
}

// classify reduces a job report to the cell's verdict: a failing safety
// property names the violation ("deadlock" for invalid end states), a
// failing goal means the design can lose messages, and a clean report
// delivers all. States is the safety search's cost — the number the
// matrix experiment compares across cells.
func classify(cr *api.SweepCell, rep *api.Report) {
	if rep == nil {
		cr.Verdict = "error"
		cr.Err = "job finished without a report"
		return
	}
	cr.OK = rep.OK
	cr.Properties = rep.Properties
	cr.Verdict = "delivers-all"
	var goalFailed bool
	for i := range rep.Properties {
		p := &rep.Properties[i]
		cr.ElapsedMS += p.ElapsedMS
		switch p.Kind {
		case "invariant":
			cr.States = p.States
			if !p.OK {
				if p.Verdict == checker.Deadlock.String() {
					cr.Verdict = "deadlock"
				} else {
					cr.Verdict = p.Verdict
				}
			}
		case "goal":
			if !p.OK {
				goalFailed = true
			}
		}
	}
	if cr.Verdict == "delivers-all" && goalFailed {
		cr.Verdict = "may-lose-messages"
	}
}
