package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"pnp/internal/adl"
	"pnp/internal/api"
	"pnp/internal/blocks"
	"pnp/internal/obs"
	"pnp/internal/obs/tracing"
	"pnp/internal/verifyd"
)

// retainSweeps bounds how many completed sweeps stay queryable; older
// ones are evicted FIFO (running sweeps are never evicted).
const retainSweeps = 64

// Compile resolves a POST /v1/sweeps body to an executable Spec.
func Compile(ws api.SweepSpec) (Spec, error) {
	var spec Spec
	switch ws.Preset {
	case "":
		spec = Spec{
			Name:       ws.Name,
			Base:       ws.Base,
			Components: ws.Components,
			Connector:  ws.Connector,
			FaultPlans: ws.FaultPlans,
			UnderLossy: ws.UnderLossy,
			LossySize:  ws.LossySize,
		}
		for _, tok := range ws.Sends {
			k, ok := adl.ParseSendKind(tok)
			if !ok {
				return Spec{}, fmt.Errorf("unknown send kind %q", tok)
			}
			spec.Sends = append(spec.Sends, k)
		}
		for _, tok := range ws.Channels {
			kind, size, err := adl.ParseChannel(tok)
			if err != nil {
				return Spec{}, err
			}
			spec.Channels = append(spec.Channels, ChannelVariant{Kind: kind, Size: size})
		}
		for _, tok := range ws.Recvs {
			k, ok := adl.ParseRecvKind(tok)
			if !ok {
				return Spec{}, fmt.Errorf("unknown receive kind %q", tok)
			}
			spec.Recvs = append(spec.Recvs, k)
		}
	case "matrix":
		msgs := ws.Msgs
		if msgs <= 0 {
			msgs = 3
		}
		bufsize := ws.BufSize
		if bufsize <= 0 {
			bufsize = 1
		}
		spec = Matrix(msgs, bufsize)
		if ws.Name != "" {
			spec.Name = ws.Name
		}
	default:
		return Spec{}, fmt.Errorf("unknown preset %q", ws.Preset)
	}
	spec.MaxStates = ws.MaxStates
	spec.Workers = ws.Workers
	spec.Timeout = time.Duration(ws.TimeoutMS) * time.Millisecond
	return spec, nil
}

// sweepJob is one running or completed sweep.
type sweepJob struct {
	id      string
	seq     int // creation order, the listing order
	name    string
	started time.Time
	total   int
	traceID string

	mu     sync.Mutex
	cells  []api.SweepCell
	result *api.SweepResult
	err    string
	done   bool
	notify chan struct{} // closed and replaced on every update
	// remote fetches the spans of every cell job that recorded them off
	// this process (fleet workers), for the trace route to merge in.
	remote []func(context.Context) []tracing.SpanData
}

func (sj *sweepJob) status(withResult bool) api.SweepStatus {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	st := api.SweepStatus{
		ID: sj.id, Name: sj.name, State: "running", Started: sj.started,
		Total: sj.total, Done: len(sj.cells), TraceID: sj.traceID, Err: sj.err,
	}
	if sj.done {
		st.State = "done"
		if withResult {
			st.Result = sj.result
		}
	}
	return st
}

// update applies fn to the sweep under its lock and wakes every stream
// follower.
func (sj *sweepJob) update(fn func()) {
	sj.mu.Lock()
	fn()
	close(sj.notify)
	sj.notify = make(chan struct{})
	sj.mu.Unlock()
}

// Service serves the sweep routes of the v1 API over whichever Executor
// the process runs cells on — the local server in a single pnpd, the
// fleet in a coordinator. One POST fans out into a job per distinct
// cell; all sweeps share the executor's result caches and search
// budget.
type Service struct {
	exec Executor
	reg  *obs.Registry

	mu     sync.Mutex
	sweeps map[string]*sweepJob
	order  []string // completed-sweep eviction order
	nextID int
	wg     sync.WaitGroup
}

// NewService builds a sweep service over exec. reg receives the sweep
// metric families; nil disables them.
func NewService(exec Executor, reg *obs.Registry) *Service {
	return &Service{exec: exec, reg: reg, sweeps: make(map[string]*sweepJob)}
}

// Wait blocks until every accepted sweep has finished. Call after the
// executor has drained.
func (sv *Service) Wait() { sv.wg.Wait() }

// Start validates and launches a sweep in the background, returning its
// initial status. ctx is used only for trace parenting (a span or
// extracted traceparent joins the sweep to the caller's trace); the
// background run is never canceled by it.
func (sv *Service) Start(ctx context.Context, ws api.SweepSpec) (api.SweepStatus, error) {
	if sv.exec.Draining() {
		return api.SweepStatus{}, verifyd.ErrDraining
	}
	spec, err := Compile(ws)
	if err != nil {
		return api.SweepStatus{}, err
	}
	cells, err := spec.Expand()
	if err != nil {
		return api.SweepStatus{}, err
	}
	// Compose the first cell now so bad designs fail the submission, not
	// the background run: Expand only parses the architecture, while
	// composition resolves components and endpoints.
	if _, err := adl.Load(cells[0].Source, func(path string) (string, error) {
		if text, ok := spec.Components[path]; ok {
			return text, nil
		}
		return "", fmt.Errorf("unknown component %q", path)
	}, blocks.NewCache()); err != nil {
		return api.SweepStatus{}, err
	}

	// The sweep span starts here, not in the engine, so the 202 response
	// already carries the TraceID a client needs to follow the trace.
	_, sspan := sv.exec.Tracer().StartSpan(ctx, "sweep",
		tracing.A("name", spec.Name), tracing.A("cells", fmt.Sprintf("%d", len(cells))))

	sv.mu.Lock()
	sv.nextID++
	sj := &sweepJob{
		id:      fmt.Sprintf("sweep-%d", sv.nextID),
		seq:     sv.nextID,
		name:    spec.Name,
		started: time.Now(),
		total:   len(cells),
		notify:  make(chan struct{}),
	}
	if sspan != nil {
		sj.traceID = sspan.TraceID().String()
		sspan.SetAttr("sweep_id", sj.id)
	}
	sv.sweeps[sj.id] = sj
	sv.mu.Unlock()
	log := sv.exec.Logger()
	log.Info("sweep started", "sweep_id", sj.id, "name", spec.Name,
		"cells", len(cells), "trace_id", sj.traceID)

	sv.wg.Add(1)
	go func() {
		defer sv.wg.Done()
		// A fresh context carrying only the sweep span: the run must
		// outlive the submitting HTTP request.
		runCtx := context.Background()
		if sspan != nil {
			runCtx = tracing.ContextWithSpan(runCtx, sspan)
		}
		res, err := run(runCtx, spec, cells, sv.exec, sv.reg, func(cr api.SweepCell, o *Outcome) {
			sj.update(func() {
				sj.cells = append(sj.cells, cr)
				if o != nil && !cr.Deduped && o.RemoteSpans != nil {
					sj.remote = append(sj.remote, o.RemoteSpans)
				}
			})
		})
		sj.update(func() {
			if err != nil {
				sj.err = err.Error()
			} else {
				sj.result = res
			}
			sj.done = true
		})
		if sspan != nil {
			if err != nil {
				sspan.SetAttr("error", err.Error())
			} else {
				sspan.SetAttr("passed", fmt.Sprintf("%d", res.Passed))
				sspan.SetAttr("failed", fmt.Sprintf("%d", res.Failed))
			}
			sspan.End()
		}
		if err != nil {
			log.Warn("sweep failed", "sweep_id", sj.id, "trace_id", sj.traceID, "err", err)
		} else {
			log.Info("sweep done", "sweep_id", sj.id, "trace_id", sj.traceID,
				"passed", res.Passed, "failed", res.Failed, "dedup_hits", res.DedupHits)
		}
		sv.retire(sj.id)
	}()
	return sj.status(false), nil
}

// retire records a completed sweep and evicts the oldest beyond the
// retention bound.
func (sv *Service) retire(id string) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sv.order = append(sv.order, id)
	for len(sv.order) > retainSweeps {
		delete(sv.sweeps, sv.order[0])
		sv.order = sv.order[1:]
	}
}

func (sv *Service) lookup(id string) (*sweepJob, bool) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sj, ok := sv.sweeps[id]
	return sj, ok
}

// Routes is the sweep group of the v1 route table, served through
// verifyd's transport like every other route.
func (sv *Service) Routes() []verifyd.Route {
	return []verifyd.Route{
		{Pattern: "POST /v1/sweeps", Handler: verifyd.JSON(http.StatusAccepted, sv.handleSubmit)},
		{Pattern: "GET /v1/sweeps", Handler: verifyd.Document(sv.list)},
		{Pattern: "GET /v1/sweeps/{id}", Handler: verifyd.JSON(http.StatusOK, sv.handleSweep)},
		{Pattern: "GET /v1/sweeps/{id}/stream", Handler: sv.handleStream},
		{Pattern: "GET /v1/sweeps/{id}/trace", Handler: verifyd.Spans(sv.handleTrace)},
	}
}

func (sv *Service) handleSubmit(r *http.Request) (any, error) {
	body, err := verifyd.ReadBody(r)
	if err != nil {
		return nil, err
	}
	var ws api.SweepSpec
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&ws); err != nil {
		return nil, fmt.Errorf("bad sweep spec: %w", err)
	}
	return sv.Start(verifyd.Detached(r), ws)
}

// list is the GET /v1/sweeps body: every retained sweep in creation
// order, without the (large) results.
func (sv *Service) list() any {
	sv.mu.Lock()
	jobs := make([]*sweepJob, 0, len(sv.sweeps))
	for _, sj := range sv.sweeps {
		jobs = append(jobs, sj)
	}
	sv.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	out := struct {
		Sweeps []api.SweepStatus `json:"sweeps"`
	}{Sweeps: make([]api.SweepStatus, 0, len(jobs))}
	for _, sj := range jobs {
		out.Sweeps = append(out.Sweeps, sj.status(false))
	}
	return out
}

// Status returns a sweep's status, result included once it is done.
func (sv *Service) Status(id string) (api.SweepStatus, bool) {
	sj, ok := sv.lookup(id)
	if !ok {
		return api.SweepStatus{}, false
	}
	return sj.status(true), true
}

func (sv *Service) handleSweep(r *http.Request) (any, error) {
	st, ok := sv.Status(r.PathValue("id"))
	if !ok {
		return nil, verifyd.NotFound("no such sweep")
	}
	return st, nil
}

// handleStream serves GET /v1/sweeps/{id}/stream: an api.SweepLine per
// cell as results arrive, then exactly one sweep line.
func (sv *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	sj, ok := sv.lookup(r.PathValue("id"))
	if !ok {
		verifyd.WriteError(w, http.StatusNotFound, verifyd.CodeNotFound, "no such sweep")
		return
	}
	w.Header().Set("Content-Type", tracing.NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	seen := 0
	for {
		sj.mu.Lock()
		pending := append([]api.SweepCell(nil), sj.cells[seen:]...)
		done := sj.done
		notify := sj.notify
		sj.mu.Unlock()
		for i := range pending {
			enc.Encode(api.SweepLine{Cell: &pending[i]})
			seen++
		}
		if done {
			st := sj.status(true)
			enc.Encode(api.SweepLine{Sweep: &st})
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// handleTrace answers with the sweep's spans in this process's flight
// recorder — sweep, cells, and on a local executor their jobs and
// checker phases — merged with what fleet workers recorded for the cell
// jobs placed on them.
func (sv *Service) handleTrace(r *http.Request) ([]tracing.SpanData, error) {
	sj, ok := sv.lookup(r.PathValue("id"))
	if !ok {
		return nil, verifyd.NotFound("no such sweep")
	}
	if sj.traceID == "" {
		return nil, verifyd.NotFound("tracing disabled")
	}
	spans := sv.exec.Tracer().TraceHex(sj.traceID)
	sj.mu.Lock()
	remote := append([]func(context.Context) []tracing.SpanData(nil), sj.remote...)
	sj.mu.Unlock()
	for _, fetch := range remote {
		spans = tracing.Merge(spans, fetch(r.Context()))
	}
	return spans, nil
}
