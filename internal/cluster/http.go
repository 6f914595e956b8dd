package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"pnp/internal/artifact"
	"pnp/internal/obs/tracing"
	"pnp/internal/sweep"
	"pnp/internal/verifyd"
	"pnp/internal/verifyd/client"
)

// Handler returns the coordinator's HTTP API — the same v1 surface a
// single pnpd serves, so pnpverify -remote and pnpsweep -remote work
// against a cluster unchanged:
//
//	POST /v1/jobs               submit ADL (raw text or JSON envelope)
//	GET  /v1/jobs               list jobs
//	GET  /v1/jobs/{id}          job status (node/failovers included)
//	GET  /v1/jobs/{id}/wait     long-poll until done (or ?timeout=30s)
//	GET  /v1/jobs/{id}/trace    coordinator + worker spans as NDJSON
//	POST /v1/sweeps             submit a sweep -> cluster fan-out
//	GET  /v1/sweeps/{id}        sweep status; cells carry "node"
//	GET  /v1/sweeps/{id}/stream NDJSON cell stream
//	GET  /v1/sweeps/{id}/trace  coordinator + worker spans as NDJSON
//	GET  /v1/cluster            node table, ring shape, cache stats
//	GET  /v1/cache              coordinator result-cache statistics
//	GET  /v1/cache/{key}        peek the coordinator cache by key
//	GET  /v1/artifacts/{hash}   peek a module artifact on any healthy node
//	GET  /healthz               liveness + coordinator identity (JSON)
//	GET  /readyz                200 with >= 1 healthy node, else 503
//	GET  /metrics               Prometheus exposition (and /metrics.json)
//	GET  /debug/trace           flight-recorder listing
//
// Failure responses reuse the uniform verifyd error envelope; a worker
// 4xx (bad ADL) is relayed verbatim, line and column included.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs", c.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/wait", c.handleJobWait)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", c.handleJobTrace)
	mux.HandleFunc("POST /v1/sweeps", c.handleSubmitSweep)
	mux.HandleFunc("GET /v1/sweeps", c.handleSweeps)
	mux.HandleFunc("GET /v1/sweeps/{id}", c.handleSweep)
	mux.HandleFunc("GET /v1/sweeps/{id}/stream", c.handleSweepStream)
	mux.HandleFunc("GET /v1/sweeps/{id}/trace", c.handleSweepTrace)
	mux.HandleFunc("GET /v1/cluster", c.handleCluster)
	mux.HandleFunc("GET /v1/cache", c.handleCacheStats)
	mux.HandleFunc("GET /v1/cache/{key}", c.handleCachePeek)
	mux.HandleFunc("GET /v1/artifacts/{hash}", c.handleArtifactPeek)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	if c.reg != nil {
		mux.Handle("/metrics", c.reg.Handler())
		mux.Handle("/metrics.json", c.reg.Handler())
	}
	if c.tracer != nil {
		mux.Handle("GET /debug/trace", c.tracer.Handler())
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		verifyd.WriteError(w, http.StatusNotFound, verifyd.CodeNotFound, "no such route: "+r.URL.Path)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// relayErr maps a submission failure onto the uniform envelope: a
// worker's APIError is relayed verbatim (the coordinator is a proxy,
// not a translator), and anything else — a drain, or placement
// exhausting every node — is 503 unavailable, since the submission
// itself was never judged.
func relayErr(w http.ResponseWriter, err error) {
	var ae *client.APIError
	if errors.As(err, &ae) {
		if ae.Status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, ae.Status, verifyd.ErrorBody{Error: verifyd.ErrorInfo{
			Code: ae.Code, Message: ae.Message, Line: ae.Line, Col: ae.Col}})
		return
	}
	verifyd.WriteError(w, http.StatusServiceUnavailable, verifyd.CodeUnavailable, err.Error())
}

func (c *Coordinator) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			verifyd.WriteError(w, http.StatusRequestEntityTooLarge, verifyd.CodeTooLarge, "body exceeds 1MiB")
			return
		}
		verifyd.WriteError(w, http.StatusBadRequest, verifyd.CodeInvalidArgument, "reading body: "+err.Error())
		return
	}
	var req client.JobRequest
	trimmed := strings.TrimSpace(string(body))
	if strings.HasPrefix(trimmed, "{") {
		if err := json.Unmarshal(body, &req); err != nil {
			verifyd.WriteError(w, http.StatusBadRequest, verifyd.CodeInvalidArgument, "bad JSON envelope: "+err.Error())
			return
		}
	} else {
		req.ADL = trimmed
	}
	if strings.TrimSpace(req.ADL) == "" {
		verifyd.WriteError(w, http.StatusBadRequest, verifyd.CodeInvalidArgument, "empty ADL source")
		return
	}
	// Trace parenting from the request's traceparent over a background
	// context: the job outlives the 202.
	tctx := tracing.ContextWithRemote(context.Background(), tracing.Extract(r))
	st, err := c.SubmitJob(tctx, req)
	if err != nil {
		relayErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (c *Coordinator) handleJobs(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	jobs := make([]*cjob, 0, len(c.jobs))
	for _, j := range c.jobs {
		jobs = append(jobs, j)
	}
	c.mu.Unlock()
	out := struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: make([]JobStatus, 0, len(jobs))}
	for _, j := range jobs {
		st := j.snapshot()
		st.Report = nil // list view stays light, like the single-node API
		out.Jobs = append(out.Jobs, st)
	}
	sort.Slice(out.Jobs, func(i, k int) bool { return out.Jobs[i].Submitted.Before(out.Jobs[k].Submitted) })
	writeJSON(w, http.StatusOK, out)
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := c.lookupJob(r.PathValue("id"))
	if !ok {
		verifyd.WriteError(w, http.StatusNotFound, verifyd.CodeNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (c *Coordinator) handleJobWait(w http.ResponseWriter, r *http.Request) {
	j, ok := c.lookupJob(r.PathValue("id"))
	if !ok {
		verifyd.WriteError(w, http.StatusNotFound, verifyd.CodeNotFound, "no such job")
		return
	}
	ctx := r.Context()
	timeout := 30 * time.Second
	if ts := r.URL.Query().Get("timeout"); ts != "" {
		d, err := time.ParseDuration(ts)
		if err != nil || d <= 0 {
			verifyd.WriteError(w, http.StatusBadRequest, verifyd.CodeInvalidArgument, "bad timeout")
			return
		}
		timeout = d
	}
	var cancel context.CancelFunc
	ctx, cancel = context.WithTimeout(ctx, timeout)
	defer cancel()
	c.WaitJob(ctx, j) // expiry falls through: report current state
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleJobTrace streams the job's coordinator spans merged with the
// spans its worker recorded — the traceparent the coordinator forwards
// makes them one trace, so the merged stream renders as a single
// timeline covering routing and the remote search.
func (c *Coordinator) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := c.lookupJob(r.PathValue("id"))
	if !ok {
		verifyd.WriteError(w, http.StatusNotFound, verifyd.CodeNotFound, "no such job")
		return
	}
	if c.tracer == nil || j.traceID == "" {
		verifyd.WriteError(w, http.StatusNotFound, verifyd.CodeNotFound, "tracing disabled")
		return
	}
	spans := c.tracer.TraceHex(j.traceID)
	node, remoteID := j.placement()
	if n := c.nodes[node]; n != nil && remoteID != "" {
		if ws, err := n.rc.JobTrace(r.Context(), remoteID); err == nil {
			spans = mergeSpans(spans, ws)
		}
	}
	w.Header().Set("Content-Type", tracing.NDJSONContentType)
	tracing.WriteNDJSON(w, spans)
}

func (c *Coordinator) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var ws sweep.WireSpec
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&ws); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			verifyd.WriteError(w, http.StatusRequestEntityTooLarge, verifyd.CodeTooLarge, "body exceeds 1MiB")
			return
		}
		verifyd.WriteError(w, http.StatusBadRequest, verifyd.CodeInvalidArgument, "bad sweep spec: "+err.Error())
		return
	}
	tctx := tracing.ContextWithRemote(context.Background(), tracing.Extract(r))
	st, err := c.StartSweep(tctx, ws)
	if err != nil {
		verifyd.WriteADLError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (c *Coordinator) handleSweeps(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	sweeps := make([]*csweep, 0, len(c.sweeps))
	for _, sj := range c.sweeps {
		sweeps = append(sweeps, sj)
	}
	c.mu.Unlock()
	out := struct {
		Sweeps []sweep.Status `json:"sweeps"`
	}{Sweeps: make([]sweep.Status, 0, len(sweeps))}
	for _, sj := range sweeps {
		out.Sweeps = append(out.Sweeps, sj.status(false))
	}
	sort.Slice(out.Sweeps, func(i, k int) bool { return out.Sweeps[i].Started.Before(out.Sweeps[k].Started) })
	writeJSON(w, http.StatusOK, out)
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	sj, ok := c.lookupSweep(r.PathValue("id"))
	if !ok {
		verifyd.WriteError(w, http.StatusNotFound, verifyd.CodeNotFound, "no such sweep")
		return
	}
	writeJSON(w, http.StatusOK, sj.status(true))
}

// streamLine mirrors the single-node sweep stream's line shape.
type streamLine struct {
	Cell  *sweep.CellResult `json:"cell,omitempty"`
	Sweep *sweep.Status     `json:"sweep,omitempty"`
}

func (c *Coordinator) handleSweepStream(w http.ResponseWriter, r *http.Request) {
	sj, ok := c.lookupSweep(r.PathValue("id"))
	if !ok {
		verifyd.WriteError(w, http.StatusNotFound, verifyd.CodeNotFound, "no such sweep")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	seen := 0
	for {
		sj.mu.Lock()
		pending := append([]sweep.CellResult(nil), sj.cells[seen:]...)
		done := sj.done
		notify := sj.notify
		sj.mu.Unlock()
		for i := range pending {
			enc.Encode(streamLine{Cell: &pending[i]})
			seen++
		}
		if done {
			st := sj.status(true)
			enc.Encode(streamLine{Sweep: &st})
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

// handleSweepTrace merges the coordinator's sweep spans with every
// worker-side job trace the sweep touched.
func (c *Coordinator) handleSweepTrace(w http.ResponseWriter, r *http.Request) {
	sj, ok := c.lookupSweep(r.PathValue("id"))
	if !ok {
		verifyd.WriteError(w, http.StatusNotFound, verifyd.CodeNotFound, "no such sweep")
		return
	}
	if c.tracer == nil || sj.traceID == "" {
		verifyd.WriteError(w, http.StatusNotFound, verifyd.CodeNotFound, "tracing disabled")
		return
	}
	spans := c.tracer.TraceHex(sj.traceID)
	sj.mu.Lock()
	placements := make(map[string][]string, len(sj.placements))
	for node, ids := range sj.placements {
		placements[node] = append([]string(nil), ids...)
	}
	sj.mu.Unlock()
	for node, ids := range placements {
		n := c.nodes[node]
		if n == nil {
			continue
		}
		for _, id := range ids {
			if ws, err := n.rc.JobTrace(r.Context(), id); err == nil {
				spans = mergeSpans(spans, ws)
			}
		}
	}
	w.Header().Set("Content-Type", tracing.NDJSONContentType)
	tracing.WriteNDJSON(w, spans)
}

// mergeSpans appends remote spans, dropping ids already present, and
// keeps the stream in start order.
func mergeSpans(have, more []tracing.SpanData) []tracing.SpanData {
	seen := make(map[string]bool, len(have))
	for _, s := range have {
		seen[s.SpanID] = true
	}
	for _, s := range more {
		if !seen[s.SpanID] {
			seen[s.SpanID] = true
			have = append(have, s)
		}
	}
	sort.SliceStable(have, func(i, j int) bool { return have[i].Start.Before(have[j].Start) })
	return have
}

func (c *Coordinator) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Info())
}

func (c *Coordinator) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Coordinator verifyd.CacheStats `json:"coordinator"`
	}{c.cache.Stats()})
}

// handleCachePeek answers from the coordinator tier only — peeking
// workers is the coordinator's job on submission, not the client's.
func (c *Coordinator) handleCachePeek(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("key")
	b, err := hex.DecodeString(raw)
	if err != nil || len(b) != sha256.Size {
		verifyd.WriteError(w, http.StatusBadRequest, verifyd.CodeInvalidArgument,
			"cache key must be 64 hex characters")
		return
	}
	var key verifyd.CacheKey
	copy(key[:], b)
	hit, ok := c.cache.Get(key)
	if !ok {
		verifyd.WriteError(w, http.StatusNotFound, verifyd.CodeNotFound, "no cached report for key "+raw)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Key    string          `json:"key"`
		Node   string          `json:"node"`
		Report *verifyd.Report `json:"report"`
	}{raw, hit.node, hit.rep})
}

// handleArtifactPeek resolves a module artifact by fanning the peek out
// across healthy nodes (since PR10). Artifacts are content-addressed,
// so any node's copy is the copy — the first hit answers; a miss
// everywhere is a plain 404. Unlike /v1/cache/{key}, the coordinator
// holds no artifact tier of its own: modules live where compilation
// happened.
func (c *Coordinator) handleArtifactPeek(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("hash")
	if _, err := artifact.ParseHash(raw); err != nil {
		verifyd.WriteError(w, http.StatusBadRequest, verifyd.CodeInvalidArgument,
			"artifact hash must be 64 hex characters")
		return
	}
	for _, name := range c.Nodes() {
		n := c.nodes[name]
		if n == nil || !n.healthy.Load() {
			continue
		}
		art, err := n.rc.Artifact(r.Context(), raw)
		if err != nil || art == nil {
			continue
		}
		writeJSON(w, http.StatusOK, art)
		return
	}
	verifyd.WriteError(w, http.StatusNotFound, verifyd.CodeNotFound, "no artifact for hash "+raw)
}

// CoordinatorHealth is the coordinator's GET /healthz body.
type CoordinatorHealth struct {
	Status       string `json:"status"`
	Role         string `json:"role"`
	Version      string `json:"version"`
	Nodes        int    `json:"nodes"`
	NodesHealthy int    `json:"nodes_healthy"`
	CacheEntries int    `json:"cache_entries"`
	Jobs         int    `json:"jobs"`
	Draining     bool   `json:"draining,omitempty"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	jobs := len(c.jobs)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, CoordinatorHealth{
		Status:       "ok",
		Role:         "coordinator",
		Version:      verifyd.Version,
		Nodes:        len(c.nodes),
		NodesHealthy: c.HealthyNodes(),
		CacheEntries: c.cache.Stats().Entries,
		Jobs:         jobs,
		Draining:     c.draining.Load(),
	})
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case c.draining.Load():
		verifyd.WriteError(w, http.StatusServiceUnavailable, verifyd.CodeUnavailable, "draining")
	case c.HealthyNodes() == 0:
		verifyd.WriteError(w, http.StatusServiceUnavailable, verifyd.CodeUnavailable, "no healthy nodes")
	default:
		writeJSON(w, http.StatusOK, struct {
			Status string `json:"status"`
		}{"ready"})
	}
}
