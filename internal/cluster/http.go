package cluster

import (
	"context"
	"errors"
	"net/http"

	"pnp/internal/api"
	"pnp/internal/model"
	"pnp/internal/obs/tracing"
	"pnp/internal/verifyd"
	"pnp/internal/verifyd/client"
)

// The coordinator as the fleet backend of the one v1 transport
// (verifyd.Backend): the HTTP surface is the code a single pnpd runs, so
// pnpverify -remote and pnpsweep -remote work against a fleet
// unchanged. What is written here is only what a fleet does differently
// — placement, relaying a worker's errors, merging its spans, fanning
// out artifact peeks — plus GET /v1/cluster.

// Handler returns the coordinator's HTTP API: the v1 route table of
// verifyd's transport over the fleet, with the sweep routes.
func (c *Coordinator) Handler() http.Handler {
	return verifyd.NewHandler(verifyd.Routes(c, c.sweeps.Routes()...))
}

// Surface implements verifyd.Backend: only a coordinator has a node
// table to show.
func (c *Coordinator) Surface() verifyd.Surface {
	return verifyd.Surface{
		Health: c.health, Cache: c.cacheDocument, Registry: c.reg, Tracer: c.tracer,
		Extra: []verifyd.Route{{Pattern: "GET /v1/cluster",
			Handler: verifyd.Document(func() any { return c.Info() })}},
	}
}

// Tracer implements sweep.Executor (with Logger in sweep.go).
func (c *Coordinator) Tracer() *tracing.Recorder { return c.tracer }

// relayErr maps a submission failure onto the uniform envelope: a
// worker's APIError is relayed verbatim (the coordinator is a proxy,
// not a translator); anything else — a drain, placement exhausting
// every node — is 503 unavailable, since the submission itself was
// never judged.
func relayErr(err error) error {
	var ae *client.APIError
	if errors.As(err, &ae) {
		return &verifyd.StatusError{Status: ae.Status, Info: api.ErrorInfo{
			Code: ae.Code, Message: ae.Message, Line: ae.Line, Col: ae.Col}}
	}
	return &verifyd.StatusError{Status: http.StatusServiceUnavailable, Info: api.ErrorInfo{
		Code: verifyd.CodeUnavailable, Message: err.Error()}}
}

// SubmitRequest implements verifyd.Backend by placing the job.
func (c *Coordinator) SubmitRequest(ctx context.Context, req api.JobRequest) (any, error) {
	st, err := c.SubmitJob(ctx, req)
	if err != nil {
		return nil, relayErr(err)
	}
	return st, nil
}

// JobRef implements verifyd.Backend. The job's spans are its
// coordinator spans merged with what its worker recorded — the
// traceparent the coordinator forwards makes them one trace, so the
// merged stream renders as a single timeline covering routing and the
// remote search.
func (c *Coordinator) JobRef(id string) (verifyd.JobRef, bool) {
	j, ok := c.lookupJob(id)
	if !ok {
		return verifyd.JobRef{}, false
	}
	return verifyd.JobRef{
		Done:     j.done,
		Document: func() any { return j.snapshot() },
		Spans: func(ctx context.Context) ([]tracing.SpanData, bool) {
			if j.st.TraceID == "" {
				return nil, false
			}
			node, remoteID := j.placement()
			return tracing.Merge(c.tracer.TraceHex(j.st.TraceID), c.remoteSpans(ctx, node, remoteID)), true
		},
	}, true
}

// ListJobs implements verifyd.Backend. List elements are job documents
// without their reports, so the listing stays light while keeping the
// placement fields.
func (c *Coordinator) ListJobs() []verifyd.ListedJob {
	c.mu.Lock()
	jobs := make([]*cjob, 0, len(c.jobs))
	for _, j := range c.jobs {
		jobs = append(jobs, j)
	}
	c.mu.Unlock()
	out := make([]verifyd.ListedJob, 0, len(jobs))
	for _, j := range jobs {
		st := j.snapshot()
		st.Report = nil
		out = append(out, verifyd.ListedJob{Seq: j.seq, State: st.State, Doc: st})
	}
	return out
}

// remoteSpans fetches what a worker recorded for a job placed on it
// (nothing for cache answers, which ran nowhere).
func (c *Coordinator) remoteSpans(ctx context.Context, node, remoteID string) []tracing.SpanData {
	n := c.nodes[node]
	if n == nil || remoteID == "" {
		return nil
	}
	spans, _ := n.rc.JobTrace(ctx, remoteID) // a dead node just contributes no spans
	return spans
}

// cacheDocument is the GET /v1/cache body.
func (c *Coordinator) cacheDocument() any {
	return struct {
		Coordinator verifyd.CacheStats `json:"coordinator"`
	}{c.cache.Stats()}
}

// CachedReport implements verifyd.Backend from the coordinator tier
// only — peeking workers is the coordinator's job on submission, not
// the client's.
func (c *Coordinator) CachedReport(key verifyd.CacheKey) (any, bool) {
	hit, ok := c.cache.Get(key)
	return api.CachedReport{Key: key.String(), Node: hit.node, Report: hit.rep}, ok
}

// Artifact implements verifyd.Backend by fanning the peek out across
// healthy nodes (since PR10). Artifacts are content-addressed, so any
// node's copy is the copy — the first hit answers. Unlike the report
// cache, the coordinator holds no artifact tier of its own: modules
// live where compilation happened.
func (c *Coordinator) Artifact(ctx context.Context, h model.ModuleFingerprint) (any, bool) {
	for _, name := range c.order {
		n := c.nodes[name]
		if !n.healthy.Load() {
			continue
		}
		if art, err := n.rc.Artifact(ctx, h.String()); err == nil && art != nil {
			return art, true
		}
	}
	return nil, false
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

// health is the GET /healthz body.
func (c *Coordinator) health() any {
	c.mu.Lock()
	jobs := len(c.jobs)
	c.mu.Unlock()
	return CoordinatorHealth{
		Status:       "ok",
		Role:         "coordinator",
		Version:      verifyd.Version,
		Nodes:        len(c.nodes),
		NodesHealthy: c.HealthyNodes(),
		CacheEntries: c.cache.Stats().Entries,
		Jobs:         jobs,
		Draining:     c.draining.Load(),
	}
}

// Ready implements verifyd.Backend: a coordinator with no healthy node
// can accept nothing either.
func (c *Coordinator) Ready() error {
	switch {
	case c.draining.Load():
		return verifyd.ErrDraining
	case c.HealthyNodes() == 0:
		return errors.New("no healthy nodes")
	}
	return nil
}
