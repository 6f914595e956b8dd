package verifyd

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pnp/internal/api"
	"pnp/internal/artifact"
	"pnp/internal/checker"
	"pnp/internal/model"
	"pnp/internal/obs/tracing"
)

// *Server as the local Backend of the v1 transport: each method answers
// from this process's job table, caches and artifact store.

// Handler returns the server's HTTP API: the v1 route table of
// transport.go over this server, without sweep routes (pnp.Serve mounts
// those; see Routes).
func (s *Server) Handler() http.Handler { return NewHandler(Routes(s)) }

// SubmissionOf extracts the fields of the envelope that determine the
// verdict. It is the one place wire fields become a content address:
// this server keys its report cache by it and the cluster coordinator
// its ring and result cache, so GET /v1/cache/{key} on a worker answers
// under the address the coordinator already knows.
func SubmissionOf(req api.JobRequest) Submission {
	return Submission{
		ADL: req.ADL, Components: req.Components,
		MaxStates: req.MaxStates, MaxDepth: req.MaxDepth,
		BFS: req.BFS, IgnoreDeadlock: req.IgnoreDeadlock, PartialOrder: req.PartialOrder,
		WeakFairness: req.WeakFairness, StrongFairness: req.StrongFairness,
	}
}

// jobOptions overlays a submission's overrides onto the server defaults.
func (s *Server) jobOptions(req api.JobRequest) checker.Options {
	opts := s.cfg.Options
	if req.MaxStates != nil {
		opts.MaxStates = *req.MaxStates
	}
	if req.MaxDepth != nil {
		opts.MaxDepth = *req.MaxDepth
	}
	if req.IgnoreDeadlock != nil {
		opts.IgnoreDeadlock = *req.IgnoreDeadlock
	}
	if req.PartialOrder != nil {
		opts.PartialOrder = *req.PartialOrder
	}
	if req.WeakFairness != nil {
		opts.WeakFairness = *req.WeakFairness
	}
	if req.StrongFairness != nil {
		opts.StrongFairness = *req.StrongFairness
	}
	if req.Workers != nil {
		opts.Workers = *req.Workers
	}
	if req.Visited != nil {
		// Unknown storage names fall back to the server default rather
		// than failing the job: the knob is advisory, not semantic.
		switch *req.Visited {
		case checker.VisitedExact, checker.VisitedCollapse:
			opts.Storage.Visited = *req.Visited
		}
	}
	if req.MemLimitBytes != nil && *req.MemLimitBytes >= 0 {
		opts.Storage.MemLimit = *req.MemLimitBytes
	}
	return opts
}

// SubmitRequest queues one HTTP submission under its content address.
func (s *Server) SubmitRequest(ctx context.Context, req api.JobRequest) (any, error) {
	key := SubmissionOf(req).Key()
	job, err := s.submitKeyed(ctx, req.ADL, req.Components, s.jobOptions(req),
		time.Duration(req.TimeoutMS)*time.Millisecond, &key, &req)
	if err != nil {
		return nil, err
	}
	return s.snapshotJob(job), nil
}

// JobRef implements Backend. A local job's spans are all in this
// process's flight recorder.
func (s *Server) JobRef(id string) (JobRef, bool) {
	job, ok := s.Job(id)
	if !ok {
		return JobRef{}, false
	}
	return JobRef{
		Done:     job.done,
		Document: func() any { return s.snapshotJob(job) },
		Spans: func(context.Context) ([]tracing.SpanData, bool) {
			return s.tracer.TraceHex(job.TraceID), job.TraceID != ""
		},
	}, true
}

// ListJobs implements Backend. Evicted jobs are absent.
func (s *Server) ListJobs() []ListedJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ListedJob, 0, len(s.jobs))
	for _, j := range s.jobs {
		js := api.JobSummary{
			ID: j.ID, State: j.State, Submitted: j.Submitted,
			CacheHits: j.CacheHits, CacheMisses: j.CacheMisses, Workers: j.Workers,
			TraceID: j.TraceID,
		}
		if j.State == api.JobDone && j.Report != nil {
			js.OK = &j.Report.OK
		}
		out = append(out, ListedJob{j.seq, j.State, js})
	}
	return out
}

// cacheDocument is the GET /v1/cache body.
func (s *Server) cacheDocument() any {
	mh, mm := s.ModelCacheStats()
	type hitsMisses struct {
		Hits   int `json:"hits"`
		Misses int `json:"misses"`
	}
	return struct {
		Results CacheStats `json:"results"`
		Reports CacheStats `json:"reports"`
		// Models keeps its PR2 shape for old clients; since PR10 it
		// mirrors the artifact store, which Artifacts reports in full.
		Models    hitsMisses     `json:"models"`
		Artifacts artifact.Stats `json:"artifacts"`
	}{s.cache.Stats(), s.reports.Stats(), hitsMisses{mh, mm}, s.artifacts.Stats()}
}

// CachedReport implements Backend from the report cache — the
// worker-side read path of the cluster result cache.
func (s *Server) CachedReport(key CacheKey) (any, bool) {
	rep, ok := s.reports.Get(key)
	return api.CachedReport{Key: key.String(), Report: rep}, ok
}

// Artifact implements Backend from the artifact store. A cluster
// coordinator fans this peek across its fleet, so any node's
// compilation work is visible cluster-wide.
func (s *Server) Artifact(_ context.Context, h model.ModuleFingerprint) (any, bool) {
	body, ok := s.artifacts.Peek(h)
	return json.RawMessage(body), ok
}

// HealthInfo snapshots the /healthz body (for embedders and tests). The
// status code stays a plain 200 for the process lifetime, so probes that
// only check the code keep working.
func (s *Server) HealthInfo() api.Health {
	budget, inUse := s.budget.snapshot()
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	return api.Health{
		Status:             "ok",
		Version:            Version,
		Workers:            s.cfg.Workers,
		SearchBudget:       budget,
		SearchWorkersInUse: inUse,
		ResultCacheEntries: s.cache.Len(),
		ReportCacheEntries: s.reports.Len(),
		Jobs:               jobs,
		Durable:            s.journal != nil,
		Draining:           s.draining.Load(),
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Ready implements Backend.
func (s *Server) Ready() error {
	if s.Draining() {
		return ErrDraining
	}
	return nil
}

// Surface implements Backend. /healthz stays 200 through a drain — a
// draining server is unhealthy only to new traffic, which is readiness'
// job to signal; the body's draining field lets a single probe see
// both. Only a node that runs searches has checkpoints to hand to a
// replica.
func (s *Server) Surface() Surface {
	return Surface{
		Health: func() any { return s.HealthInfo() }, Cache: s.cacheDocument,
		Registry: s.reg, Tracer: s.tracer,
		Extra: []Route{{"GET /v1/checkpoints/{key}", s.checkpointPeek}},
	}
}

// checkpointPeek serves a live search checkpoint file to a
// cluster replica resuming this node's job. 404 on a memory-only server
// and once the search has delivered a verdict (the checkpoint is
// removed with it) — the replica then searches from scratch, which is
// always correct. CheckpointFileName sanitizes the key, so the path
// cannot escape the checkpoint dir.
func (s *Server) checkpointPeek(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if s.ckptDir == "" {
		WriteError(w, http.StatusNotFound, CodeNotFound, "server runs without a data dir")
		return
	}
	f, err := os.Open(filepath.Join(s.ckptDir, checker.CheckpointFileName(key)))
	if err != nil {
		WriteError(w, http.StatusNotFound, CodeNotFound, "no checkpoint for key "+key)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	io.Copy(w, f)
}
