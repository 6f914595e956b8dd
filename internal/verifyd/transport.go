package verifyd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"pnp/internal/api"
	"pnp/internal/artifact"
	"pnp/internal/model"
	"pnp/internal/obs"
	"pnp/internal/obs/tracing"
)

// The v1 HTTP surface, written once: the route table, the body cap,
// submission decoding, query validation, status codes and the error
// envelope, over a Backend that is *Server in a single pnpd and the
// cluster coordinator in front of a fleet. Nothing here knows which one
// it serves. Route groups that live above this package (the sweep
// service) join the same table through the exported pieces — Route,
// JSON, Spans, ReadBody, Detached, NotFound. docs/API.md is the
// contract; a test walks the table against it.

// Route is one row of the route table: a net/http mux pattern
// ("GET /v1/jobs/{id}"; without a method it matches every method) and
// its handler.
type Route struct {
	Pattern string
	Handler http.HandlerFunc
}

// Backend is what the job, cache and readiness routes ask per request.
// Documents cross as any: each backend returns the document it already
// builds (the single-node api.Job here, the coordinator's with
// placement fields),
// and the transport only encodes it.
type Backend interface {
	// SubmitRequest accepts one decoded submission. ctx carries trace
	// parenting only; the job outlives the request.
	SubmitRequest(ctx context.Context, req api.JobRequest) (doc any, err error)
	JobRef(id string) (JobRef, bool)
	// ListJobs returns every job the backend still holds, in any order.
	ListJobs() []ListedJob
	// CachedReport looks a completed submission up by content address.
	CachedReport(key CacheKey) (doc any, ok bool)
	// Artifact looks a compiled module up by fingerprint.
	Artifact(ctx context.Context, hash model.ModuleFingerprint) (doc any, ok bool)
	// Ready returns nil while new work is accepted, else why not.
	Ready() error
	Surface() Surface
}

// Surface is what a backend hands the table once, when it is built.
type Surface struct {
	Health, Cache func() any        // the GET /healthz and GET /v1/cache bodies
	Registry      *obs.Registry     // backs /metrics; nil leaves it out of the table
	Tracer        *tracing.Recorder // backs /debug/trace; nil leaves it out
	Extra         []Route           // the routes only this backend has
}

// JobRef is one job as the transport sees it.
type JobRef struct {
	Done     <-chan struct{} // closed when the job finishes
	Document func() any      // its current document
	// Spans returns every span recorded for the job, in this process or
	// on the node it ran on; ok is false for a job that recorded no trace
	// (tracing disabled, or a job replayed from the journal).
	Spans func(context.Context) (spans []tracing.SpanData, ok bool)
}

// ListedJob is one job as GET /v1/jobs lists it: the backend's list
// element plus what filtering and paging need to know about it.
type ListedJob struct {
	Seq   int    // submission sequence number, the cursor pages are cut by
	State string // api.JobQueued, api.JobRunning or api.JobDone
	Doc   any
}

// Routes builds the v1 route table: the shared routes over b, the
// routes only b has, then more (the sweep service's).
func Routes(b Backend, more ...Route) []Route {
	t, sf := transport{b}, b.Surface()
	routes := []Route{
		{"POST /v1/jobs", JSON(http.StatusAccepted, t.submitJob)},
		{"GET /v1/jobs", JSON(http.StatusOK, t.listJobs)},
		{"GET /v1/jobs/{id}", JSON(http.StatusOK, t.job)},
		{"GET /v1/jobs/{id}/wait", JSON(http.StatusOK, t.waitJob)},
		{"GET /v1/jobs/{id}/trace", Spans(t.jobSpans)},
		{"GET /v1/cache", Document(sf.Cache)},
		{"GET /v1/cache/{key}", JSON(http.StatusOK, t.cachedReport)},
		{"GET /v1/artifacts/{hash}", JSON(http.StatusOK, t.artifact)},
		{"GET /healthz", Document(sf.Health)},
		{"GET /readyz", JSON(http.StatusOK, t.ready)},
	}
	if reg := sf.Registry; reg != nil {
		routes = append(routes, Route{"/metrics", reg.Handler().ServeHTTP}, Route{"/metrics.json", reg.Handler().ServeHTTP})
	}
	if sf.Tracer != nil {
		routes = append(routes, Route{"GET /debug/trace", sf.Tracer.Handler().ServeHTTP})
	}
	return append(append(routes, sf.Extra...), more...)
}

// NewHandler serves a route table; every path outside it is an
// enveloped 404, so the whole surface fails uniformly.
func NewHandler(routes []Route) http.Handler {
	mux := http.NewServeMux()
	for _, r := range routes {
		mux.Handle(r.Pattern, r.Handler)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, CodeNotFound, "no such route: "+r.URL.Path)
	})
	return mux
}

// JSON adapts a function that answers a request with a document to a
// handler: the document is written as JSON under status, an error as
// the uniform envelope (see StatusError for how it picks its status).
// Request bodies are capped at 1 MiB here, for every route.
func JSON(status int, answer func(*http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
		doc, err := answer(r)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, status, doc)
	}
}

// Document is JSON for a route that always answers 200 with doc().
func Document(doc func() any) http.HandlerFunc {
	return JSON(http.StatusOK, func(*http.Request) (any, error) { return doc(), nil })
}

// Spans adapts a function that answers a request with recorded spans to
// an NDJSON handler. Spans may still be arriving while the traced work
// runs; clients wanting the complete trace wait for it to finish first.
func Spans(answer func(*http.Request) ([]tracing.SpanData, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		spans, err := answer(r)
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", tracing.NDJSONContentType)
		tracing.WriteNDJSON(w, spans)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// ReadBody reads the (capped) body of a request served through JSON.
func ReadBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(r.Body)
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return nil, &StatusError{http.StatusRequestEntityTooLarge, api.ErrorInfo{Code: CodeTooLarge, Message: "body exceeds 1MiB"}}
	case err != nil:
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return body, nil
}

// Detached is the context a submission starts its work under: trace
// parenting from the request's traceparent header, over a background
// context — the work must not inherit the request's cancellation, which
// fires as soon as the 202 is written.
func Detached(r *http.Request) context.Context {
	return tracing.ContextWithRemote(context.Background(), tracing.Extract(r))
}

type transport struct{ b Backend }

func (t transport) submitJob(r *http.Request) (any, error) {
	body, err := ReadBody(r)
	if err != nil {
		return nil, err
	}
	// A body that is not a JSON object is bare ADL source, no overrides.
	var req api.JobRequest
	trimmed := strings.TrimSpace(string(body))
	if strings.HasPrefix(trimmed, "{") {
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("bad JSON envelope: %w", err)
		}
	} else {
		req.ADL = trimmed
	}
	if strings.TrimSpace(req.ADL) == "" {
		return nil, errors.New("empty ADL source")
	}
	return t.b.SubmitRequest(Detached(r), req)
}

// listJobs is the one pagination rule of GET /v1/jobs: the jobs matching
// ?status=queued|running|done in submission order, after ?cursor=<the
// previous page's next_cursor>, cut at ?limit=N (default 100, max 1000).
// The cursor is a submission sequence number, not an offset, so it stays
// valid across evictions.
func (t transport) listJobs(r *http.Request) (any, error) {
	query := r.URL.Query()
	status, limit, after := query.Get("status"), 100, 0
	switch status {
	case "", api.JobQueued, api.JobRunning, api.JobDone:
	default:
		return nil, fmt.Errorf("bad status %q: want queued, running, or done", status)
	}
	if ls := query.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 1 {
			return nil, errors.New("bad limit: " + ls)
		}
		limit = min(n, 1000)
	}
	if cs := query.Get("cursor"); cs != "" {
		n, err := strconv.Atoi(cs)
		if err != nil || n < 0 {
			return nil, errors.New("bad cursor: " + cs)
		}
		after = n
	}
	// api.JobList's shape, with each backend's own list element.
	var page struct {
		Jobs       []any  `json:"jobs"`
		NextCursor string `json:"next_cursor,omitempty"`
	}
	jobs := t.b.ListJobs()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].Seq < jobs[k].Seq })
	page.Jobs = make([]any, 0, min(limit, len(jobs)))
	for _, j := range jobs {
		if j.Seq <= after || (status != "" && j.State != status) {
			continue
		}
		if len(page.Jobs) == limit {
			page.NextCursor = strconv.Itoa(after)
			break
		}
		page.Jobs = append(page.Jobs, j.Doc)
		after = j.Seq
	}
	return page, nil
}

func (t transport) jobRef(r *http.Request) (JobRef, error) {
	ref, ok := t.b.JobRef(r.PathValue("id"))
	if !ok {
		return ref, NotFound("no such job")
	}
	return ref, nil
}

func (t transport) job(r *http.Request) (any, error) {
	ref, err := t.jobRef(r)
	if err != nil {
		return nil, err
	}
	return ref.Document(), nil
}

// waitJob long-polls for ?timeout (a Go duration, default 30s). Expiry
// is not an error: the job's current document is returned so the client
// can poll again.
func (t transport) waitJob(r *http.Request) (any, error) {
	timeout := 30 * time.Second
	if ts := r.URL.Query().Get("timeout"); ts != "" {
		d, err := time.ParseDuration(ts)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad timeout %q: want a positive duration", ts)
		}
		timeout = d
	}
	ref, err := t.jobRef(r)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	select {
	case <-ref.Done:
	case <-ctx.Done():
	}
	return ref.Document(), nil
}

func (t transport) jobSpans(r *http.Request) ([]tracing.SpanData, error) {
	ref, err := t.jobRef(r)
	if err != nil {
		return nil, err
	}
	spans, ok := ref.Spans(r.Context())
	if !ok {
		return nil, NotFound("tracing disabled")
	}
	return spans, nil
}

// cachedReport answers "has exactly this submission already completed
// here?". The key is a Submission.Key in hex; a miss is an enveloped
// 404, so a coordinator can treat it exactly like an unknown job id.
func (t transport) cachedReport(r *http.Request) (any, error) {
	raw := r.PathValue("key")
	key, ok := parseCacheKey(raw)
	if !ok {
		return nil, errors.New("cache key must be 64 hex characters")
	}
	doc, ok := t.b.CachedReport(key)
	if !ok {
		return nil, NotFound("no cached report for key " + raw)
	}
	return doc, nil
}

// artifact answers "is this compiled module held here?". The hash is a
// model.ModuleFingerprint in hex; a hit returns the artifact's envelope
// (hash, kind, name, deps, canonical source).
func (t transport) artifact(r *http.Request) (any, error) {
	h, err := artifact.ParseHash(r.PathValue("hash"))
	if err != nil {
		return nil, errors.New("artifact hash must be 64 hex characters")
	}
	doc, ok := t.b.Artifact(r.Context(), h)
	if !ok {
		return nil, NotFound("no artifact for hash " + h.String())
	}
	return doc, nil
}

// ready is readiness: 503 from the first shutdown instant (or, on a
// fleet, with no healthy node), so orchestrators stop routing new
// submissions while accepted work finishes. /healthz stays 200
// throughout — liveness is not readiness.
func (t transport) ready(*http.Request) (any, error) {
	if err := t.b.Ready(); err != nil {
		return nil, &StatusError{http.StatusServiceUnavailable, api.ErrorInfo{Code: CodeUnavailable, Message: err.Error()}}
	}
	return map[string]string{"status": "ready"}, nil
}
