// Package client is the typed Go client of the verification service's
// v1 HTTP API. It imports nothing from the server packages: its
// documents are internal/api's, the one declaration of every v1 JSON
// shape (docs/API.md), which the server encodes too. So the client
// compiles against the protocol, not the implementation — the same
// position an external consumer of the API is in.
//
// Transient failures — connection errors and 5xx responses on
// idempotent requests — are retried with capped exponential backoff;
// API failures surface as *APIError carrying the uniform error
// envelope's code and message.
//
// Every request carries a W3C traceparent header when the context
// holds a span (tracing.StartSpan / tracing.ContextWithSpan), so a
// remote job or sweep joins the caller's trace; JobTrace and
// SweepTrace pull the server's recorded spans back for local export.
// The tracing package is shared protocol vocabulary, not server
// implementation — the no-server-imports rule above still holds
// (make client-deps checks it).
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"pnp/internal/api"
	"pnp/internal/obs/tracing"
)

// The v1 documents, under the names this package has always exported.
// Each is declared once, in internal/api.
type (
	Job             = api.Job
	JobRequest      = api.JobRequest
	JobSummary      = api.JobSummary
	JobList         = api.JobList
	Report          = api.Report
	PropertyVerdict = api.PropertyVerdict
	ModuleInfo      = api.ModuleInfo
	Artifact        = api.Artifact
	Health          = api.Health
	SweepSpec       = api.SweepSpec
	SweepCell       = api.SweepCell
	SweepResult     = api.SweepResult
	SweepStatus     = api.SweepStatus
)

// APIError is a non-2xx response decoded from the uniform error
// envelope {"error":{"code","message"}}.
type APIError struct {
	Status  int    // HTTP status
	Code    string // machine-readable code ("invalid_argument", ...)
	Message string
	Line    int // source position, set on ADL errors
	Col     int

	// RetryAfter is the Retry-After header in seconds (0 if absent).
	// A draining pnpd sends it on every 503.
	RetryAfter int
}

// Error implements the error interface.
func (e *APIError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("verifyd: %s (%d): %s (line %d, col %d)", e.Code, e.Status, e.Message, e.Line, e.Col)
	}
	return fmt.Sprintf("verifyd: %s (%d): %s", e.Code, e.Status, e.Message)
}

// Temporary reports whether the node said "alive but not serving right
// now" — a 503 (draining, overloaded), a 429, or any response carrying
// Retry-After. A cluster coordinator reroutes Temporary failures to the
// next ring replica without ejecting the node; everything else on the
// 5xx side means the node itself misbehaved. Transport errors (the node
// is unreachable) never produce an APIError at all — they are the
// "dead, eject" signal.
func (e *APIError) Temporary() bool {
	return e.Status == http.StatusServiceUnavailable ||
		e.Status == http.StatusTooManyRequests ||
		e.RetryAfter > 0
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries bounds transient-failure retries per request (default 3;
// 0 disables retrying).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the initial and maximum retry backoff (defaults
// 100ms and 2s). The delay doubles per attempt, capped at max.
func WithBackoff(initial, max time.Duration) Option {
	return func(c *Client) { c.backoff, c.maxBackoff = initial, max }
}

// WithJitterSeed pins the backoff jitter's random seed, making retry
// timing reproducible (tests, deterministic simulations). Without it
// each client seeds from the clock.
func WithJitterSeed(seed int64) Option {
	return func(c *Client) { c.rng = rand.New(rand.NewSource(seed)) }
}

// Client talks to one verification service.
type Client struct {
	base       string
	hc         *http.Client
	retries    int
	backoff    time.Duration
	maxBackoff time.Duration

	rngMu sync.Mutex
	rng   *rand.Rand
}

// New builds a client for the service at base (e.g.
// "http://localhost:7447").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:       strings.TrimRight(base, "/"),
		hc:         &http.Client{},
		retries:    3,
		backoff:    100 * time.Millisecond,
		maxBackoff: 2 * time.Second,
		rng:        rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// jitter spreads a retry delay over [delay/2, delay] (equal jitter), so
// a fleet of clients retrying against a just-recovered server does not
// stampede it in lockstep. Mutex-guarded: one client may retry from
// many goroutines.
func (c *Client) jitter(delay time.Duration) time.Duration {
	half := delay / 2
	if half <= 0 {
		return delay
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return half + time.Duration(c.rng.Int63n(int64(half)+1))
}

// do issues one request with retries. body is re-sent on each attempt;
// non-2xx responses decode into *APIError. 5xx responses and transport
// errors are retried (the API's mutating requests are safe to repeat:
// re-submitting content-addressed work is how the cache earns its keep);
// 4xx responses are not.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	delay := c.backoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		tracing.Inject(req, tracing.Current(ctx))
		resp, err := c.hc.Do(req)
		switch {
		case err != nil:
			lastErr = err
		default:
			retry, err := c.decode(resp, out)
			if !retry {
				return err
			}
			lastErr = err
		}
		if attempt >= c.retries {
			return lastErr
		}
		select {
		case <-time.After(c.jitter(delay)):
		case <-ctx.Done():
			return ctx.Err()
		}
		delay *= 2
		if delay > c.maxBackoff {
			delay = c.maxBackoff
		}
	}
}

// decode consumes one response; retry reports whether the failure is
// transient. out is normally a JSON destination; an out of type
// func(io.Reader) error consumes the success body itself (the NDJSON
// trace endpoints are not single JSON documents).
func (c *Client) decode(resp *http.Response, out any) (retry bool, err error) {
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		switch dst := out.(type) {
		case nil:
			return false, nil
		case func(io.Reader) error:
			return false, dst(resp.Body)
		default:
			return false, json.NewDecoder(resp.Body).Decode(out)
		}
	}
	ae := &APIError{Status: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, perr := strconv.Atoi(ra); perr == nil && secs > 0 {
			ae.RetryAfter = secs
		}
	}
	var eb api.ErrorBody
	if derr := json.NewDecoder(resp.Body).Decode(&eb); derr == nil {
		ae.Code, ae.Message, ae.Line, ae.Col = eb.Error.Code, eb.Error.Message, eb.Error.Line, eb.Error.Col
	}
	if ae.Message == "" {
		ae.Message = http.StatusText(resp.StatusCode)
	}
	// Temporary failures (503 drain, 429) are not retried here: the server
	// is telling us to go away for a while, and the right reaction differs
	// by caller — a CLI backs off and resubmits, a coordinator reroutes to
	// another node immediately. Blind in-place retry would just re-ask the
	// same draining node.
	return resp.StatusCode >= 500 && !ae.Temporary(), ae
}

// Submit submits a verification job and returns its initial state.
func (c *Client) Submit(ctx context.Context, req JobRequest) (*Job, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var job Job
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", body, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Job fetches a job by ID.
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Jobs lists jobs. status filters by lifecycle state (""= all); cursor
// continues a previous page; limit caps the page size (0 = server
// default).
func (c *Client) Jobs(ctx context.Context, status, cursor string, limit int) (*JobList, error) {
	q := url.Values{}
	if status != "" {
		q.Set("status", status)
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var list JobList
	if err := c.do(ctx, http.MethodGet, path, nil, &list); err != nil {
		return nil, err
	}
	return &list, nil
}

// Wait long-polls until the job completes or ctx expires. Each poll
// rides the server's /wait endpoint so waiting costs one slow request,
// not a busy loop.
func (c *Client) Wait(ctx context.Context, id string) (*Job, error) {
	for {
		var job Job
		err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/wait?timeout=30s", nil, &job)
		if err != nil {
			return nil, err
		}
		if job.State == "done" {
			return &job, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}

// Health fetches the node's /healthz document.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Ready probes /readyz: nil means the node accepts new work; a
// *APIError with Temporary() true means it is up but draining.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}

// CachePeek asks the node whether it has already completed the
// submission addressed by key (a Submission hash in hex, as computed by
// a coordinator). A miss returns (nil, nil) — it is an expected answer,
// not a failure.
func (c *Client) CachePeek(ctx context.Context, key string) (*Report, error) {
	var hit api.CachedReport
	err := c.do(ctx, http.MethodGet, "/v1/cache/"+url.PathEscape(key), nil, &hit)
	var ae *APIError
	if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return hit.Report, nil
}

// Artifact asks the node whether it holds the compiled module
// addressed by hash (a module fingerprint in hex, as listed in a job's
// modules section). A miss returns (nil, nil) — like CachePeek, a miss
// is an expected answer, not a failure.
func (c *Client) Artifact(ctx context.Context, hash string) (*Artifact, error) {
	var art Artifact
	err := c.do(ctx, http.MethodGet, "/v1/artifacts/"+url.PathEscape(hash), nil, &art)
	var ae *APIError
	if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return &art, nil
}

// JobTrace fetches a job's recorded spans (GET /v1/jobs/{id}/trace).
// It fails with a not_found *APIError when the server runs without a
// flight recorder or the trace has been evicted from its ring.
func (c *Client) JobTrace(ctx context.Context, id string) ([]tracing.SpanData, error) {
	return c.trace(ctx, "/v1/jobs/"+url.PathEscape(id)+"/trace")
}

// SweepTrace fetches a sweep's recorded spans (GET /v1/sweeps/{id}/trace).
func (c *Client) SweepTrace(ctx context.Context, id string) ([]tracing.SpanData, error) {
	return c.trace(ctx, "/v1/sweeps/"+url.PathEscape(id)+"/trace")
}

func (c *Client) trace(ctx context.Context, path string) ([]tracing.SpanData, error) {
	var spans []tracing.SpanData
	read := func(r io.Reader) error {
		var err error
		spans, err = tracing.ReadNDJSON(r)
		return err
	}
	if err := c.do(ctx, http.MethodGet, path, nil, read); err != nil {
		return nil, err
	}
	return spans, nil
}

// SubmitSweep submits a design-space sweep.
func (c *Client) SubmitSweep(ctx context.Context, spec SweepSpec) (*SweepStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var st SweepStatus
	if err := c.do(ctx, http.MethodPost, "/v1/sweeps", body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Sweep fetches a sweep's status (result included once done).
func (c *Client) Sweep(ctx context.Context, id string) (*SweepStatus, error) {
	var st SweepStatus
	if err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+url.PathEscape(id), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// StreamSweep follows a sweep's NDJSON stream, invoking onCell for each
// cell line, and returns the final status. A dropped connection
// reconnects (with the usual backoff) and replays; cells already seen
// are skipped, so onCell observes each index exactly once, in order.
func (c *Client) StreamSweep(ctx context.Context, id string, onCell func(SweepCell)) (*SweepStatus, error) {
	delay := c.backoff
	seen := 0
	var lastErr error
	for attempt := 0; ; attempt++ {
		st, err := c.streamOnce(ctx, id, &seen, onCell)
		if err == nil {
			return st, nil
		}
		var ae *APIError
		if errors.As(err, &ae) && (ae.Status < 500 || ae.Temporary()) {
			// 4xx won't improve on retry, and a Temporary 5xx (drain) is a
			// routing decision for the caller, not a backoff-and-rehash.
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
		if attempt >= c.retries {
			return nil, lastErr
		}
		select {
		case <-time.After(c.jitter(delay)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		delay *= 2
		if delay > c.maxBackoff {
			delay = c.maxBackoff
		}
	}
}

// streamOnce consumes one stream connection, advancing *seen past
// replayed cells.
func (c *Client) streamOnce(ctx context.Context, id string, seen *int, onCell func(SweepCell)) (*SweepStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/sweeps/"+url.PathEscape(id)+"/stream", nil)
	if err != nil {
		return nil, err
	}
	tracing.Inject(req, tracing.Current(ctx))
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		_, err := c.decode(resp, nil)
		return nil, err
	}
	sc := bufio.NewScanner(resp.Body)
	// Cell lines carry full property verdicts (counterexamples included),
	// which overflow bufio's default 64KiB line limit on real designs.
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var line api.SweepLine
	for sc.Scan() {
		line.Cell, line.Sweep = nil, nil
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("bad stream line: %w", err)
		}
		switch {
		case line.Cell != nil:
			if line.Cell.Index < *seen {
				continue // replayed after a reconnect
			}
			*seen = line.Cell.Index + 1
			if onCell != nil {
				onCell(*line.Cell)
			}
		case line.Sweep != nil:
			return line.Sweep, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("stream ended without a sweep line")
}
