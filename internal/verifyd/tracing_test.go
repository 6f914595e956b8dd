package verifyd

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pnp/internal/api"
	"pnp/internal/checker"
	"pnp/internal/obs"
	"pnp/internal/obs/tracing"
)

// pingpongComponents returns the pingpong example's component map.
func pingpongComponents(t testing.TB) map[string]string {
	return map[string]string{"pingpong.pml": loadExample(t, "pingpong.pml")}
}

// TestJobTrace runs one job on a traced server and checks the full span
// hierarchy: job → {compose, queue, run} → property → checker phase,
// all under one TraceID that also shows up in the job snapshot, the
// structured log, and GET /v1/jobs/{id}/trace.
func TestJobTrace(t *testing.T) {
	rec := tracing.NewRecorder(256)
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	s := newTestServer(t, Config{Workers: 1, Registry: reg, Tracer: rec, Logger: logger})

	job, err := s.Submit(loadExample(t, "bridge.pnp"), bridgeComponents(t), checker.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, s, job)
	if snap.TraceID == "" {
		t.Fatal("traced job has no TraceID")
	}
	if !snap.Report.OK {
		t.Fatalf("bridge must verify: %+v", snap.Report)
	}

	spans := rec.TraceHex(snap.TraceID)
	byName := map[string]tracing.SpanData{}
	for _, d := range spans {
		byName[d.Name] = d
	}
	for _, want := range []string{"job", "compose", "queue", "run"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("trace missing %q span; have %d spans", want, len(spans))
		}
	}
	jobSpan := byName["job"]
	if jobSpan.Parent != "" {
		t.Errorf("job span should be the root, parent=%q", jobSpan.Parent)
	}
	for _, child := range []string{"compose", "queue", "run"} {
		if byName[child].Parent != jobSpan.SpanID {
			t.Errorf("%s span parent = %q, want job %q", child, byName[child].Parent, jobSpan.SpanID)
		}
	}
	// Each property span parents to run; checker phases parent to their
	// property span.
	runSpan := byName["run"]
	var propSpans, phaseSpans int
	propIDs := map[string]bool{}
	for _, d := range spans {
		if strings.HasPrefix(d.Name, "property:") {
			propSpans++
			propIDs[d.SpanID] = true
			if d.Parent != runSpan.SpanID {
				t.Errorf("%s parent = %q, want run %q", d.Name, d.Parent, runSpan.SpanID)
			}
		}
	}
	for _, d := range spans {
		if strings.HasPrefix(d.Name, "checker:") {
			phaseSpans++
			if !propIDs[d.Parent] {
				t.Errorf("%s parent = %q is not a property span", d.Name, d.Parent)
			}
		}
	}
	if propSpans == 0 || phaseSpans == 0 {
		t.Fatalf("want property and checker-phase spans, got %d/%d", propSpans, phaseSpans)
	}

	// The TraceID appears in the structured log for every lifecycle line.
	logs := logBuf.String()
	for _, line := range []string{"job submitted", "job running", "job done"} {
		if !strings.Contains(logs, line) {
			t.Errorf("log missing %q:\n%s", line, logs)
		}
	}
	if !strings.Contains(logs, "trace_id="+snap.TraceID) {
		t.Errorf("log missing trace_id=%s:\n%s", snap.TraceID, logs)
	}

	// GET /v1/jobs/{id}/trace streams the same spans as NDJSON.
	h := s.Handler()
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job.ID+"/trace", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("trace endpoint status = %d", rw.Code)
	}
	got, err := tracing.ReadNDJSON(rw.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(spans) {
		t.Fatalf("endpoint spans = %d, ring spans = %d", len(got), len(spans))
	}

	// /debug/trace lists the trace.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/debug/trace?id="+snap.TraceID, nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("/debug/trace status = %d", rw.Code)
	}
}

// TestTraceparentPropagation submits over HTTP with a fixed traceparent
// and checks the job joins the caller's trace: same TraceID in the 202
// response and in the recorded spans, with the job span parented to the
// caller's span ID.
func TestTraceparentPropagation(t *testing.T) {
	rec := tracing.NewRecorder(256)
	s := newTestServer(t, Config{Workers: 1, Tracer: rec})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const parent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	body, _ := json.Marshal(map[string]any{
		"adl":        loadExample(t, "pingpong.pnp"),
		"components": pingpongComponents(t),
	})
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("traceparent", parent)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var snap Job
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if snap.TraceID != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("job TraceID = %q, want the propagated one", snap.TraceID)
	}

	jb, ok := s.Job(snap.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	waitDone(t, s, jb)
	spans := rec.TraceHex(snap.TraceID)
	if len(spans) == 0 {
		t.Fatal("no spans recorded under the propagated TraceID")
	}
	if spans[0].Name != "job" || spans[0].Parent != "b7ad6b7169203331" {
		t.Fatalf("job span = %+v, want parent b7ad6b7169203331", spans[0])
	}
}

// TestQueueWaitHistogram checks the submission→pickup histogram records
// one observation per job.
func TestQueueWaitHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Workers: 1, Registry: reg})
	for i := 0; i < 3; i++ {
		job, err := s.Submit(loadExample(t, "pingpong.pnp"), pingpongComponents(t), checker.Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, job)
	}
	h := reg.Histogram("verifyd_queue_wait_seconds", nil)
	if h.Count() != 3 {
		t.Fatalf("queue-wait observations = %d, want 3", h.Count())
	}
}

// TestTraceDisabled: without a Tracer, jobs carry no TraceID and the
// trace endpoint 404s.
func TestTraceDisabled(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	job, err := s.Submit(loadExample(t, "pingpong.pnp"), pingpongComponents(t), checker.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, s, job)
	if snap.TraceID != "" {
		t.Fatalf("untraced job has TraceID %q", snap.TraceID)
	}
	rw := httptest.NewRecorder()
	s.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job.ID+"/trace", nil))
	if rw.Code != http.StatusNotFound {
		t.Fatalf("trace endpoint status = %d, want 404", rw.Code)
	}
}

// TestReplayedJobHasNoTrace: a job re-registered from the journal ran in
// an earlier process, so even on a traced server it carries no TraceID
// and its trace endpoint 404s rather than streaming an empty body.
func TestReplayedJobHasNoTrace(t *testing.T) {
	dataDir := t.TempDir()
	s1, err := OpenServer(Config{Workers: 1, DataDir: dataDir, Tracer: tracing.NewRecorder(0)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s1.Handler())
	id := submitHTTP(t, ts.URL, api.JobRequest{ADL: loadExample(t, "pingpong.pnp"), Components: pingpongComponents(t)})
	job, _ := s1.Job(id)
	waitDone(t, s1, job)
	ts.Close()
	shutdownServer(t, s1)

	s2, err := OpenServer(Config{Workers: 1, DataDir: dataDir, Tracer: tracing.NewRecorder(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s2)
	rw := httptest.NewRecorder()
	s2.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/trace", nil))
	if rw.Code != http.StatusNotFound || !strings.Contains(rw.Body.String(), CodeNotFound) {
		t.Fatalf("replayed job's trace = %d %s, want the 404 envelope", rw.Code, rw.Body)
	}
}
