package verifyd

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pnp/internal/api"
	"pnp/internal/checker"
	"pnp/internal/obs"
)

// TestHealthzDocument: /healthz stays a plain 200 but its body is now a
// load document — build version, worker pool, search-budget occupancy,
// cache sizes — enough for a coordinator to triage the node with one
// probe.
func TestHealthzDocument(t *testing.T) {
	s := newTestServer(t, Config{Workers: 3, Registry: obs.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", resp.StatusCode)
	}
	var h api.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version != Version {
		t.Fatalf("identity: %+v", h)
	}
	if h.Workers != 3 || h.SearchBudget <= 0 {
		t.Fatalf("load fields: %+v", h)
	}
	if h.Draining {
		t.Fatalf("fresh server reports draining: %+v", h)
	}
}

// TestCachePeekRoundtrip: a completed job's report is retrievable at
// GET /v1/cache/{key} under the submission's content address — the
// worker-side half of the cluster cache.
func TestCachePeekRoundtrip(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, Registry: obs.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	adl := loadExample(t, "bridge.pnp")
	comps := bridgeComponents(t)
	env, _ := json.Marshal(api.JobRequest{ADL: adl, Components: comps})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(env)))
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/jobs/" + job.ID + "/wait?timeout=60s")
	if err != nil {
		t.Fatal(err)
	}
	var done Job
	if err := json.NewDecoder(resp.Body).Decode(&done); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if done.State != api.JobDone || done.Report == nil {
		t.Fatalf("job did not finish: %+v", done)
	}

	// The key is computed from the wire fields alone — exactly what a
	// coordinator that never saw this server derives.
	key := Submission{ADL: adl, Components: comps}.Key()
	resp, err = http.Get(ts.URL + "/v1/cache/" + key.String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peek = %d, want 200", resp.StatusCode)
	}
	var hit api.CachedReport
	if err := json.NewDecoder(resp.Body).Decode(&hit); err != nil {
		t.Fatal(err)
	}
	if hit.Key != key.String() || hit.Report == nil || hit.Report.System != done.Report.System {
		t.Fatalf("peeked report mismatch: %+v", hit)
	}

	// Unknown key: a 404 miss. Malformed key: 400.
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/cache/" + strings.Repeat("f", 64), http.StatusNotFound},
		{"/v1/cache/nothex", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestSubmissionKeyDiscriminates: the content address must separate
// what changes the verdict and ignore what only changes the speed.
func TestSubmissionKeyDiscriminates(t *testing.T) {
	base := Submission{ADL: "system x {}", Components: map[string]string{"a.pml": "byte b;"}}
	if base.Key() != base.Key() {
		t.Fatal("key is not deterministic")
	}

	limit := 100
	variants := []Submission{
		{ADL: "system y {}", Components: base.Components},
		{ADL: base.ADL, Components: map[string]string{"a.pml": "byte c;"}},
		{ADL: base.ADL, Components: map[string]string{"b.pml": "byte b;"}},
		{ADL: base.ADL, Components: base.Components, MaxStates: &limit},
		{ADL: base.ADL, Components: base.Components, BFS: ptrTo(true)},
		{ADL: base.ADL, Components: base.Components, IgnoreDeadlock: ptrTo(true)},
	}
	seen := map[CacheKey]int{base.Key(): -1}
	for i, v := range variants {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with variant %d", i, prev)
		}
		seen[k] = i
	}

	// An explicit zero differs from an absent option (the server would
	// apply a default for the absent one)...
	zero := 0
	withZero := Submission{ADL: base.ADL, Components: base.Components, MaxStates: &zero}
	if withZero.Key() == base.Key() {
		t.Error("explicit MaxStates=0 and absent MaxStates share a key")
	}
}

func ptrTo[T any](v T) *T { return &v }

func TestCacheable(t *testing.T) {
	ok := &api.Report{OK: true, Properties: []api.PropertyVerdict{{Name: "p", Verdict: "holds"}}}
	if !Cacheable(ok) {
		t.Error("clean report must be cacheable")
	}
	if Cacheable(nil) {
		t.Error("nil report must not be cacheable")
	}
	trunc := &api.Report{Properties: []api.PropertyVerdict{{Name: "p", Truncated: true}}}
	if Cacheable(trunc) {
		t.Error("truncated search is not a verdict; must not be cacheable")
	}
	canceled := &api.Report{Properties: []api.PropertyVerdict{{Name: "p", Verdict: checker.Canceled.String()}}}
	if Cacheable(canceled) {
		t.Error("canceled search must not be cacheable")
	}
}

// TestWriteErrorRetryAfter: every 503 carries Retry-After, the header
// clients and coordinators key their "alive but unavailable" handling
// on.
func TestWriteErrorRetryAfter(t *testing.T) {
	rr := httptest.NewRecorder()
	WriteError(rr, http.StatusServiceUnavailable, CodeUnavailable, "draining")
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	rr = httptest.NewRecorder()
	WriteError(rr, http.StatusBadRequest, CodeInvalidArgument, "nope")
	if rr.Header().Get("Retry-After") != "" {
		t.Fatal("4xx must not advertise Retry-After")
	}
}
