package verifyd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"pnp/internal/api"
	"pnp/internal/checker"
	"pnp/internal/faults"
	"pnp/internal/obs"
)

// loadExample reads one of the repository's example ADL/pml files.
func loadExample(t testing.TB, name string) string {
	t.Helper()
	b, err := os.ReadFile("../../examples/adl/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func bridgeComponents(t testing.TB) map[string]string {
	return map[string]string{"bridge.pml": loadExample(t, "bridge.pml")}
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s := NewServer(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func waitDone(t testing.TB, s *Server, job *Job) api.Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Wait(ctx, job); err != nil {
		t.Fatalf("waiting for %s: %v", job.ID, err)
	}
	return s.snapshotJob(job)
}

// TestServiceBridgeLifecycle replays the paper's E8/E9 iteration loop
// through the service: the broken bridge yields a safety violation with
// a counterexample MSC; the repaired bridge verifies; re-submitting the
// repaired bridge is answered entirely from the result cache with zero
// new checker work.
func TestServiceBridgeLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Workers: 2, Registry: reg})
	comps := bridgeComponents(t)

	// E8: the all-asynchronous bridge violates mutual exclusion.
	broken, err := s.Submit(loadExample(t, "bridge-broken.pnp"), comps, checker.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	bj := waitDone(t, s, broken)
	if bj.Report == nil || bj.Report.OK {
		t.Fatalf("broken bridge must fail, got %+v", bj.Report)
	}
	var safety *api.PropertyVerdict
	for i := range bj.Report.Properties {
		if bj.Report.Properties[i].Name == "safety" {
			safety = &bj.Report.Properties[i]
		}
	}
	if safety == nil || safety.OK {
		t.Fatalf("want safety violation, got %+v", safety)
	}
	if safety.Verdict != "invariant violation" {
		t.Errorf("verdict = %q, want invariant violation", safety.Verdict)
	}
	if safety.Counterexample == "" || safety.MSC == "" {
		t.Error("violation must carry a counterexample trace and MSC")
	}
	if !strings.Contains(safety.MSC, "Car[") {
		t.Errorf("MSC should name the processes:\n%s", safety.MSC)
	}

	// E9: swapping the enter send ports to syn-blocking repairs it.
	fixed, err := s.Submit(loadExample(t, "bridge.pnp"), comps, checker.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	fj := waitDone(t, s, fixed)
	if fj.Report == nil || !fj.Report.OK {
		t.Fatalf("fixed bridge must verify, got %+v", fj.Report)
	}
	if fj.CacheHits != 0 {
		t.Errorf("first verification of the fixed bridge cannot hit the cache (hits=%d)", fj.CacheHits)
	}
	searched := fj.Report.Properties[0].States

	// E11: the unchanged design re-verifies from the cache alone.
	hitsBefore := reg.Counter("verifyd_cache_hits_total").Value()
	again, err := s.Submit(loadExample(t, "bridge.pnp"), comps, checker.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	aj := waitDone(t, s, again)
	if aj.Report == nil || !aj.Report.OK {
		t.Fatalf("re-submission must verify, got %+v", aj.Report)
	}
	if aj.CacheHits != len(aj.Report.Properties) || aj.CacheMisses != 0 {
		t.Fatalf("re-submission must be fully cache-served: hits=%d misses=%d", aj.CacheHits, aj.CacheMisses)
	}
	for _, p := range aj.Report.Properties {
		if !p.Cached {
			t.Errorf("property %s not marked cached", p.Name)
		}
		if p.States != searched {
			t.Errorf("cached verdict must report the original search stats (%d != %d)", p.States, searched)
		}
	}
	if got := reg.Counter("verifyd_cache_hits_total").Value(); got != hitsBefore+1 {
		t.Errorf("obs cache-hit counter = %d, want %d", got, hitsBefore+1)
	}

	// Compiled modules were shared across all three jobs (per-module
	// granularity since PR10): the identical re-submission reused every
	// module of its DAG, and across the whole test the store served
	// more module lookups from cache than it compiled.
	if aj.ModulesTotal == 0 || aj.ModulesReused != aj.ModulesTotal || aj.ModulesCompiled != 0 {
		t.Errorf("re-submission must reuse every module: total=%d reused=%d compiled=%d",
			aj.ModulesTotal, aj.ModulesReused, aj.ModulesCompiled)
	}
	if mh, mm := s.ModelCacheStats(); mm == 0 || mh <= mm {
		t.Errorf("artifact store hits=%d misses=%d, want module reuse to dominate compiles", mh, mm)
	}
}

// TestServiceConcurrentJobs hammers the pool with eight simultaneous
// submissions (under -race this exercises the cache and job table
// locking). The two designs are small enough to finish quickly even
// with the race detector's slowdown: the pingpong system verifies and
// the broken bridge fails fast. Both verdicts are primed first, so
// every concurrent job must be answered from the cache.
func TestServiceConcurrentJobs(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	comps := bridgeComponents(t)
	comps["pingpong.pml"] = loadExample(t, "pingpong.pml")
	okSrc := loadExample(t, "pingpong.pnp")
	brokenSrc := loadExample(t, "bridge-broken.pnp")

	// Prime the cache with one verdict per design.
	for _, src := range []string{okSrc, brokenSrc} {
		job, err := s.Submit(src, comps, checker.Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, job)
	}

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		src := okSrc
		wantOK := true
		if i%2 == 1 {
			src = brokenSrc
			wantOK = false
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, err := s.Submit(src, comps, checker.Options{}, 0)
			if err != nil {
				errs <- fmt.Errorf("job %d: %v", i, err)
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := s.Wait(ctx, job); err != nil {
				errs <- fmt.Errorf("job %d: %v", i, err)
				return
			}
			snap := s.snapshotJob(job)
			if snap.Report == nil || snap.Report.OK != wantOK {
				errs <- fmt.Errorf("job %d: ok=%v, want %v", i, snap.Report != nil && snap.Report.OK, wantOK)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := s.Cache().Stats(); st.Hits == 0 {
		t.Errorf("identical concurrent jobs should share cached verdicts: %+v", st)
	}
}

// TestServiceHTTP walks the HTTP API end to end: submit a JSON envelope,
// poll status, long-poll the result, read cache stats and metrics.
func TestServiceHTTP(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Workers: 2, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	env, _ := json.Marshal(api.JobRequest{
		ADL:        loadExample(t, "bridge.pnp"),
		Components: bridgeComponents(t),
	})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(env)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if job.ID == "" || (job.State != api.JobQueued && job.State != api.JobRunning) {
		t.Fatalf("bad submit response: %+v", job)
	}

	// GET status is always well-formed, regardless of phase.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Long-poll until done.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + job.ID + "/wait?timeout=60s")
	if err != nil {
		t.Fatal(err)
	}
	var done Job
	if err := json.NewDecoder(resp.Body).Decode(&done); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if done.State != api.JobDone || done.Report == nil || !done.Report.OK {
		t.Fatalf("wait did not return a verified report: %+v", done)
	}

	// Unknown jobs are 404 with a JSON error body.
	resp, err = http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Cache stats endpoint.
	resp, err = http.Get(ts.URL + "/v1/cache")
	if err != nil {
		t.Fatal(err)
	}
	var cacheBody struct {
		Results CacheStats `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cacheBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cacheBody.Results.Entries == 0 {
		t.Errorf("cache should hold the verified verdicts: %+v", cacheBody.Results)
	}

	// Metrics exposition includes the service counters.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	if !strings.Contains(sb.String(), "verifyd_jobs_submitted_total") {
		t.Errorf("metrics exposition missing service counters:\n%s", sb.String())
	}
}

// TestServiceBadADL: syntax and composition errors become HTTP 400 with
// line/column positions, and never reach the queue.
func TestServiceBadADL(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "text/plain",
		strings.NewReader("system s {\n    blueprint C {}\n}"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var e api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if e.Error.Line != 2 || e.Error.Col != 5 {
		t.Errorf("error position = %d:%d, want 2:5 (%+v)", e.Error.Line, e.Error.Col, e)
	}
	if e.Error.Code != CodeInvalidArgument {
		t.Errorf("error code = %q, want %q", e.Error.Code, CodeInvalidArgument)
	}
	if !strings.Contains(e.Error.Message, "unknown declaration") {
		t.Errorf("error = %q", e.Error.Message)
	}
}

// TestServiceJobTimeout: a job whose state space cannot be exhausted in
// the configured timeout reports a canceled (truncated) verdict, and
// that verdict is not cached.
func TestServiceJobTimeout(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, JobTimeout: 50 * time.Millisecond})
	// Three free-running byte counters: ~16M states.
	src := `system huge {
    components "counters.pml"
    instance pa = A()
    instance pb = B()
    instance pc = C()
    invariant bound "a < 255"
}`
	comps := map[string]string{"counters.pml": `
byte a, b, c;
proctype A() { do :: a < 254 -> a = a + 1 od }
proctype B() { do :: b = b + 1 od }
proctype C() { do :: c = c + 1 od }
`}
	job, err := s.Submit(src, comps, checker.Options{IgnoreDeadlock: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	j := waitDone(t, s, job)
	if j.Report == nil || j.Report.OK {
		t.Fatalf("timed-out job must not verify: %+v", j.Report)
	}
	v := j.Report.Properties[0]
	if v.Verdict != checker.Canceled.String() || !v.Truncated {
		t.Fatalf("want canceled+truncated verdict, got %+v", v)
	}
	if n := s.Cache().Len(); n != 0 {
		t.Errorf("canceled verdicts must not be cached (entries=%d)", n)
	}
}

// TestServiceDrain: Shutdown finishes queued work and rejects new
// submissions.
func TestServiceDrain(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	comps := bridgeComponents(t)
	job, err := s.Submit(loadExample(t, "bridge.pnp"), comps, checker.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	snap := s.snapshotJob(job)
	if snap.State != api.JobDone || snap.Report == nil || !snap.Report.OK {
		t.Fatalf("drain must finish the queued job: %+v", snap)
	}
	if _, err := s.Submit(loadExample(t, "bridge.pnp"), comps, checker.Options{}, 0); err != ErrDraining {
		t.Fatalf("submit after shutdown = %v, want ErrDraining", err)
	}
}

// TestServiceDrainRace: submissions racing Shutdown must either be
// accepted (and then finish) or get ErrDraining — never panic on a
// closed channel.
func TestServiceDrainRace(t *testing.T) {
	src := loadExample(t, "bridge.pnp")
	comps := bridgeComponents(t)
	s := NewServer(Config{Workers: 2})
	// Truncated searches keep each job cheap; drain semantics are the
	// same either way.
	opts := checker.Options{MaxStates: 500, IgnoreDeadlock: true}
	accepted := make(chan *Job, 64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				job, err := s.Submit(src, comps, opts, 0)
				if err != nil {
					if err != ErrDraining {
						t.Errorf("submit: %v", err)
					}
					return
				}
				accepted <- job
			}
		}()
	}
	// Guarantee the drain overlaps live submissions: at least one job is
	// in flight when Shutdown begins.
	first := <-accepted
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	close(accepted)
	if snap := s.snapshotJob(first); snap.State != api.JobDone {
		t.Fatalf("job accepted before drain not finished: %+v", snap)
	}
	for job := range accepted {
		if snap := s.snapshotJob(job); snap.State != api.JobDone {
			t.Fatalf("accepted job %s not finished after drain: %+v", job.ID, snap)
		}
	}
}

// TestServiceRetainJobs: completed jobs beyond RetainJobs are evicted
// oldest-first from the lookup map, the evicted caller's own handle
// keeps its report, and the composed system is released on completion.
func TestServiceRetainJobs(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, RetainJobs: 2})
	comps := bridgeComponents(t)
	src := loadExample(t, "bridge.pnp")
	var jobs []*Job
	for i := 0; i < 4; i++ {
		job, err := s.Submit(src, comps, checker.Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, job)
		jobs = append(jobs, job)
	}
	for i, job := range jobs {
		_, ok := s.Job(job.ID)
		if want := i >= 2; ok != want {
			t.Errorf("job %s retained=%v, want %v", job.ID, ok, want)
		}
	}
	if snap := s.snapshotJob(jobs[0]); snap.Report == nil {
		t.Error("evicted job's own handle must keep its report")
	}
	if jobs[3].sys != nil {
		t.Error("completed job must release its composed system")
	}
}

// TestServicePerJobTimeout: a submission-supplied timeout overrides the
// server default and is measured from worker pickup, reporting a
// canceled verdict rather than hanging.
func TestServicePerJobTimeout(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	src := `system huge {
    components "counters.pml"
    instance pa = A()
    instance pb = B()
    instance pc = C()
    invariant bound "a < 255"
}`
	comps := map[string]string{"counters.pml": `
byte a, b, c;
proctype A() { do :: a < 254 -> a = a + 1 od }
proctype B() { do :: b = b + 1 od }
proctype C() { do :: c = c + 1 od }
`}
	job, err := s.Submit(src, comps, checker.Options{IgnoreDeadlock: true}, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	j := waitDone(t, s, job)
	if j.Report == nil || j.Report.OK {
		t.Fatalf("timed-out job must not verify: %+v", j.Report)
	}
	if v := j.Report.Properties[0]; v.Verdict != checker.Canceled.String() || !v.Truncated {
		t.Fatalf("want canceled+truncated verdict, got %+v", v)
	}
}

// TestCacheKeySensitivity: the content address must change whenever the
// model, the property, or a verdict-relevant option changes — and must
// not change for byte-identical re-submissions.
func TestCacheKeySensitivity(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	comps := bridgeComponents(t)
	load := func(src string) *Job {
		t.Helper()
		job, err := s.Submit(src, comps, checker.Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	fixed := load(loadExample(t, "bridge.pnp"))
	broken := load(loadExample(t, "bridge-broken.pnp"))
	again := load(loadExample(t, "bridge.pnp"))

	hFixed := ModelHash(fixed.sys.Builder)
	hBroken := ModelHash(broken.sys.Builder)
	hAgain := ModelHash(again.sys.Builder)
	if hFixed == hBroken {
		t.Error("one-token port swap must change the model hash")
	}
	if hFixed != hAgain {
		t.Error("identical submissions must hash identically")
	}

	ps := fixed.sys.Sources[0]
	base := Key(hFixed, ps, checker.Options{}, "")
	if base != Key(hFixed, ps, checker.Options{}, "") {
		t.Error("key must be deterministic")
	}
	if base == Key(hFixed, ps, checker.Options{PartialOrder: true}, "") {
		t.Error("search options must be part of the key")
	}
	if base == Key(hFixed, ps, checker.Options{MaxStates: 10}, "") {
		t.Error("state limits must be part of the key")
	}
	other := ps
	other.Text += "x"
	if base == Key(hFixed, other, checker.Options{}, "") {
		t.Error("property text must be part of the key")
	}
	// Callback fields must NOT affect the key.
	withCtx := checker.Options{Context: context.Background(), Metrics: obs.NewRegistry()}
	if base != Key(hFixed, ps, withCtx, "") {
		t.Error("plumbing fields (Context, Metrics) must not affect the key")
	}
	// Fault plans are part of the verification task's identity.
	dropPlan := (&faults.Plan{Seed: 1, Rules: []faults.Rule{{Kind: faults.Drop, Target: "*", Rate: 0.5}}}).Canonical()
	dupPlan := (&faults.Plan{Seed: 1, Rules: []faults.Rule{{Kind: faults.Duplicate, Target: "*", Rate: 0.5}}}).Canonical()
	if base == Key(hFixed, ps, checker.Options{}, dropPlan) {
		t.Error("a fault plan must change the key")
	}
	if Key(hFixed, ps, checker.Options{}, dropPlan) == Key(hFixed, ps, checker.Options{}, dupPlan) {
		t.Error("different fault plans must produce different keys")
	}
	if Key(hFixed, ps, checker.Options{}, dropPlan) != Key(hFixed, ps, checker.Options{}, dropPlan) {
		t.Error("equal fault plans must produce equal keys")
	}
}

// TestServiceReadinessFlipsDuringDrain: /healthz answers 200 for the
// process lifetime, while /readyz flips to 503 the moment Shutdown
// begins — observable while a queued job is still draining, so load
// balancers stop routing before the listener goes away.
func TestServiceReadinessFlipsDuringDrain(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", got)
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", got)
	}

	// Occupy the lone worker so the drain is observable in flight. The
	// unbounded counter model cannot finish on its own; the per-job
	// timeout bounds the test.
	src := `system slow {
    components "spin.pml"
    instance p = P()
    invariant bound "x < 255"
}`
	comps := map[string]string{"spin.pml": "byte x;\nproctype P() { do :: x = x + 1 od }"}
	job, err := s.Submit(src, comps, checker.Options{IgnoreDeadlock: true}, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	// Shutdown flips readiness synchronously before waiting on jobs, but
	// give the goroutine a moment to have entered it.
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200 (liveness is not readiness)", got)
	}
	<-drained
	waitDone(t, s, job)
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain = %d, want 503", got)
	}
}

// TestResultCacheLRU: the LRU bound evicts the oldest entry and the
// counters track it.
func TestResultCacheLRU(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewResultCache(2, reg)
	k := func(i byte) CacheKey { var key CacheKey; key[0] = i; return key }
	c.Put(k(1), api.PropertyVerdict{Name: "a"})
	c.Put(k(2), api.PropertyVerdict{Name: "b"})
	if _, ok := c.Get(k(1)); !ok { // touch 1 -> 2 becomes LRU
		t.Fatal("entry 1 missing")
	}
	c.Put(k(3), api.PropertyVerdict{Name: "c"}) // evicts 2
	if _, ok := c.Get(k(2)); ok {
		t.Error("entry 2 should have been evicted")
	}
	if _, ok := c.Get(k(1)); !ok {
		t.Error("recently used entry 1 must survive")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 1 eviction, 2 entries", st)
	}
	if reg.Counter("verifyd_cache_evictions_total").Value() != 1 {
		t.Error("eviction counter not mirrored into the registry")
	}
	if reg.Gauge("verifyd_cache_entries").Value() != 2 {
		t.Error("entries gauge not mirrored into the registry")
	}
}
