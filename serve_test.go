package pnp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"pnp"
	"pnp/internal/verifyd"
	"pnp/internal/verifyd/client"
)

func loadExampleADL(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("examples/adl/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// served is one running service under test, either role, with the
// registry and recorder it was given.
type served struct {
	svc  *pnp.Service
	base string
	reg  *pnp.MetricsRegistry
}

func serveSingleNode(t *testing.T) served {
	t.Helper()
	reg := pnp.NewMetricsRegistry()
	svc, err := pnp.Serve(pnp.ServeOptions{Verify: pnp.VerifyServerConfig{
		Workers: 2, Registry: reg, Tracer: pnp.NewTraceRecorder(0)}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return served{svc, ts.URL, reg}
}

// serveCoordinator fronts one real single-node service with a
// coordinator, both assembled through pnp.Serve.
func serveCoordinator(t *testing.T) served {
	t.Helper()
	worker := serveSingleNode(t)
	t.Cleanup(func() { worker.svc.Shutdown(context.Background()) })
	reg := pnp.NewMetricsRegistry()
	svc, err := pnp.Serve(pnp.ServeOptions{Cluster: &pnp.ClusterConfig{
		Nodes: []string{worker.base}, Registry: reg, Tracer: pnp.NewTraceRecorder(0)}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return served{svc, ts.URL, reg}
}

// TestServeSingleNode and TestServeCoordinator run one contract — the
// same requests, the same expected status, envelope code, Retry-After
// and content type — against pnp.Serve in its two modes. The v1 surface
// is one route table over two backends; whatever one side answers, the
// other must too.
func TestServeSingleNode(t *testing.T) {
	s := serveSingleNode(t)
	if s.svc.VerifyServer() == nil || s.svc.SweepService() == nil || s.svc.Coordinator() != nil {
		t.Error("single-node service must expose server and sweep service, no coordinator")
	}
	serveContract(t, s, contractRow{"GET", "/v1/checkpoints/nokey", "", 404, "not_found", false})
}

func TestServeCoordinator(t *testing.T) {
	s := serveCoordinator(t)
	if s.svc.Coordinator() == nil || s.svc.SweepService() == nil || s.svc.VerifyServer() != nil {
		t.Error("cluster service must expose coordinator and sweep service, not a local server")
	}
	serveContract(t, s, contractRow{"GET", "/v1/cluster", "", 200, "", false})
}

// contractRow is one request and everything both backends must agree on
// about its answer. code is the error envelope's code ("" for a
// success); 2xx JSON bodies must parse.
type contractRow struct {
	method, path, body string
	status             int
	code               string
	retryAfter         bool
}

func (row contractRow) check(t *testing.T, base string) []byte {
	t.Helper()
	req, err := http.NewRequest(row.method, base+row.path, strings.NewReader(row.body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	what := row.method + " " + row.path
	if len(what) > 80 {
		what = what[:80] + "…"
	}
	if resp.StatusCode != row.status {
		t.Errorf("%s: status %d, want %d (%s)", what, resp.StatusCode, row.status, bytes.TrimSpace(body))
		return body
	}
	if got := resp.Header.Get("Retry-After") != ""; got != row.retryAfter {
		t.Errorf("%s: Retry-After present = %t, want %t", what, got, row.retryAfter)
	}
	wantCT := "application/json"
	switch {
	case row.code != "", row.path == "/debug/trace":
	case strings.HasSuffix(row.path, "/trace"), strings.HasSuffix(row.path, "/stream"):
		wantCT = "application/x-ndjson"
	case row.path == "/metrics":
		wantCT = "text/plain"
	case strings.HasPrefix(row.path, "/v1/checkpoints/"):
		wantCT = "application/octet-stream"
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, wantCT) {
		t.Errorf("%s: Content-Type %q, want %s", what, ct, wantCT)
	}
	if wantCT == "application/json" {
		var eb struct {
			Error struct{ Code, Message string }
		}
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Errorf("%s: body is not JSON: %v", what, err)
		}
		if eb.Error.Code != row.code || (row.code != "" && eb.Error.Message == "") {
			t.Errorf("%s: envelope %+v, want code %q", what, eb.Error, row.code)
		}
	}
	return body
}

func serveContract(t *testing.T, s served, own contractRow) {
	adl := loadExampleADL(t, "pingpong.pnp")
	comps := map[string]string{"pingpong.pml": loadExampleADL(t, "pingpong.pml")}
	mustJSON := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	jobBody := mustJSON(client.JobRequest{ADL: adl, Components: comps})
	spec := client.SweepSpec{Name: "contract", Base: adl, Components: comps,
		Connector: "Wire", Channels: []string{"fifo(1)", "fifo(1)", "single-slot"}}
	sweepBody := mustJSON(spec)
	key := verifyd.Submission{ADL: adl, Components: comps}.Key().String()
	huge := strings.Repeat("x", 1<<20+1)
	zeros := strings.Repeat("0", 64)

	// A finished job and a finished sweep to address, through the typed
	// client every remote CLI uses.
	cl := pnp.NewClient(s.base)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job, err := cl.Submit(ctx, client.JobRequest{ADL: adl, Components: comps})
	if err != nil {
		t.Fatal(err)
	}
	if job, err = cl.Wait(ctx, job.ID); err != nil || job.Report == nil || !job.Report.OK {
		t.Fatalf("pingpong must verify: %+v, %v", job, err)
	}
	if job.ModulesTotal == 0 || len(job.Modules) == 0 {
		t.Fatalf("job document carries no module fields: %+v", job)
	}
	sw, err := cl.SubmitSweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var verdicts []string
	final, err := cl.StreamSweep(ctx, sw.ID, func(c client.SweepCell) { verdicts = append(verdicts, c.Verdict) })
	if err != nil || final.Result == nil {
		t.Fatalf("sweep stream: %+v, %v", final, err)
	}
	if got, want := strings.Join(verdicts, ","), "delivers-all,delivers-all,delivers-all"; got != want {
		t.Errorf("streamed verdicts %s, want %s", got, want)
	}
	if final.Result.DedupHits != 1 {
		t.Errorf("dedup_hits = %d, want 1 (two fifo(1) cells)", final.Result.DedupHits)
	}
	// The one engine runs in both modes: it counts cells on the serving
	// process's registry and records a span for the deduplicated cell.
	if got := s.reg.Counter("sweep_cells_total").Value(); got != 3 {
		t.Errorf("sweep_cells_total = %d, want 3", got)
	}
	spans, err := cl.SweepTrace(ctx, sw.ID)
	if err != nil {
		t.Fatal(err)
	}
	followers := 0
	for _, sp := range spans {
		for _, a := range sp.Attrs {
			if a.Key == "deduped" && a.Value == "true" {
				followers++
			}
		}
	}
	if followers != 1 {
		t.Errorf("%d follower (deduped=true) cell spans in the sweep trace, want 1", followers)
	}

	jobPath, sweepPath := "/v1/jobs/"+job.ID, "/v1/sweeps/"+sw.ID
	rows := []contractRow{
		{"POST", "/v1/jobs", jobBody, 202, "", false},
		{"POST", "/v1/jobs", adl, 400, "invalid_argument", false}, // raw ADL: its component file resolves nowhere
		{"GET", "/v1/jobs", "", 200, "", false},
		{"GET", jobPath, "", 200, "", false},
		{"GET", jobPath + "/wait", "", 200, "", false},
		{"GET", jobPath + "/wait?timeout=10s", "", 200, "", false},
		{"GET", jobPath + "/trace", "", 200, "", false},
		{"GET", "/v1/cache", "", 200, "", false},
		{"GET", "/v1/cache/" + key, "", 200, "", false},
		{"GET", "/v1/artifacts/" + job.Modules[0].Hash, "", 200, "", false},
		{"GET", "/healthz", "", 200, "", false},
		{"GET", "/readyz", "", 200, "", false},
		{"GET", "/metrics", "", 200, "", false},
		{"GET", "/metrics.json", "", 200, "", false},
		{"GET", "/debug/trace", "", 200, "", false},
		{"POST", "/v1/sweeps", sweepBody, 202, "", false},
		{"GET", "/v1/sweeps", "", 200, "", false},
		{"GET", sweepPath, "", 200, "", false},
		{"GET", sweepPath + "/stream", "", 200, "", false},
		{"GET", sweepPath + "/trace", "", 200, "", false},
		own,

		// Unknown ids and routes.
		{"GET", "/v1/jobs/job-999", "", 404, "not_found", false},
		{"GET", "/v1/jobs/job-999/wait", "", 404, "not_found", false},
		{"GET", "/v1/jobs/job-999/trace", "", 404, "not_found", false},
		{"GET", "/v1/sweeps/sweep-999", "", 404, "not_found", false},
		{"GET", "/v1/sweeps/sweep-999/stream", "", 404, "not_found", false},
		{"GET", "/v1/sweeps/sweep-999/trace", "", 404, "not_found", false},
		{"GET", "/v1/cache/" + zeros, "", 404, "not_found", false},
		{"GET", "/v1/artifacts/" + zeros, "", 404, "not_found", false},
		{"GET", "/v1/nope", "", 404, "not_found", false},
		{"DELETE", jobPath, "", 404, "not_found", false},

		// Malformed keys, bodies and query parameters.
		{"GET", "/v1/cache/not-a-key", "", 400, "invalid_argument", false},
		{"GET", "/v1/artifacts/not-a-hash", "", 400, "invalid_argument", false},
		{"POST", "/v1/jobs", "", 400, "invalid_argument", false},
		{"POST", "/v1/jobs", "{not json", 400, "invalid_argument", false},
		{"POST", "/v1/jobs", "system broken {", 400, "invalid_argument", false},
		{"POST", "/v1/jobs", huge, 413, "too_large", false},
		{"POST", "/v1/sweeps", "{not json", 400, "invalid_argument", false},
		{"POST", "/v1/sweeps", `{"preset":"nosuch"}`, 400, "invalid_argument", false},
		{"POST", "/v1/sweeps", huge, 413, "too_large", false},
		{"GET", jobPath + "/wait?timeout=soon", "", 400, "invalid_argument", false},
		{"GET", jobPath + "/wait?timeout=-5s", "", 400, "invalid_argument", false},
		{"GET", jobPath + "/wait?timeout=0s", "", 400, "invalid_argument", false},
		{"GET", "/v1/jobs?status=finished", "", 400, "invalid_argument", false},
		{"GET", "/v1/jobs?limit=0", "", 400, "invalid_argument", false},
		{"GET", "/v1/jobs?limit=many", "", 400, "invalid_argument", false},
		{"GET", "/v1/jobs?cursor=-1", "", 400, "invalid_argument", false},
		{"GET", "/v1/jobs?cursor=next", "", 400, "invalid_argument", false},
	}
	for _, row := range rows {
		row.check(t, s.base)
	}

	// Every route of the table is exercised by a row that reached its
	// handler — a 2xx, or the backend's own row — so a route cannot join
	// the table without joining the contract.
	for _, route := range s.svc.Routes() {
		method, path, ok := strings.Cut(route.Pattern, " ")
		if !ok {
			method, path = "GET", route.Pattern
		}
		segs := strings.Split(path, "/")
		for i, seg := range segs {
			if strings.HasPrefix(seg, "{") {
				segs[i] = `[^/?]+`
			} else {
				segs[i] = regexp.QuoteMeta(seg)
			}
		}
		re := regexp.MustCompile("^" + strings.Join(segs, "/") + `(\?.*)?$`)
		covered := false
		for _, row := range rows {
			if row.method == method && re.MatchString(row.path) && (row.status < 300 || row == own) {
				covered = true
			}
		}
		if !covered {
			t.Errorf("route %q has no row in the contract that reaches its handler", route.Pattern)
		}
	}

	// Pagination: the setup job was submitted first, and the sweep's cell
	// jobs have finished after it, so pages of one walk them in order.
	var page client.JobList
	json.Unmarshal(contractRow{"GET", "/v1/jobs?status=done&limit=1", "", 200, "", false}.check(t, s.base), &page)
	if len(page.Jobs) != 1 || page.Jobs[0].ID != job.ID || page.NextCursor == "" {
		t.Errorf("first page = %+v, want exactly %s and a next_cursor", page, job.ID)
	}
	first := page
	page = client.JobList{}
	json.Unmarshal(contractRow{"GET", "/v1/jobs?limit=1&cursor=" + first.NextCursor, "", 200, "", false}.check(t, s.base), &page)
	if len(page.Jobs) != 1 || page.Jobs[0].ID == job.ID {
		t.Errorf("second page = %+v, want the job after %s", page, job.ID)
	}
	contractRow{"GET", "/v1/jobs?status=queued", "", 200, "", false}.check(t, s.base)

	// Draining: readiness and both submission routes answer 503 with the
	// envelope and Retry-After; liveness and reads keep working.
	if err := s.svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, row := range []contractRow{
		{"GET", "/readyz", "", 503, "unavailable", true},
		{"POST", "/v1/jobs", jobBody, 503, "unavailable", true},
		{"POST", "/v1/sweeps", sweepBody, 503, "unavailable", true},
		{"GET", "/healthz", "", 200, "", false},
		{"GET", jobPath, "", 200, "", false},
	} {
		row.check(t, s.base)
	}
}

// TestAPIDocMatchesRouteTable keeps docs/API.md and the route table from
// drifting: every route either mode serves is documented by its exact
// "METHOD /pattern", and every /v1 route the document names is served.
func TestAPIDocMatchesRouteTable(t *testing.T) {
	doc, err := os.ReadFile("docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile(`(GET|POST|PUT|PATCH|DELETE) /[A-Za-z0-9_/{}.-]*[A-Za-z0-9}]`).FindAll(doc, -1) {
		documented[string(m)] = true
	}
	table := map[string]bool{}
	for _, s := range []served{serveSingleNode(t), serveCoordinator(t)} {
		for _, route := range s.svc.Routes() {
			pattern := route.Pattern
			if !strings.Contains(pattern, " ") {
				pattern = "GET " + pattern // method-less routes are documented by their GET
			}
			table[pattern] = true
		}
		s.svc.Shutdown(context.Background())
	}
	for pattern := range table {
		if !documented[pattern] {
			t.Errorf("docs/API.md does not document %q", pattern)
		}
	}
	for pattern := range documented {
		if strings.Contains(pattern, " /v1/") && !table[pattern] {
			t.Errorf("docs/API.md documents %q, which no route table serves", pattern)
		}
	}
}

// TestDegradedModeTableNamesRealTests keeps DESIGN.md's table of the
// storage tier's degraded modes honest: every test or fuzz target it
// names (a /subtest suffix aside) is declared in some _test.go file.
func TestDegradedModeTableNamesRealTests(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := bytes.Cut(doc, []byte("### Degraded modes of the storage tier"))
	if !ok {
		t.Fatal("DESIGN.md has no degraded-modes section")
	}
	if end := bytes.Index(table, []byte("\n#")); end >= 0 {
		table = table[:end]
	}
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	named := regexp.MustCompile("`((?:Test|Fuzz)\\w*)[^`]*`").FindAllSubmatch(table, -1)
	if len(named) == 0 {
		t.Fatal("the degraded-modes table names no test")
	}
	for _, m := range named {
		if !declared[string(m[1])] {
			t.Errorf("DESIGN.md's degraded-modes table names %s, which no _test.go declares", m[1])
		}
	}
}

// TestArchitectureListsEveryPackage keeps DESIGN.md §4's architecture
// block whole: every directory under internal/ and cmd/ that holds a
// non-test Go file appears in it.
func TestArchitectureListsEveryPackage(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := bytes.Cut(doc, []byte("## 4. Architecture"))
	if !ok {
		t.Fatal("DESIGN.md has no architecture section")
	}
	_, block, _ := bytes.Cut(section, []byte("```\n"))
	block, _, ok = bytes.Cut(block, []byte("```"))
	if !ok {
		t.Fatal("DESIGN.md §4 has no architecture block")
	}
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`── (\S+)`).FindAllSubmatch(block, -1) {
		listed[strings.TrimSuffix(string(m[1]), "/")] = true
	}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			if dir := filepath.ToSlash(filepath.Dir(path)); !listed[dir] {
				listed[dir] = true // report each directory once
				t.Errorf("DESIGN.md §4 does not list %s", dir)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
