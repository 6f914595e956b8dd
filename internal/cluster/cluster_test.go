package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pnp/internal/api"
	"pnp/internal/obs"
	"pnp/internal/sweep"
	"pnp/internal/verifyd"
	"pnp/internal/verifyd/client"
)

// pingPML is a minimal one-shot producer/consumer so cells verify in
// milliseconds (the same design the sweep tests use).
const pingPML = `
byte got;
proctype Producer(chan esig; chan edat; byte n) {
	byte i;
	mtype st;
	do
	:: i < n ->
	   edat!i + 1,0,0,0,1;
	   esig?st,_;
	   i = i + 1
	:: else -> break
	od
}
proctype Consumer(chan rsig; chan rdat; byte n) {
	mtype st;
	byte d, sid, sd;
	bit sel, rem;
	do
	:: got < n ->
	   rdat!0,0,0,0,1;
	   rsig?st,_;
	   rdat?d,sid,sd,sel,rem;
	   if
	   :: st == RECV_SUCC -> got = got + 1
	   :: else
	   fi
	:: else -> break
	od
}
`

func pingADL(msgs int) string {
	return fmt.Sprintf(`system ping {
    components "ping.pml"

    connector pipe {
        send    syn-blocking
        channel fifo(1)
        receive blocking
    }

    instance p = Producer(send pipe, %d)
    instance c = Consumer(recv pipe, %d)

    invariant safety "got >= 0"
    goal delivered "got == %d"
}
`, msgs, msgs, msgs)
}

func pingComponents() map[string]string {
	return map[string]string{"ping.pml": pingPML}
}

func pingRequest(msgs int) client.JobRequest {
	return client.JobRequest{ADL: pingADL(msgs), Components: pingComponents()}
}

func pingWire(channels []string) api.SweepSpec {
	return api.SweepSpec{
		Name:       "ping",
		Base:       pingADL(1),
		Components: pingComponents(),
		Connector:  "pipe",
		Channels:   channels,
	}
}

// fabric maps fixed logical hosts ("w1") to live httptest backends, so
// node names — and with them ring placement — are identical on every
// run regardless of which ports the OS hands out. Dropping a host
// severs it mid-flight: in-flight and future requests fail with a
// transport error, exactly what a killed worker looks like.
type fabric struct {
	mu      sync.Mutex
	targets map[string]string // logical host -> real host:port
}

func newFabric() *fabric { return &fabric{targets: make(map[string]string)} }

func (f *fabric) add(t *testing.T, host string, h http.Handler) {
	t.Helper()
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	f.mu.Lock()
	f.targets[host] = hs.Listener.Addr().String()
	f.mu.Unlock()
}

func (f *fabric) drop(host string) {
	f.mu.Lock()
	delete(f.targets, host)
	f.mu.Unlock()
}

func (f *fabric) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	real, ok := f.targets[req.URL.Host]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fabric: no route to %s", req.URL.Host)
	}
	r2 := req.Clone(req.Context())
	r2.URL.Host = real
	return http.DefaultTransport.RoundTrip(r2)
}

// newWorker starts a real verification server behind the given logical
// host name.
func newWorker(t *testing.T, f *fabric, host string) {
	t.Helper()
	srv := verifyd.NewServer(verifyd.Config{Workers: 2, Registry: obs.NewRegistry()})
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	f.add(t, host, srv.Handler())
}

func newTestCluster(t *testing.T, f *fabric, hosts []string, mutate func(*Config)) (*Coordinator, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := Config{
		Nodes:         hosts,
		ProbeInterval: time.Minute, // probes fire once at startup, then stay out of the test's way
		Registry:      reg,
		ClientOptions: []client.Option{client.WithHTTPClient(&http.Client{Transport: f})},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	})
	return c, reg
}

func waitJobStatus(t *testing.T, c *Coordinator, id string) api.Job {
	t.Helper()
	j, ok := c.lookupJob(id)
	if !ok {
		t.Fatalf("job %s not registered", id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.WaitJob(ctx, j); err != nil {
		t.Fatalf("waiting for %s: %v", id, err)
	}
	return j.snapshot()
}

func TestClusterRoutesJobAndCachesResult(t *testing.T) {
	f := newFabric()
	workers := []string{"http://w1", "http://w2", "http://w3"}
	for _, w := range workers {
		newWorker(t, f, w[len("http://"):])
	}
	c, reg := newTestCluster(t, f, workers, nil)

	st, err := c.SubmitJob(context.Background(), pingRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	done := waitJobStatus(t, c, st.ID)
	if done.Err != "" || done.Report == nil || !done.Report.OK {
		t.Fatalf("job did not pass: %+v", done)
	}
	if done.ClusterCached || done.Failovers != 0 {
		t.Fatalf("fresh job should run on a node: %+v", done)
	}
	key := submissionKey(pingRequest(2))
	owner := c.ring.Owner(key[:])
	if done.Node != owner {
		t.Fatalf("job ran on %s, ring owner is %s", done.Node, owner)
	}

	// A repeat of the same submission is answered by the coordinator's
	// own cache without touching any worker.
	st2, err := c.SubmitJob(context.Background(), pingRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	done2 := waitJobStatus(t, c, st2.ID)
	if !done2.ClusterCached || done2.Node != "coordinator" {
		t.Fatalf("repeat not served from coordinator cache: %+v", done2)
	}
	if done2.Report == nil || !done2.Report.OK {
		t.Fatalf("cached report wrong: %+v", done2)
	}
	if got := reg.Counter("cluster_cache_hits_total").Value(); got < 1 {
		t.Fatalf("cluster_cache_hits_total = %d, want >= 1", got)
	}
}

// TestClusterPeeksWorkerCache: a fresh coordinator (empty LRU) over
// workers that already hold the answer serves the repeat from the ring
// owner's report cache — the peek that makes worker caches
// cluster-wide.
func TestClusterPeeksWorkerCache(t *testing.T) {
	f := newFabric()
	workers := []string{"http://w1", "http://w2", "http://w3"}
	for _, w := range workers {
		newWorker(t, f, w[len("http://"):])
	}
	a, _ := newTestCluster(t, f, workers, nil)
	st, err := a.SubmitJob(context.Background(), pingRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	first := waitJobStatus(t, a, st.ID)
	if first.Err != "" || first.Report == nil {
		t.Fatalf("seed job failed: %+v", first)
	}

	b, reg := newTestCluster(t, f, workers, nil)
	st2, err := b.SubmitJob(context.Background(), pingRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	done := waitJobStatus(t, b, st2.ID)
	if !done.ClusterCached {
		t.Fatalf("repeat should be cache-served: %+v", done)
	}
	if done.Node == "coordinator" || done.Node != first.Node {
		t.Fatalf("peek should hit the node that ran the job (%s), got %s", first.Node, done.Node)
	}
	if got := reg.Counter("cluster_cache_hits_total").Value(); got != 1 {
		t.Fatalf("cluster_cache_hits_total = %d, want 1", got)
	}
}

// stubNode accepts submissions and then hangs their waits until killed:
// the deterministic stand-in for a worker that dies mid-job.
type stubNode struct {
	mu        sync.Mutex
	submitted chan struct{} // closed on first accepted job
	die       chan struct{} // closed to abort every in-flight wait
}

func newStubNode() *stubNode {
	return &stubNode{submitted: make(chan struct{}), die: make(chan struct{})}
}

func (s *stubNode) handler() http.Handler {
	writeJSON := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(v)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, client.Health{Status: "ok", Version: "stub"})
	})
	mux.HandleFunc("GET /v1/cache/", func(w http.ResponseWriter, r *http.Request) {
		verifyd.WriteError(w, http.StatusNotFound, verifyd.CodeNotFound, "stub holds nothing")
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		select {
		case <-s.submitted:
		default:
			close(s.submitted)
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, client.Job{ID: "stub-job", State: "queued"})
	})
	mux.HandleFunc("GET /v1/jobs/", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-s.die:
		case <-r.Context().Done():
		}
		panic(http.ErrAbortHandler) // sever the connection: the node "died"
	})
	return mux
}

// routeToStub finds a message count whose submission key the ring
// assigns to the stub — deterministic, because node names are fixed.
func routeToStub(t *testing.T, c *Coordinator, stub string) int {
	t.Helper()
	for msgs := 1; msgs <= 64; msgs++ {
		key := submissionKey(pingRequest(msgs))
		if c.ring.Owner(key[:]) == stub {
			return msgs
		}
	}
	t.Fatal("no ping variant routes to the stub (hash or ring changed?)")
	return 0
}

func TestClusterFailsOverWhenNodeDies(t *testing.T) {
	f := newFabric()
	stub := newStubNode()
	f.add(t, "stub", stub.handler())
	newWorker(t, f, "w1")
	newWorker(t, f, "w2")
	hosts := []string{"http://stub", "http://w1", "http://w2"}
	c, reg := newTestCluster(t, f, hosts, nil)

	msgs := routeToStub(t, c, "http://stub")
	go func() {
		<-stub.submitted
		f.drop("stub") // retries and probes now fail too
		close(stub.die)
	}()
	st, err := c.SubmitJob(context.Background(), pingRequest(msgs))
	if err != nil {
		t.Fatal(err)
	}
	done := waitJobStatus(t, c, st.ID)
	if done.Err != "" || done.Report == nil || !done.Report.OK {
		t.Fatalf("job lost in failover: %+v", done)
	}
	if done.Node == "http://stub" || done.Node == "" {
		t.Fatalf("job still attributed to the dead node: %+v", done)
	}
	if done.Failovers < 1 {
		t.Fatalf("failovers = %d, want >= 1", done.Failovers)
	}
	if got := reg.Counter("cluster_failovers_total").Value(); got < 1 {
		t.Fatalf("cluster_failovers_total = %d, want >= 1", got)
	}
	if n := c.nodes["http://stub"]; n.healthy.Load() {
		t.Fatal("dead node was not ejected")
	}
	if got := c.HealthyNodes(); got != 2 {
		t.Fatalf("HealthyNodes = %d, want 2", got)
	}
}

// waitSweepDone polls the coordinator's sweep resource until it
// finishes.
func waitSweepDone(t *testing.T, c *Coordinator, id string) api.SweepStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := c.Sweeps().Status(id)
		if !ok {
			t.Fatalf("sweep %s not registered", id)
		}
		if st.State == "done" {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("sweep did not finish in time")
	return api.SweepStatus{}
}

// sweepChannels is the dimension pool for cluster sweep tests: eight
// distinct cells, so placement touches every node of a small fleet.
var sweepChannels = []string{
	"fifo(1)", "single-slot", "fifo(2)", "fifo(3)",
	"fifo(4)", "fifo(5)", "priority(1)", "priority(2)",
	"dropping(1)", "dropping(2)", "lossy(1)", "lossy(2)",
}

// localVerdicts runs the same sweep in-process — the single-node ground
// truth the cluster must reproduce byte-for-byte.
func localVerdicts(t *testing.T, ws api.SweepSpec) map[int]string {
	t.Helper()
	spec, err := sweep.Compile(ws)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Run(context.Background(), spec, sweep.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int]string, len(res.Cells))
	for _, cell := range res.Cells {
		out[cell.Index] = cell.Verdict
	}
	return out
}

func TestClusterSweepMatchesSingleNode(t *testing.T) {
	f := newFabric()
	workers := []string{"http://w1", "http://w2", "http://w3"}
	for _, w := range workers {
		newWorker(t, f, w[len("http://"):])
	}
	c, _ := newTestCluster(t, f, workers, nil)

	ws := pingWire(sweepChannels)
	want := localVerdicts(t, ws)

	st, err := c.Sweeps().Start(context.Background(), ws)
	if err != nil {
		t.Fatal(err)
	}
	final := waitSweepDone(t, c, st.ID)
	if final.Result == nil || final.Err != "" {
		t.Fatalf("sweep failed: %+v", final)
	}
	if len(final.Result.Cells) != len(want) {
		t.Fatalf("cells: got %d, want %d", len(final.Result.Cells), len(want))
	}
	nodes := make(map[string]bool)
	for _, cell := range final.Result.Cells {
		if cell.Verdict != want[cell.Index] {
			t.Errorf("cell %d (%s): verdict %q, single-node says %q",
				cell.Index, cell.Connector, cell.Verdict, want[cell.Index])
		}
		if cell.Node == "" {
			t.Errorf("cell %d has no node attribution", cell.Index)
		}
		nodes[cell.Node] = true
	}
	if len(nodes) < 2 {
		t.Errorf("all cells on %v — hash routing should spread 8 cells over 3 nodes", nodes)
	}

	// Resubmitting the identical sweep is answered from the cluster
	// cache: zero misses, every non-deduped cell a hit.
	st2, err := c.Sweeps().Start(context.Background(), ws)
	if err != nil {
		t.Fatal(err)
	}
	final2 := waitSweepDone(t, c, st2.ID)
	if final2.Result == nil {
		t.Fatalf("resubmit failed: %+v", final2)
	}
	if final2.Result.CacheMisses != 0 {
		t.Fatalf("resubmit missed the cache %d times", final2.Result.CacheMisses)
	}
	if final2.Result.CacheHits == 0 {
		t.Fatal("resubmit recorded no cache hits")
	}
	for _, cell := range final2.Result.Cells {
		if cell.Verdict != want[cell.Index] {
			t.Errorf("cached cell %d: verdict %q, want %q", cell.Index, cell.Verdict, want[cell.Index])
		}
	}
}

func TestClusterSweepSurvivesWorkerKill(t *testing.T) {
	f := newFabric()
	stub := newStubNode()
	f.add(t, "stub", stub.handler())
	newWorker(t, f, "w1")
	newWorker(t, f, "w2")
	c, reg := newTestCluster(t, f, []string{"http://stub", "http://w1", "http://w2"}, nil)

	ws := pingWire(sweepChannels)
	want := localVerdicts(t, ws)

	// Confirm the ring sends at least one cell to the stub, so the kill
	// below actually interrupts the sweep. Deterministic: names fixed.
	spec, err := sweep.Compile(ws)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	stubOwned := 0
	for _, cell := range cells {
		key := submissionKey(client.JobRequest{ADL: cell.Source, Components: spec.Components})
		if c.ring.Owner(key[:]) == "http://stub" {
			stubOwned++
		}
	}
	if stubOwned == 0 {
		t.Fatal("no cell routes to the stub; widen sweepChannels")
	}

	go func() {
		<-stub.submitted
		f.drop("stub")
		close(stub.die)
	}()
	st, err := c.Sweeps().Start(context.Background(), ws)
	if err != nil {
		t.Fatal(err)
	}
	final := waitSweepDone(t, c, st.ID)
	if final.Result == nil || final.Err != "" {
		t.Fatalf("sweep failed: %+v", final)
	}
	for _, cell := range final.Result.Cells {
		if cell.Err != "" {
			t.Errorf("cell %d errored after failover: %s", cell.Index, cell.Err)
		}
		if cell.Verdict != want[cell.Index] {
			t.Errorf("cell %d: verdict %q, single-node says %q", cell.Index, cell.Verdict, want[cell.Index])
		}
		if cell.Node == "http://stub" {
			t.Errorf("cell %d attributed to the killed node", cell.Index)
		}
	}
	if got := reg.Counter("cluster_failovers_total").Value(); got < 1 {
		t.Fatalf("cluster_failovers_total = %d, want >= 1 (stub owned %d cells)", got, stubOwned)
	}
}

func TestClusterBadSubmissionFailsFast(t *testing.T) {
	f := newFabric()
	newWorker(t, f, "w1")
	newWorker(t, f, "w2")
	c, _ := newTestCluster(t, f, []string{"http://w1", "http://w2"}, nil)

	_, err := c.SubmitJob(context.Background(), client.JobRequest{ADL: "system broken {"})
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("want a relayed *APIError, got %v", err)
	}
	if ae.Status < 400 || ae.Status >= 500 {
		t.Fatalf("bad ADL should be a 4xx, got %d", ae.Status)
	}
	if ae.Line == 0 {
		t.Fatalf("ADL error lost its source position: %+v", ae)
	}
	c.mu.Lock()
	orphans := len(c.jobs)
	c.mu.Unlock()
	if orphans != 0 {
		t.Fatalf("failed submission left %d orphan jobs", orphans)
	}
}

func TestClusterDrainingRejectsSubmissions(t *testing.T) {
	f := newFabric()
	newWorker(t, f, "w1")
	c, _ := newTestCluster(t, f, []string{"http://w1"}, nil)
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitJob(context.Background(), pingRequest(1)); !errors.Is(err, verifyd.ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
	if _, err := c.Sweeps().Start(context.Background(), pingWire([]string{"fifo(1)"})); !errors.Is(err, verifyd.ErrDraining) {
		t.Fatalf("sweep while draining: %v, want ErrDraining", err)
	}
}

// TestCoordinatorServesV1Contract drives the coordinator through the
// same typed client pnpverify -remote and pnpsweep -remote use — the
// wire-compatibility claim, end to end.
func TestCoordinatorServesV1Contract(t *testing.T) {
	f := newFabric()
	workers := []string{"http://w1", "http://w2", "http://w3"}
	for _, w := range workers {
		newWorker(t, f, w[len("http://"):])
	}
	c, _ := newTestCluster(t, f, workers, nil)
	hs := httptest.NewServer(c.Handler())
	t.Cleanup(hs.Close)

	cc := client.New(hs.URL, client.WithRetries(0))
	ctx := context.Background()

	job, err := cc.Submit(ctx, pingRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	done, err := cc.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Report == nil || !done.Report.OK {
		t.Fatalf("remote job did not pass: %+v", done)
	}
	if done.Node == "" {
		t.Fatal("job document lost its node attribution over the wire")
	}

	sst, err := cc.SubmitSweep(ctx, client.SweepSpec{
		Name: "ping", Base: pingADL(1), Components: pingComponents(),
		Connector: "pipe", Channels: []string{"fifo(1)", "single-slot"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var streamed []client.SweepCell
	final, err := cc.StreamSweep(ctx, sst.ID, func(cell client.SweepCell) {
		streamed = append(streamed, cell)
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Result == nil || final.Result.Total != 2 || len(streamed) != 2 {
		t.Fatalf("sweep stream: final=%+v streamed=%d", final, len(streamed))
	}
	for _, cell := range streamed {
		if cell.Node == "" {
			t.Errorf("streamed cell %d has no node", cell.Index)
		}
	}

	h, err := cc.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("healthz: %+v", h)
	}
	if err := cc.Ready(ctx); err != nil {
		t.Fatalf("readyz: %v", err)
	}

	// Draining flips readyz to a Temporary 503, like a single pnpd.
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	err = cc.Ready(ctx)
	var ae *client.APIError
	if !errors.As(err, &ae) || !ae.Temporary() {
		t.Fatalf("readyz while draining: %v, want Temporary 503", err)
	}
}

// BenchmarkClusterRouteOverhead measures the coordinator's per-job
// routing cost — content hash plus ring walk plus health triage — the
// fixed tax a job pays before any network I/O.
func BenchmarkClusterRouteOverhead(b *testing.B) {
	reg := obs.NewRegistry()
	hosts := make([]string, 8)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("http://worker-%d:7447", i)
	}
	c, err := New(Config{Nodes: hosts, ProbeInterval: time.Hour, Registry: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	}()
	req := pingRequest(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := submissionKey(req)
		if len(c.route(key)) == 0 {
			b.Fatal("no candidates")
		}
	}
}
