package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pnp/internal/api"
	"pnp/internal/obs"
	"pnp/internal/obs/tracing"
	"pnp/internal/sweep"
	"pnp/internal/verifyd"
	"pnp/internal/verifyd/client"
)

// Config parameterizes a cluster coordinator.
type Config struct {
	// Nodes are the worker base URLs (e.g. "http://10.0.0.1:7447").
	// At least one is required; duplicates are dropped.
	Nodes []string

	// Replicas is the virtual-node count per worker on the hash ring
	// (<= 0 selects DefaultReplicas).
	Replicas int

	// ProbeInterval is the health-probe period per node (default 2s);
	// ProbeTimeout bounds one probe (default 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration

	// FailAfter is the consecutive probe failures that eject a node
	// (default 2). A routing transport error ejects immediately — the
	// probe loop readmits the node when it answers again.
	FailAfter int

	// MaxAttempts bounds placement attempts per job across ring replicas
	// (<= 0 tries every node once).
	MaxAttempts int

	// CacheEntries bounds the coordinator-side result cache (reports by
	// submission key; default 1024).
	CacheEntries int

	// RetainJobs bounds completed coordinator jobs kept queryable
	// (default 256).
	RetainJobs int

	// Registry receives the cluster metric families; nil disables them.
	Registry *obs.Registry
	// Tracer records coordinator spans; nil disables tracing.
	Tracer *tracing.Recorder
	// Logger receives lifecycle events; nil discards them.
	Logger *slog.Logger

	// ClientOptions are appended to every node client's options (tests
	// substitute transports; deployments tune retries).
	ClientOptions []client.Option
}

// node is one worker as the coordinator sees it.
type node struct {
	name string         // base URL, also the ring and metrics identity
	rc   *client.Client // routing client: 1 in-place retry, then failover
	pc   *client.Client // probe client: no retries

	healthy  atomic.Bool
	draining atomic.Bool

	mu      sync.Mutex
	last    *api.Health // most recent successful probe
	lastErr string      // most recent failure, for /v1/cluster

	routed *obs.Counter // cluster_jobs_routed_total{node}
}

func (n *node) noteHealth(h *api.Health) {
	n.mu.Lock()
	n.last, n.lastErr = h, ""
	n.mu.Unlock()
}

func (n *node) noteErr(err error) {
	n.mu.Lock()
	n.lastErr = err.Error()
	n.mu.Unlock()
}

// Coordinator fronts a fleet of pnpd workers behind the v1 wire
// contract. See the package comment for the routing and caching model.
type Coordinator struct {
	cfg    Config
	ring   *Ring
	nodes  map[string]*node
	order  []string // sorted node names
	logger *slog.Logger
	tracer *tracing.Recorder
	reg    *obs.Registry

	cache *reportLRU

	mNodesHealthy *obs.Gauge
	mFailovers    *obs.Counter
	mCacheHits    *obs.Counter

	mu       sync.Mutex
	jobs     map[string]*cjob
	jobOrder []string // completed-job eviction order
	nextJob  int

	// sweeps is the single-node sweep service over this coordinator as
	// its cell executor.
	sweeps *sweep.Service

	draining atomic.Bool
	stop     chan struct{}
	probeWG  sync.WaitGroup
	wg       sync.WaitGroup // job drivers
}

// New builds a coordinator over cfg.Nodes and starts its health-probe
// loops. Nodes start healthy — the optimistic default lets the first
// submission route immediately; the first probe round corrects it.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes configured")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 2
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 256
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	c := &Coordinator{
		cfg:           cfg,
		ring:          NewRing(cfg.Replicas),
		nodes:         make(map[string]*node),
		logger:        logger,
		tracer:        cfg.Tracer,
		reg:           cfg.Registry,
		cache:         newReportLRU(cfg.CacheEntries, cfg.Registry),
		mNodesHealthy: cfg.Registry.Gauge("cluster_nodes_healthy"),
		mFailovers:    cfg.Registry.Counter("cluster_failovers_total"),
		mCacheHits:    cfg.Registry.Counter("cluster_cache_hits_total"),
		jobs:          make(map[string]*cjob),
		stop:          make(chan struct{}),
	}
	c.sweeps = sweep.NewService(c, cfg.Registry)
	for _, raw := range cfg.Nodes {
		name := normalizeNode(raw)
		if _, dup := c.nodes[name]; dup {
			continue
		}
		// Routing keeps one in-place retry: a blip is worth one revisit,
		// anything worse fails fast so placement moves to the next
		// replica instead of backing off against a dead node.
		rcOpts := append([]client.Option{client.WithRetries(1)}, cfg.ClientOptions...)
		pcOpts := append([]client.Option{client.WithRetries(0)}, cfg.ClientOptions...)
		n := &node{
			name:   name,
			rc:     client.New(name, rcOpts...),
			pc:     client.New(name, pcOpts...),
			routed: cfg.Registry.Counter(obs.Labels("cluster_jobs_routed_total", "node", name)),
		}
		n.healthy.Store(true)
		c.nodes[name] = n
		c.order = append(c.order, name)
		c.ring.Add(name)
	}
	sort.Strings(c.order)
	c.mNodesHealthy.Set(int64(len(c.nodes)))
	for _, name := range c.order {
		c.probeWG.Add(1)
		go c.probeLoop(c.nodes[name])
	}
	c.logger.Info("cluster: coordinator up", "nodes", len(c.nodes), "replicas", c.ring.replicas)
	return c, nil
}

// normalizeNode canonicalizes a node URL ("host:port" gains http://).
func normalizeNode(raw string) string {
	if len(raw) >= 7 && (raw[:7] == "http://" || (len(raw) >= 8 && raw[:8] == "https://")) {
		for len(raw) > 0 && raw[len(raw)-1] == '/' {
			raw = raw[:len(raw)-1]
		}
		return raw
	}
	return "http://" + raw
}

// Nodes lists the configured node names in sorted order.
func (c *Coordinator) Nodes() []string { return append([]string(nil), c.order...) }

// Draining reports whether Shutdown has begun.
func (c *Coordinator) Draining() bool { return c.draining.Load() }

// Shutdown stops accepting submissions, stops the probe loops, and
// waits (bounded by ctx) for in-flight jobs and sweeps to finish.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	if !c.draining.CompareAndSwap(false, true) {
		return nil
	}
	close(c.stop)
	c.probeWG.Wait()
	done := make(chan struct{})
	// Sweeps first: once they have finished nothing places new jobs, so
	// the job-driver wait below cannot race a late wg.Add.
	go func() { c.sweeps.Wait(); c.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// --- health probing ---

func (c *Coordinator) probeLoop(n *node) {
	defer c.probeWG.Done()
	fails := 0
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		c.probeOnce(n, &fails)
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
	}
}

func (c *Coordinator) probeOnce(n *node, fails *int) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	h, err := n.pc.Health(ctx)
	if err != nil {
		*fails++
		n.noteErr(err)
		if *fails >= c.cfg.FailAfter {
			c.eject(n, err)
		}
		return
	}
	*fails = 0
	n.noteHealth(h)
	n.draining.Store(h.Draining)
	if n.healthy.CompareAndSwap(false, true) {
		c.logger.Info("cluster: node readmitted", "node", n.name, "version", h.Version)
		c.updateHealthyGauge()
	}
}

// eject marks a node unhealthy (no-op if it already is). Routing skips
// ejected nodes; the ring is untouched, so key ownership — and with it
// every healthy node's cache locality — survives the outage.
func (c *Coordinator) eject(n *node, err error) {
	n.noteErr(err)
	if n.healthy.CompareAndSwap(true, false) {
		c.logger.Warn("cluster: node ejected", "node", n.name, "err", err)
		c.updateHealthyGauge()
	}
}

func (c *Coordinator) updateHealthyGauge() { c.mNodesHealthy.Set(int64(c.HealthyNodes())) }

// HealthyNodes reports how many nodes are currently admitted.
func (c *Coordinator) HealthyNodes() int {
	healthy := 0
	for _, name := range c.order {
		if c.nodes[name].healthy.Load() {
			healthy++
		}
	}
	return healthy
}

// --- routing ---

// route returns the placement sequence for a key: the ring-walk owners
// reordered so healthy non-draining nodes come first, then draining
// ones (alive, finishing in-flight work), and ejected nodes last — a
// final resort in case every probe verdict is stale. MaxAttempts caps
// the sequence.
func (c *Coordinator) route(key verifyd.CacheKey) []*node {
	names := c.ring.Owners(key[:], 0)
	var ready, draining, dead []*node
	for _, name := range names {
		n := c.nodes[name]
		switch {
		case !n.healthy.Load():
			dead = append(dead, n)
		case n.draining.Load():
			draining = append(draining, n)
		default:
			ready = append(ready, n)
		}
	}
	out := append(append(ready, draining...), dead...)
	if c.cfg.MaxAttempts > 0 && len(out) > c.cfg.MaxAttempts {
		out = out[:c.cfg.MaxAttempts]
	}
	return out
}

// submissionKey computes the cluster-wide content address of a job
// request — the same hash the worker computes on arrival (see
// verifyd.Submission), so ring placement, the coordinator cache, and
// worker cache peeks all speak one key.
func submissionKey(req api.JobRequest) verifyd.CacheKey {
	return verifyd.SubmissionOf(req).Key()
}

// NodeInfo is one node's row in the GET /v1/cluster document.
type NodeInfo struct {
	Name     string      `json:"name"`
	Healthy  bool        `json:"healthy"`
	Draining bool        `json:"draining,omitempty"`
	Health   *api.Health `json:"health,omitempty"`
	Err      string      `json:"err,omitempty"`
}

// ClusterInfo is the GET /v1/cluster document.
type ClusterInfo struct {
	Nodes        []NodeInfo         `json:"nodes"`
	NodesHealthy int                `json:"nodes_healthy"`
	RingReplicas int                `json:"ring_replicas"`
	Cache        verifyd.CacheStats `json:"cache"`
}

// Info snapshots the cluster's state for GET /v1/cluster.
func (c *Coordinator) Info() ClusterInfo {
	ci := ClusterInfo{RingReplicas: c.ring.replicas, Cache: c.cache.Stats()}
	for _, name := range c.order {
		n := c.nodes[name]
		n.mu.Lock()
		ni := NodeInfo{
			Name:     n.name,
			Healthy:  n.healthy.Load(),
			Draining: n.draining.Load(),
			Health:   n.last,
			Err:      n.lastErr,
		}
		n.mu.Unlock()
		ci.Nodes = append(ci.Nodes, ni)
		if ni.Healthy {
			ci.NodesHealthy++
		}
	}
	return ci
}
