// Command pnpd is the Plug-and-Play verification daemon: it accepts
// architecture descriptions over HTTP, verifies them on a bounded worker
// pool, and serves verdicts — reusing content-addressed cached results
// for unchanged (model, property, options) combinations, so iterating on
// one connector port re-verifies in microseconds.
//
// Usage:
//
//	pnpd [--addr :7447] [--workers N] [--search-budget N]
//	     [--cache-entries N] [--job-timeout 30s] [--metrics-addr :8080]
//	     [--root DIR] [--trace-entries N] [--log-level info]
//	     [--data-dir DIR]
//	     [--visited collapse] [--mem-limit 2GiB] [--spill-dir DIR]
//	pnpd --coordinator --nodes=http://h1:7447,http://h2:7447 [--addr :7446]
//	     [--probe-interval 2s] [--cache-entries N]
//
// With --coordinator the process serves the same v1 API but routes
// every job and sweep cell to the worker fleet named by --nodes: a
// consistent-hash ring over the submission's content address picks the
// node (so repeats land where the answer is cached), health probes
// eject dead nodes, and placement fails over along the ring. See
// docs/CLUSTER.md.
//
// With --data-dir the daemon is crash-safe: every accepted submission
// is journaled to an append-only WAL before it is acknowledged, running
// searches append each BFS level to a checkpoint log, and a
// restarted daemon replays the journal — completed verdicts are served
// from disk, interrupted jobs are re-enqueued and resume from their
// last checkpoint commit. kill -9 loses no acknowledged work. See
// docs/API.md.
//
// Every job and sweep is traced into a bounded in-process flight
// recorder: GET /v1/jobs/{id}/trace and /v1/sweeps/{id}/trace stream
// the spans as NDJSON, /debug/trace browses the ring, and submissions
// carrying a W3C traceparent header join the caller's trace. Job
// lifecycle events are logged with log/slog, each line carrying the
// job_id and trace_id.
//
// Submit a design and wait for its verdict:
//
//	curl -s --data-binary @examples/adl/bridge.pnp localhost:7447/v1/jobs
//	curl -s localhost:7447/v1/jobs/job-1/wait
//
// The daemon also serves design-space sweeps (POST /v1/sweeps): one
// request expands into a verification job per design variant, deduped
// against the shared result cache. pnpsweep -remote drives them.
//
// A SIGINT/SIGTERM drains the queue: running jobs finish, new
// submissions get 503, then the process exits. GET /healthz is the
// liveness probe (200 for the process lifetime) and GET /readyz the
// readiness probe (503 from the first drain instant), so orchestrators
// stop routing to a draining pod without killing its in-flight work.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pnp"
	"pnp/internal/checker"
	"pnp/internal/cluster"
	"pnp/internal/obs"
	"pnp/internal/obs/tracing"
	"pnp/internal/verifyd"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":7447", "HTTP listen address for the job API")
	coordinator := flag.Bool("coordinator", false, "run as a cluster coordinator fronting --nodes instead of verifying locally")
	nodes := flag.String("nodes", "", "comma-separated worker base URLs (coordinator mode)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "health-probe period per node (coordinator mode)")
	workers := flag.Int("workers", 0, "concurrent checker runs (0 = GOMAXPROCS)")
	searchBudget := flag.Int("search-budget", 0, "total parallel search workers shared by running jobs (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache-entries", 1024, "result cache capacity (verdicts)")
	jobTimeout := flag.Duration("job-timeout", 5*time.Minute, "per-property search timeout (0 = unlimited)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics on a separate address (default: on --addr)")
	root := flag.String("root", "", "directory for resolving component references in raw ADL submissions")
	dataDir := flag.String("data-dir", "", "durable state directory (job journal + search checkpoints); submissions survive a crash and a restart resumes interrupted searches")
	visited := flag.String("visited", "", "default visited-set storage for parallel searches: exact or collapse (jobs may override per submission)")
	memLimit := flag.String("mem-limit", "", "default per-search visited-set memory budget (e.g. 2GiB); searches over budget spill visited states to disk")
	spillDir := flag.String("spill-dir", "", "directory for spill scratch files, unlinked as they are created (default: the OS temp dir); never wire-settable by clients")
	traceEntries := flag.Int("trace-entries", tracing.DefaultRecorderCapacity,
		"flight-recorder capacity in spans; jobs and sweeps record traces served on /v1/*/trace and /debug/trace (0 disables tracing)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: pnpd [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		return 2
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "pnpd: bad -log-level %q\n", *logLevel)
		return 2
	}
	switch *visited {
	case "", checker.VisitedExact, checker.VisitedCollapse:
	default:
		fmt.Fprintf(os.Stderr, "pnpd: --visited=%s: want exact or collapse\n", *visited)
		return 2
	}
	memBudget, err := checker.ParseByteSize(*memLimit)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnpd: --mem-limit: %v\n", err)
		return 2
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	var rec *tracing.Recorder
	if *traceEntries > 0 {
		rec = tracing.NewRecorder(*traceEntries)
	}

	reg := obs.NewRegistry()
	if *coordinator {
		return runCoordinator(*addr, *nodes, *probeInterval, *cacheEntries, *metricsAddr, reg, rec, logger)
	}
	cfg := verifyd.Config{
		Workers:      *workers,
		SearchBudget: *searchBudget,
		CacheEntries: *cacheEntries,
		JobTimeout:   *jobTimeout,
		DataDir:      *dataDir,
		Registry:     reg,
		Tracer:       rec,
		Logger:       logger,
		Options: checker.Options{Storage: checker.StorageOptions{
			Visited:  *visited,
			MemLimit: memBudget,
			SpillDir: *spillDir,
		}},
	}
	if *root != "" {
		dir := *root
		cfg.Resolver = func(ref string) (string, error) {
			b, err := os.ReadFile(filepath.Join(dir, filepath.Clean(ref)))
			return string(b), err
		}
	}
	// An explicit --data-dir that cannot be opened is a configuration
	// error the operator must see — unlike library callers, the daemon
	// refuses to silently degrade to memory-only.
	svc, err := pnp.Serve(pnp.ServeOptions{Verify: cfg})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnpd: data dir %s: %v\n", *dataDir, err)
		return 1
	}
	banner := func(at net.Addr) string {
		b := fmt.Sprintf("listening on http://%s (workers=%d, cache=%d, timeout=%s)",
			at, cfgWorkers(cfg), *cacheEntries, *jobTimeout)
		if *dataDir != "" {
			b += fmt.Sprintf("\npnpd: durable state in %s (checkpoint commits paced by the disk)", *dataDir)
		}
		return b
	}
	return serve(svc, *addr, *metricsAddr, reg, rec, banner, func() string {
		st := svc.VerifyServer().Cache().Stats()
		return fmt.Sprintf("drained (cache: %d entries, %d hits, %d misses, %d evictions)",
			st.Entries, st.Hits, st.Misses, st.Evictions)
	})
}

// cfgWorkers mirrors the server's worker-count default for the banner.
func cfgWorkers(cfg verifyd.Config) int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runCoordinator is pnpd --coordinator: the same process image serving
// the same v1 API, but routing every job and sweep cell to the worker
// fleet named by --nodes instead of verifying locally.
func runCoordinator(addr, nodes string, probeInterval time.Duration, cacheEntries int,
	metricsAddr string, reg *obs.Registry, rec *tracing.Recorder, logger *slog.Logger) int {
	var nodeList []string
	for _, n := range strings.Split(nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodeList = append(nodeList, n)
		}
	}
	if len(nodeList) == 0 {
		fmt.Fprintf(os.Stderr, "pnpd: --coordinator requires --nodes=url1,url2,...\n")
		return 2
	}
	svc, err := pnp.Serve(pnp.ServeOptions{Cluster: &cluster.Config{
		Nodes:         nodeList,
		ProbeInterval: probeInterval,
		CacheEntries:  cacheEntries,
		Registry:      reg,
		Tracer:        rec,
		Logger:        logger,
	}})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnpd: %v\n", err)
		return 1
	}
	banner := func(at net.Addr) string {
		return fmt.Sprintf("coordinator on http://%s (nodes=%d, cache=%d, probe=%s)",
			at, len(svc.Coordinator().Nodes()), cacheEntries, probeInterval)
	}
	return serve(svc, addr, metricsAddr, reg, rec, banner, func() string { return "coordinator drained" })
}

// serve runs an assembled service — either role — until SIGINT/SIGTERM,
// then drains it. banner words the first line once the listener is up,
// drained the last.
func serve(svc *pnp.Service, addr, metricsAddr string, reg *obs.Registry, rec *tracing.Recorder,
	banner func(at net.Addr) string, drained func() string) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnpd: %v\n", err)
		return 1
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Println("pnpd: " + banner(ln.Addr()))

	if metricsAddr != "" {
		var mounts []obs.Mount
		if rec != nil {
			mounts = append(mounts, obs.Mount{Pattern: "/debug/trace", Handler: rec.Handler()})
		}
		msrv, err := obs.Serve(reg, metricsAddr, mounts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pnpd: metrics: %v\n", err)
			return 1
		}
		defer msrv.Close()
		fmt.Printf("pnpd: metrics on http://%s/metrics\n", msrv.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("pnpd: %s received, draining\n", sig)
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "pnpd: %v\n", err)
		return 1
	}

	// Drain the service first, HTTP second: the moment svc.Shutdown
	// begins, new submissions get 503 and /readyz reports draining —
	// but the listener stays up, so orchestrators can watch the drain
	// and clients can still collect verdicts for in-flight jobs. Only
	// once every accepted job has finished (and every sweep has
	// aggregated) does the HTTP server close.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "pnpd: drain: %v\n", err)
		return 1
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "pnpd: http shutdown: %v\n", err)
	}
	fmt.Println("pnpd: " + drained())
	return 0
}
