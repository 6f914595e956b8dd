package verifyd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pnp/internal/adl"
	"pnp/internal/api"
	"pnp/internal/artifact"
	"pnp/internal/checker"
	"pnp/internal/obs"
	"pnp/internal/obs/tracing"
)

// Version identifies the build in /healthz responses and cluster node
// listings. Override at link time with
// -ldflags "-X pnp/internal/verifyd.Version=...".
var Version = "0.7.0-dev"

// Config parameterizes a verification server.
type Config struct {
	// Workers is the number of concurrent checker runs (default
	// GOMAXPROCS). Each worker runs at most one search at a time.
	Workers int
	// SearchBudget is the total number of checker search workers
	// (checker.Options.Workers tokens) shared by all running jobs
	// (default GOMAXPROCS). Each job acquires as many idle tokens as it
	// may use when a worker picks it up — so one big job on an otherwise
	// idle server searches on every core, while a full pool degrades
	// gracefully to one search worker per job — and releases them when
	// it finishes. Every job is granted at least one token.
	SearchBudget int
	// CacheEntries bounds the result cache (default 1024).
	CacheEntries int
	// RetainJobs bounds how many completed jobs stay queryable via
	// Job/GET /v1/jobs/{id} (default 1024). Older completed jobs are
	// evicted FIFO; queued and running jobs are never evicted.
	RetainJobs int
	// JobTimeout bounds each property search; an expired job reports a
	// Canceled verdict instead of hanging a worker forever. Zero means
	// no timeout.
	JobTimeout time.Duration
	// DataDir, when set, makes the server crash-safe: HTTP submissions
	// are journaled to an append-only WAL under DataDir/journal before
	// they are acknowledged, long searches append each BFS level to a
	// log under DataDir/checkpoints, and a restarted server
	// replays the journal — completed verdicts are re-served, incomplete
	// jobs re-enqueued and resumed from their last checkpoint. Empty
	// (the default) keeps the server exactly as before: memory-only,
	// nothing written to disk.
	DataDir string
	// Resolver loads component files referenced by raw ADL submissions.
	// JSON submissions can inline components instead; inline components
	// shadow the resolver.
	Resolver adl.Resolver
	// Registry receives service and cache metrics; nil disables them.
	Registry *obs.Registry
	// Tracer, when non-nil, is the flight recorder every job records
	// spans into: submit/compose, queue wait, run, per-property checker
	// phases. Submissions carrying a traceparent join the caller's
	// trace; others root their own. Nil disables tracing entirely.
	Tracer *tracing.Recorder
	// Logger receives structured job-lifecycle logs (submitted, running,
	// done) carrying job_id and trace_id fields; nil discards them.
	Logger *slog.Logger
	// Options is the base checker configuration applied to every job;
	// submissions may override the search-shape fields per job.
	Options checker.Options
}

// Job is one submitted verification task: its v1 document (embedded;
// the state, counters and eventually the report, all guarded by the
// server's lock) plus what the server needs to run it.
type Job struct {
	api.Job

	sys     *adl.System
	opts    checker.Options
	timeout time.Duration
	done    chan struct{}
	seq     int // submission order, the cursor GET /v1/jobs pages over
	// subKey, when non-nil, is the submission's content address: the
	// completed report is published into the report cache under it, so
	// GET /v1/cache/{key} can answer an identical future submission.
	// Only HTTP submissions carry one — the key hashes wire fields.
	subKey *CacheKey

	// tctx carries the job span for children started by run(); qspan is
	// the open queue-wait span, ended at worker pickup.
	tctx  context.Context
	span  *tracing.Span
	qspan *tracing.Span

	// jreq retains the wire request for journal compaction until the job
	// completes (nil on journal-less servers and in-process submissions);
	// resumeFrom is the peer base URL to fetch search checkpoints from.
	jreq       *api.JobRequest
	resumeFrom string
}

// Server runs verification jobs on a bounded worker pool with a shared
// compiled-model cache and a content-addressed result cache.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	cache   *ResultCache
	reports *reportCache
	// artifacts is the content-addressed store of compiled modules —
	// library, component, program, and connector artifacts shared across
	// jobs and sweep cells (and, on a DataDir server, across restarts
	// via DataDir/artifacts).
	artifacts *artifact.Store

	budget *workerBudget

	mu      sync.Mutex
	jobs    map[string]*Job
	doneIDs []string // completed-job eviction order (FIFO)
	nextID  int
	closed  bool

	// draining flips when Shutdown begins; /readyz reads it lock-free so
	// load balancers see 503 while queued jobs finish.
	draining atomic.Bool

	// queue is never closed: workers exit via stop, which Shutdown
	// closes only after every accepted job has run, so a Submit racing
	// shutdown (or blocked on a full queue) can never panic on a closed
	// channel.
	queue    chan *Job
	stop     chan struct{}
	stopOnce sync.Once
	jobsWG   sync.WaitGroup // accepted-but-unfinished jobs
	wg       sync.WaitGroup // worker goroutines

	tracer *tracing.Recorder
	log    *slog.Logger

	// journal and ckptDir are the durability state of a DataDir server;
	// both zero on a memory-only one.
	journal *journal
	ckptDir string

	mSubmitted *obs.Counter
	mCompleted *obs.Counter
	mRejected  *obs.Counter
	mRunning   *obs.Gauge
	mQueued    *obs.Gauge
	hWait      *obs.Histogram
	cRecovered *obs.Counter
	cCkptFetch *obs.Counter

	cModReused   *obs.Counter
	cModCompiled *obs.Counter
}

// queueWaitBuckets span sub-millisecond pickups on an idle pool out to
// minute-long waits behind a saturated one — a wider range than the
// default LatencyBuckets, which top out at one second.
var queueWaitBuckets = []float64{
	0.0001, 0.001, 0.004, 0.016, 0.064, 0.256, 1, 4, 16, 64,
}

// NewServer builds a verification server and starts its workers. A
// Config.DataDir that cannot be opened (or whose journal fails to
// replay) is reported through the logger and durability is disabled;
// servers that must not degrade silently use OpenServer.
func NewServer(cfg Config) *Server {
	s, err := OpenServer(cfg)
	if err != nil {
		log := cfg.Logger
		if log == nil {
			log = slog.New(slog.NewTextHandler(io.Discard, nil))
		}
		log.Error("data dir unusable; running memory-only", "data_dir", cfg.DataDir, "err", err.Error())
		cfg.DataDir = ""
		s, _ = OpenServer(cfg)
	}
	return s
}

// OpenServer builds a verification server and starts its workers,
// reporting durability failures instead of masking them. With
// Config.DataDir set it opens (or creates) the job journal, replays it
// — re-registering completed jobs with their verdicts and re-enqueuing
// incomplete ones — and arms search checkpointing; re-enqueued jobs
// resume their searches from the last checkpoint commit in
// DataDir/checkpoints. Without DataDir it is identical to NewServer.
func OpenServer(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 1024
	}
	if cfg.SearchBudget <= 0 {
		cfg.SearchBudget = runtime.GOMAXPROCS(0)
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	// Compiled-module artifacts share the result cache's entry bound; on
	// a DataDir server they are also mirrored to DataDir/artifacts, so
	// module identity — and the what-needs-recompiling decision —
	// survives restarts.
	artDir := ""
	if cfg.DataDir != "" {
		artDir = filepath.Join(cfg.DataDir, "artifacts")
	}
	artifacts, err := artifact.NewStore(cfg.CacheEntries, artDir, cfg.Registry)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		reg:        cfg.Registry,
		cache:      NewResultCache(cfg.CacheEntries, cfg.Registry),
		reports:    newReportCache(cfg.CacheEntries, cfg.Registry),
		artifacts:  artifacts,
		jobs:       make(map[string]*Job),
		queue:      make(chan *Job, 64),
		stop:       make(chan struct{}),
		tracer:     cfg.Tracer,
		log:        log,
		mSubmitted: cfg.Registry.Counter("verifyd_jobs_submitted_total"),
		mCompleted: cfg.Registry.Counter("verifyd_jobs_completed_total"),
		mRejected:  cfg.Registry.Counter("verifyd_jobs_rejected_total"),
		mRunning:   cfg.Registry.Gauge("verifyd_jobs_running"),
		mQueued:    cfg.Registry.Gauge("verifyd_jobs_queued"),
		hWait:      cfg.Registry.Histogram("verifyd_queue_wait_seconds", queueWaitBuckets),

		cModReused:   cfg.Registry.Counter("jobs_modules_reused_total"),
		cModCompiled: cfg.Registry.Counter("jobs_modules_compiled_total"),
	}
	s.budget = newWorkerBudget(cfg.SearchBudget, cfg.Registry.Gauge("verifyd_search_workers_in_use"))

	var requeue []*Job
	if cfg.DataDir != "" {
		s.ckptDir = filepath.Join(cfg.DataDir, "checkpoints")
		if err := os.MkdirAll(s.ckptDir, 0o755); err != nil {
			return nil, err
		}
		j, recs, err := openJournal(filepath.Join(cfg.DataDir, "journal"), journalSegmentBytes, cfg.Registry)
		if err != nil {
			return nil, err
		}
		s.journal = j
		s.cRecovered = cfg.Registry.Counter("verifyd_jobs_recovered_total")
		s.cCkptFetch = cfg.Registry.Counter("verifyd_checkpoints_fetched_total")
		// Replay before the workers start, so recovered jobs hold their
		// original IDs and no new submission can race into them.
		requeue = s.replay(recs)
	}

	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	if len(requeue) > 0 {
		// The queue holds 64; re-enqueue from a goroutine so a journal
		// with hundreds of incomplete jobs cannot deadlock startup.
		go func() {
			for _, job := range requeue {
				s.mQueued.Add(1)
				s.queue <- job
			}
		}()
	}
	return s, nil
}

// resolver builds the component-resolution closure submissions use:
// inline components shadow the configured resolver.
func (s *Server) resolver(components map[string]string) adl.Resolver {
	return func(path string) (string, error) {
		if text, ok := components[path]; ok {
			return text, nil
		}
		if s.cfg.Resolver != nil {
			return s.cfg.Resolver(path)
		}
		return "", fmt.Errorf("unknown component %q (no resolver configured)", path)
	}
}

// subKeyHex renders a job's submission key ("" when it has none).
func subKeyHex(job *Job) string {
	if job.subKey == nil {
		return ""
	}
	return job.subKey.String()
}

// appendJournal journals one record, logging (never failing the job) on
// error: a full disk degrades durability, not availability.
func (s *Server) appendJournal(rec journalRecord) {
	if err := s.journal.append(rec); err != nil {
		s.log.Error("journal append failed", "job_id", rec.ID, "type", rec.Type, "err", err.Error())
	}
}

// Cache exposes the result cache (for stats endpoints and tests).
func (s *Server) Cache() *ResultCache { return s.cache }

// Options returns the server's base checker configuration. Embedders
// that submit on behalf of clients (the sweep service) start from it so
// their jobs hash into the same cache entries as direct submissions.
func (s *Server) Options() checker.Options { return s.cfg.Options }

// ModelCacheStats reports compiled-module reuse across jobs: artifact
// store hits (modules served without compiling) and misses (modules
// compiled and stored). Granularity changed in PR10 from whole programs
// to modules — a design now accounts one entry per library, component,
// program, and connector module.
func (s *Server) ModelCacheStats() (hits, misses int) {
	st := s.artifacts.Stats()
	return int(st.Hits), int(st.Misses)
}

// Tracer returns the server's flight recorder (nil when tracing is
// disabled). Embedders like the sweep service record their own spans
// into it so one trace spans sweep and jobs.
func (s *Server) Tracer() *tracing.Recorder { return s.tracer }

// Logger returns the server's structured logger (never nil; a discard
// logger when none was configured).
func (s *Server) Logger() *slog.Logger { return s.log }

// Submit parses and composes src (resolving component references against
// inline components first, then the configured resolver), queues the
// verification, and returns the job. Composition errors surface
// immediately — with ADL line/column positions — rather than from
// inside the queue. A positive timeout overrides the server's
// JobTimeout for this job; the clock starts when a worker picks the
// job up, not while it waits in the queue.
func (s *Server) Submit(src string, components map[string]string, opts checker.Options, timeout time.Duration) (*Job, error) {
	return s.SubmitContext(context.Background(), src, components, opts, timeout)
}

// SubmitContext is Submit with trace propagation: if ctx carries a span
// or an extracted traceparent, the job's spans join that trace; the job
// otherwise roots a fresh one. ctx is used only for trace parenting —
// job cancellation stays governed by the timeout, so a caller
// disconnecting cannot kill a queued job another client is awaiting.
func (s *Server) SubmitContext(ctx context.Context, src string, components map[string]string, opts checker.Options, timeout time.Duration) (*Job, error) {
	return s.submitKeyed(ctx, src, components, opts, timeout, nil, nil)
}

// submitKeyed is SubmitContext carrying an optional submission key and,
// for HTTP submissions on a durable server, the wire request to
// journal; the key must be attached before the job is queued, because a
// cache-served job can complete within microseconds of the queue send.
func (s *Server) submitKeyed(ctx context.Context, src string, components map[string]string, opts checker.Options, timeout time.Duration, subKey *CacheKey, wire *api.JobRequest) (*Job, error) {
	jctx, jspan := s.tracer.StartSpan(ctx, "job")
	resolve := s.resolver(components)
	_, cspan := s.tracer.StartSpan(jctx, "compose")
	sys, err := adl.Load(src, resolve, s.artifacts)
	cspan.End()
	if err != nil {
		s.mRejected.Inc()
		jspan.SetAttr("error", err.Error())
		jspan.End()
		return nil, err
	}
	jspan.SetAttr("system", sys.Name)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.mRejected.Inc()
		jspan.SetAttr("error", ErrDraining.Error())
		jspan.End()
		return nil, ErrDraining
	}
	s.nextID++
	job := &Job{
		Job: api.Job{
			ID:        fmt.Sprintf("job-%d", s.nextID),
			State:     api.JobQueued,
			Submitted: time.Now(),
			Attempt:   1,

			Modules:         sys.Modules,
			ModulesTotal:    len(sys.Modules),
			ModulesReused:   sys.ModulesReused,
			ModulesCompiled: sys.ModulesCompiled,
		},
		sys:     sys,
		opts:    opts,
		timeout: timeout,
		done:    make(chan struct{}),
		seq:     s.nextID,
		subKey:  subKey,
		tctx:    jctx,
		span:    jspan,
	}
	if wire != nil {
		job.Attempt = max(wire.Attempt, 1)
		if wire.ResumeFrom != "" {
			job.resumeFrom = wire.ResumeFrom
			job.ResumedFrom = wire.ResumeFrom
		}
		if s.journal != nil {
			job.jreq = wire
		}
	}
	if jspan != nil {
		job.TraceID = jspan.TraceID().String()
		jspan.SetAttr("job_id", job.ID)
	}
	_, job.qspan = s.tracer.StartSpan(jctx, "queue")
	s.jobs[job.ID] = job
	// Registered under the same lock as the closed check, so Shutdown's
	// drain wait observes every accepted job.
	s.jobsWG.Add(1)
	s.mu.Unlock()

	// The accepted record is durable before the job is queued (and so
	// before the caller's 202): an acknowledged submission survives
	// kill -9 from this point on.
	if s.journal != nil && job.jreq != nil {
		s.appendJournal(journalRecord{
			Type: recAccepted, ID: job.ID, Seq: job.seq, Time: job.Submitted,
			Key: subKeyHex(job), Req: job.jreq, Attempt: job.Attempt,
		})
	}

	s.cModReused.Add(int64(job.ModulesReused))
	s.cModCompiled.Add(int64(job.ModulesCompiled))
	s.log.Info("job submitted", "job_id", job.ID, "system", sys.Name, "trace_id", job.TraceID,
		"modules_reused", job.ModulesReused, "modules_compiled", job.ModulesCompiled)
	s.mSubmitted.Inc()
	s.mQueued.Add(1)
	s.queue <- job
	return job, nil
}

// ErrDraining is returned for submissions after Shutdown has begun.
var ErrDraining = errors.New("verifyd: server is draining")

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Wait blocks until the job finishes or ctx is done.
func (s *Server) Wait(ctx context.Context, job *Job) error {
	select {
	case <-job.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Shutdown drains the server: new submissions are rejected, queued and
// running jobs finish (subject to ctx), and workers exit. It returns
// ctx.Err() if the context expires first; the drain then continues in
// the background.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	finished := make(chan struct{})
	go func() {
		// All accepted jobs first — including one whose Submit is still
		// blocked on a full queue — then the workers, who only see stop
		// once the queue is provably empty.
		s.jobsWG.Wait()
		s.stopOnce.Do(func() { close(s.stop) })
		s.wg.Wait()
		if s.journal != nil {
			s.journal.close()
		}
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case job := <-s.queue:
			s.mQueued.Add(-1)
			s.mRunning.Add(1)
			// Queue wait is submission to pickup — the latency PR2's
			// timeout fix deliberately excludes from the search clock,
			// invisible until now.
			s.hWait.Observe(time.Since(job.Submitted).Seconds())
			job.qspan.End()
			s.run(job)
			s.mRunning.Add(-1)
			s.mCompleted.Inc()
			s.jobsWG.Done()
		}
	}
}

// run executes (or cache-serves) every property of one job.
func (s *Server) run(job *Job) {
	s.setState(job, api.JobRunning)
	s.log.Info("job running", "job_id", job.ID, "trace_id", job.TraceID)
	// Whole-report fast path: an identical submission already completed
	// here (possibly in a previous process — replay rebuilds this cache
	// from the journal), so serve it without composing a search.
	if job.subKey != nil {
		if cached, ok := s.reports.Get(*job.subKey); ok {
			rep := new(api.Report)
			*rep = *cached
			rep.Properties = append([]api.PropertyVerdict(nil), cached.Properties...)
			for i := range rep.Properties {
				rep.Properties[i].Cached = true
			}
			s.finishJob(job, rep, len(rep.Properties), 0)
			return
		}
	}
	if s.journal != nil && job.jreq != nil {
		s.appendJournal(journalRecord{
			Type: recStarted, ID: job.ID, Seq: job.seq, Time: time.Now(), Attempt: job.Attempt,
		})
	}
	sys := job.sys
	mh := ModelHash(sys.Builder)

	opts := job.opts
	opts.Metrics = s.reg
	opts.Tracer = s.tracer

	// Claim search workers for the whole job: up to the requested count
	// (0 = all that are idle), at least one. The grant is the job's
	// checker.Options.Workers, so one big job on an idle server runs its
	// safety searches on every budgeted core.
	granted := s.budget.acquire(opts.Workers)
	defer s.budget.release(granted)
	opts.Workers = granted
	s.mu.Lock()
	job.Workers = granted
	s.mu.Unlock()

	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	// The clock starts here, not at submission, so time spent queued
	// never counts against the search budget. A per-job timeout
	// overrides the server default.
	timeout := s.cfg.JobTimeout
	if job.timeout > 0 {
		timeout = job.timeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// The run span parents to the job span (via job.tctx) but lives on
	// the cancellation context, so checker phases nest under it and stop
	// with it.
	_, rspan := s.tracer.StartSpan(job.tctx, "run")
	if rspan != nil {
		rspan.SetAttr("workers", strconv.Itoa(granted))
		ctx = tracing.ContextWithSpan(ctx, rspan)
	}
	opts.Context = ctx

	m := sys.Builder.System()
	procs := make([]string, 0, m.NumInstances())
	for _, in := range m.Instances() {
		procs = append(procs, in.Name)
	}

	rep := &api.Report{
		System:    sys.Name,
		Processes: m.NumInstances(),
		Channels:  m.NumChannels(),
		OK:        true,
	}
	fc := sys.Faults.Canonical()
	hits, misses := 0, 0
	for _, ps := range sys.Sources {
		key := Key(mh, ps, opts, fc)
		if v, ok := s.cache.Get(key); ok {
			v.Cached = true
			rep.Properties = append(rep.Properties, v)
			hits++
			rspan.AddEvent("cache-hit", tracing.A("property", ps.Name))
			if !v.OK {
				rep.OK = false
				rep.Failed++
			}
			continue
		}
		misses++
		popts := opts
		if ck := s.checkpointFor(job, ps); ck != nil {
			if job.resumeFrom != "" {
				s.fetchCheckpoint(ctx, job.resumeFrom, ck.Key)
			}
			popts.Durability = ck
		}
		pctx, pspan := s.tracer.StartSpan(ctx, "property:"+ps.Name, tracing.A("kind", ps.Kind))
		popts.Context = pctx
		res := sys.Check(ps, popts)
		v := NewPropertyVerdict(ps.Name, ps.Kind, res, procs)
		pspan.SetAttr("verdict", v.Verdict)
		pspan.End()
		// Truncated searches (limits, timeouts, cancellation) are not
		// verdicts about the model and must never be served as such.
		if !res.Stats.Truncated && res.Kind != checker.Canceled {
			s.cache.Put(key, v)
		}
		rep.Properties = append(rep.Properties, v)
		if !v.OK {
			rep.OK = false
			rep.Failed++
		}
	}
	if rspan != nil {
		rspan.SetAttr("cache_hits", strconv.Itoa(hits))
		rspan.SetAttr("cache_misses", strconv.Itoa(misses))
		rspan.End()
	}

	s.finishJob(job, rep, hits, misses)
}

// finishJob publishes a job's report: report cache, job table (with
// FIFO eviction of old completed jobs), journal (a self-contained
// completed record, making every earlier record of this job dead weight
// for compaction), span, and done signal.
func (s *Server) finishJob(job *Job, rep *api.Report, hits, misses int) {
	if job.subKey != nil && Cacheable(rep) {
		s.reports.Put(*job.subKey, rep)
	}
	journaled := s.journal != nil && job.jreq != nil
	s.mu.Lock()
	job.Report = rep
	job.CacheHits = hits
	job.CacheMisses = misses
	job.State = api.JobDone
	// The composed system (and any per-job options) are dead weight once
	// the report is published; drop them so retained jobs cost only
	// their report.
	job.sys = nil
	job.opts = checker.Options{}
	job.jreq = nil
	s.doneIDs = append(s.doneIDs, job.ID)
	for len(s.doneIDs) > s.cfg.RetainJobs {
		delete(s.jobs, s.doneIDs[0])
		s.doneIDs = s.doneIDs[1:]
	}
	s.mu.Unlock()
	if journaled {
		s.appendJournal(journalRecord{
			Type: recCompleted, ID: job.ID, Seq: job.seq, Time: time.Now(),
			Key: subKeyHex(job), Report: rep, Attempt: job.Attempt,
			CacheHits: hits, CacheMisses: misses,
			Modules:       job.Modules,
			ModulesReused: job.ModulesReused, ModulesCompiled: job.ModulesCompiled,
		})
		if s.journal.overLimit() {
			if err := s.journal.compact(s.journalLive); err != nil {
				s.log.Error("journal compaction failed", "err", err.Error())
			}
		}
	}
	if job.span != nil {
		job.span.SetAttr("ok", strconv.FormatBool(rep.OK))
		job.span.End()
	}
	s.log.Info("job done", "job_id", job.ID, "trace_id", job.TraceID,
		"ok", rep.OK, "failed", rep.Failed, "cache_hits", hits, "cache_misses", misses,
		"elapsed", time.Since(job.Submitted).Round(time.Millisecond).String())
	close(job.done)
}

// checkpointFor builds one property's checkpoint options on a durable
// server (nil on a memory-only one, or for jobs without a submission
// key). The checkpoint key is the submission content address suffixed
// per property (adl.PropertySource.CheckpointKey), so a resumed attempt — locally after a restart, or on
// a cluster replica that fetched the file — finds exactly its own
// frontier. Commits are paced by the disk (Interval 0). One checkpoint
// journal record is written per property per attempt (the file path
// never changes, so later commits add nothing).
func (s *Server) checkpointFor(job *Job, ps adl.PropertySource) *checker.DurabilityOptions {
	if s.ckptDir == "" || job.subKey == nil {
		return nil
	}
	key := ps.CheckpointKey(job.subKey.String())
	var once sync.Once
	return &checker.DurabilityOptions{
		Dir:    s.ckptDir,
		Key:    key,
		Resume: true,
		OnWrite: func(file string, depth, states int) {
			once.Do(func() {
				// Depth doubles as the resume proof: a search resumed from
				// a checkpoint commits at its first barrier, one level past
				// the restored depth; a fresh one at depth 1.
				s.appendJournal(journalRecord{
					Type: recCheckpoint, ID: job.ID, Seq: job.seq, Time: time.Now(),
					Key: key, File: filepath.Base(file), Depth: depth, Attempt: job.Attempt,
				})
			})
		},
	}
}

// fetchCheckpoint pulls a search checkpoint log from a peer worker's
// GET /v1/checkpoints/{key} into this server's checkpoint dir, so a
// re-driven attempt continues the previous node's search instead of
// restarting from state zero. Every failure path (peer already dead —
// the common cause of the re-drive — no checkpoint, bad local write)
// degrades to a fresh search; resume is an optimization, never a
// correctness dependency.
func (s *Server) fetchCheckpoint(ctx context.Context, base, key string) {
	fctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	u := strings.TrimRight(base, "/") + "/v1/checkpoints/" + url.PathEscape(key)
	req, err := http.NewRequestWithContext(fctx, http.MethodGet, u, nil)
	if err != nil {
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		s.log.Info("checkpoint fetch failed; searching from scratch",
			"peer", base, "key", key, "err", err.Error())
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.log.Info("peer has no checkpoint; searching from scratch",
			"peer", base, "key", key, "status", strconv.Itoa(resp.StatusCode))
		return
	}
	dst := filepath.Join(s.ckptDir, checker.CheckpointFileName(key))
	tmp := dst + ".fetch"
	f, err := os.Create(tmp)
	if err != nil {
		return
	}
	if _, err = io.Copy(f, resp.Body); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, dst)
	}
	if err != nil {
		os.Remove(tmp)
		s.log.Info("checkpoint fetch failed; searching from scratch",
			"peer", base, "key", key, "err", err.Error())
		return
	}
	s.cCkptFetch.Add(1)
	s.log.Info("checkpoint fetched from peer", "peer", base, "key", key)
}

func (s *Server) setState(job *Job, st string) {
	s.mu.Lock()
	job.State = st
	s.mu.Unlock()
}

// snapshotJob copies a job's document under the lock so handlers never
// race with run(). The modules slice is written once at compose time and
// never mutated, so sharing it across snapshots is race-free.
func (s *Server) snapshotJob(job *Job) api.Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return job.Job
}

// Snapshot returns a race-free copy of a job's document. The sweep
// engine and other in-process embedders read results through it instead
// of touching the live job.
func (s *Server) Snapshot(job *Job) api.Job { return s.snapshotJob(job) }
