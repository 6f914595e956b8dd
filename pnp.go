// Package pnp is a Go implementation of the Plug-and-Play architectural
// design and verification approach (Wang, Avrunin, Clarke — "Plug-and-Play
// Architectural Design and Verification").
//
// Connectors between components are composed from a library of reusable
// building blocks — send ports, receive ports, and channels — and can be
// swapped without touching component code, because components speak only
// the standard interfaces (send a message, await its SendStatus; request a
// message, await its RecvStatus). Every block ships with a pre-built
// formal model, so a composed design is immediately verifiable with the
// bundled explicit-state model checker (safety invariants, deadlocks,
// assertions, and LTL), and the same composition runs on goroutines via
// the runtime.
//
// Typical flow:
//
//	d := pnp.NewDesign("pipeline", componentModels)
//	d.AddConnector("Wire", pnp.ConnectorSpec{
//	    Send:    pnp.AsynBlockingSend,
//	    Channel: pnp.FIFOQueue, Size: 4,
//	    Recv:    pnp.BlockingRecv,
//	})
//	d.AddInstance("prod", "Producer", 1, pnp.SendTo("Wire"), pnp.IntArg(3))
//	d.AddInstance("cons", "Consumer", 1, pnp.RecvFrom("Wire"), pnp.IntArg(3))
//	d.AddInvariant("nothing-lost", "got <= sent")
//	results, err := d.Verify(nil, pnp.CheckOptions{})
//	// a violation? plug a different block and re-verify:
//	d2, _ := d.WithSendPort("Wire", pnp.SynBlockingSend)
//
// The subpackages can also be used directly: internal/pml (the Promela
// subset), internal/model (formal semantics), internal/checker (the
// verifier), internal/ltl (LTL-to-Büchi), internal/blocks (the block
// library and model composition), internal/pnprt (the executable runtime),
// internal/adl (the textual architecture description language), and
// internal/bridge (the paper's single-lane bridge case study).
package pnp

import (
	"context"
	"io"
	"net/http"

	"pnp/internal/adl"
	"pnp/internal/api"
	"pnp/internal/blocks"
	"pnp/internal/checker"
	"pnp/internal/cluster"
	"pnp/internal/core"
	"pnp/internal/faults"
	"pnp/internal/obs"
	"pnp/internal/obs/tracing"
	"pnp/internal/pnprt"
	"pnp/internal/sweep"
	"pnp/internal/trace"
	"pnp/internal/verifyd"
	"pnp/internal/verifyd/client"
)

// Design-level API.
type (
	// Design is a declarative Plug-and-Play system design.
	Design = core.Design
	// ConnectorSpec composes a connector from a send port, a channel, and
	// a receive port.
	ConnectorSpec = blocks.ConnectorSpec
	// SendPortKind selects a send-port building block.
	SendPortKind = blocks.SendPortKind
	// RecvPortKind selects a receive-port building block.
	RecvPortKind = blocks.RecvPortKind
	// ChannelKind selects a channel building block.
	ChannelKind = blocks.ChannelKind
	// InstanceArg is an argument of a component instance.
	InstanceArg = core.InstanceArg
	// BlockInfo describes one catalog entry.
	BlockInfo = core.BlockInfo
	// ModelCache memoizes compiled block and component models across
	// verification runs.
	ModelCache = blocks.Cache
)

// Send port kinds (the paper's Figure 1 catalog).
const (
	AsynNonblockingSend = blocks.AsynNonblockingSend
	AsynBlockingSend    = blocks.AsynBlockingSend
	AsynCheckingSend    = blocks.AsynCheckingSend
	SynBlockingSend     = blocks.SynBlockingSend
	SynCheckingSend     = blocks.SynCheckingSend
)

// Receive port kinds.
const (
	BlockingRecv    = blocks.BlockingRecv
	NonblockingRecv = blocks.NonblockingRecv
)

// Channel kinds.
const (
	SingleSlot     = blocks.SingleSlot
	FIFOQueue      = blocks.FIFOQueue
	PriorityQueue  = blocks.PriorityQueue
	DroppingBuffer = blocks.DroppingBuffer
	// LossyBuffer is the unreliable-medium adversary: any message may be
	// dropped or (given buffer room) duplicated in transit.
	LossyBuffer = blocks.LossyBuffer
)

// NewDesign creates an empty design over pml component models.
func NewDesign(name, componentSource string) *Design {
	return core.NewDesign(name, componentSource)
}

// NewCache creates a model cache for reuse across verification runs.
func NewCache() *ModelCache { return blocks.NewCache() }

// Catalog lists the building-block library.
func Catalog() []BlockInfo { return core.Catalog() }

// IntArg passes an integer parameter to a component instance.
func IntArg(v int64) InstanceArg { return core.IntArg(v) }

// SendTo attaches an instance as a sender on a connector.
func SendTo(conn string) InstanceArg { return core.SendTo(conn) }

// RecvFrom attaches an instance as a receiver on a connector.
func RecvFrom(conn string) InstanceArg { return core.RecvFrom(conn) }

// Verification API.
type (
	// CheckOptions configures verification runs.
	CheckOptions = checker.Options
	// CheckResult is a verification outcome with statistics and, on
	// failure, a counterexample trace.
	CheckResult = checker.Result
	// VerifyResults maps property names to outcomes.
	VerifyResults = core.VerifyResults
)

// Runtime API: the same blocks as executable goroutine assemblies.
type (
	// Connector is an executable connector.
	Connector = pnprt.Connector
	// Message is an application message.
	Message = pnprt.Message
	// RecvRequest is a receive request (selective / copy flags).
	RecvRequest = pnprt.RecvRequest
	// Status is a SendStatus or RecvStatus.
	Status = pnprt.Status
	// Sender is the component-side sending interface.
	Sender = pnprt.Sender
	// Receiver is the component-side receiving interface.
	Receiver = pnprt.Receiver
	// PubSub is the publish/subscribe connector extension.
	PubSub = pnprt.PubSub
	// RPC is the remote-procedure-call connector extension.
	RPC = pnprt.RPC
	// RuntimeSystem groups executable connectors under one lifecycle.
	RuntimeSystem = pnprt.System
	// ConnectorOption configures an executable connector (WithMetrics,
	// WithTrace, WithFaults).
	ConnectorOption = pnprt.Option
)

// Statuses.
const (
	SendSucc = pnprt.SendSucc
	SendFail = pnprt.SendFail
	RecvSucc = pnprt.RecvSucc
	RecvFail = pnprt.RecvFail
)

// NewConnector builds an executable connector from a spec.
func NewConnector(name string, spec ConnectorSpec, opts ...pnprt.Option) (*Connector, error) {
	return pnprt.NewConnector(name, spec, opts...)
}

// NewPubSub builds a publish/subscribe connector.
func NewPubSub(name string, queueSize int, opts ...pnprt.PubSubOption) (*PubSub, error) {
	return pnprt.NewPubSub(name, queueSize, opts...)
}

// NewRPC builds an RPC connector from two message-passing connectors.
func NewRPC(name string, queueSize int, opts ...pnprt.Option) (*RPC, error) {
	return pnprt.NewRPC(name, queueSize, opts...)
}

// NewRuntimeSystem creates an empty runtime system.
func NewRuntimeSystem(name string) *RuntimeSystem { return pnprt.NewSystem(name) }

// Fault-injection and supervision API: deterministic seeded fault plans
// applied to running connectors, and supervised component goroutines
// with restart policies.
type (
	// FaultPlan is a seeded, deterministic fault-injection plan; the same
	// plan and workload reproduce the same fault sequence.
	FaultPlan = faults.Plan
	// FaultRule is one injection rule of a plan.
	FaultRule = faults.Rule
	// FaultKind selects what a rule injects.
	FaultKind = faults.Kind
	// Supervisor runs one component function, restarting it per policy
	// when it fails or panics.
	Supervisor = pnprt.Supervisor
	// RestartPolicy bounds and paces a supervisor's restarts.
	RestartPolicy = pnprt.RestartPolicy
	// RestartMode selects a restart discipline.
	RestartMode = pnprt.RestartMode
	// SupervisedFunc is a component body run under a Supervisor.
	SupervisedFunc = pnprt.SupervisedFunc
)

// Fault kinds.
const (
	FaultDrop      = faults.Drop
	FaultDuplicate = faults.Duplicate
	FaultDelay     = faults.Delay
	FaultStall     = faults.Stall
	FaultCrash     = faults.Crash
)

// Restart modes.
const (
	RestartNever     = pnprt.RestartNever
	RestartImmediate = pnprt.RestartImmediate
	RestartBackoff   = pnprt.RestartBackoff
)

// WithFaults applies a fault plan's matching rules to an executable
// connector's channel.
func WithFaults(plan *FaultPlan) pnprt.Option { return pnprt.WithFaults(plan) }

// NewSupervisor wraps fn in a supervisor named name.
func NewSupervisor(name string, fn SupervisedFunc, policy RestartPolicy, opts ...pnprt.SupervisorOption) *Supervisor {
	return pnprt.NewSupervisor(name, fn, policy, opts...)
}

// SupervisorMetrics publishes restart counters to the registry.
func SupervisorMetrics(reg *MetricsRegistry) pnprt.SupervisorOption {
	return pnprt.SupervisorMetrics(reg)
}

// SupervisorFaults subjects the supervised component to the plan's
// crash rules.
func SupervisorFaults(plan *FaultPlan) pnprt.SupervisorOption {
	return pnprt.SupervisorFaults(plan)
}

// Observability API: metrics, live verification progress, and runtime
// event taps.
type (
	// MetricsRegistry collects counters, gauges, and histograms from
	// verification runs (CheckOptions.Metrics) and running connectors
	// (WithMetrics); expose it as Prometheus text, JSON, expvar, or over
	// HTTP with ServeMetrics.
	MetricsRegistry = obs.Registry
	// MetricsServer is a running HTTP exposition endpoint.
	MetricsServer = obs.Server
	// CheckProgress is one live snapshot of a running verification,
	// delivered to CheckOptions.Progress.
	CheckProgress = checker.Progress
	// LiveTrace is a bounded window of runtime protocol events,
	// renderable at any time as a listing or an ASCII MSC.
	LiveTrace = trace.Live
	// RuntimeEvent is one protocol-level occurrence in a running
	// connector (IN_OK, SEND_SUCC, ...).
	RuntimeEvent = pnprt.Event
	// TraceFunc observes runtime protocol events.
	TraceFunc = pnprt.TraceFunc
)

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricsMount attaches an extra handler to a ServeMetrics mux (e.g. a
// TraceRecorder's Handler on /debug/trace).
type MetricsMount = obs.Mount

// ServeMetrics exposes the registry on addr (/metrics, /metrics.json,
// /healthz, plus any extra mounts) until the returned server is closed.
func ServeMetrics(r *MetricsRegistry, addr string, mounts ...MetricsMount) (*MetricsServer, error) {
	return obs.Serve(r, addr, mounts...)
}

// MetricLabels builds a labeled metric name: MetricLabels("x_total",
// "conn", "pipe") -> `x_total{conn="pipe"}`.
func MetricLabels(name string, kv ...string) string { return obs.Labels(name, kv...) }

// WithMetrics instruments an executable connector's ports and channel
// against the registry.
func WithMetrics(reg *MetricsRegistry) pnprt.Option { return pnprt.WithMetrics(reg) }

// WithTrace installs a protocol-event observer on an executable
// connector.
func WithTrace(fn TraceFunc) pnprt.Option { return pnprt.WithTrace(fn) }

// NewLiveTrace creates a live event window (capacity <= 0 selects the
// default).
func NewLiveTrace(capacity int) *LiveTrace { return trace.NewLive(capacity) }

// MSCTap streams a connector's protocol events into a live trace
// window, for rendering running systems as message sequence charts.
func MSCTap(live *LiveTrace) TraceFunc { return pnprt.MSCTap(live) }

// Tracing API: lightweight spans recorded into a bounded in-process
// flight recorder, exportable as NDJSON or Chrome trace_event JSON.
// CheckOptions.Tracer traces verification phases, WithSpans traces
// executable connectors, and the verification service propagates W3C
// traceparent headers so remote jobs join the caller's trace.
type (
	// TraceRecorder is a bounded ring of completed spans (the flight
	// recorder); its Handler serves /debug/trace.
	TraceRecorder = tracing.Recorder
	// TraceSpan is one in-flight span; End records it.
	TraceSpan = tracing.Span
	// TraceSpanData is one completed span as recorded and serialized.
	TraceSpanData = tracing.SpanData
)

// NewTraceRecorder creates a flight recorder holding up to capacity
// completed spans (capacity <= 0 selects the default).
func NewTraceRecorder(capacity int) *TraceRecorder { return tracing.NewRecorder(capacity) }

// WithSpans records an executable connector's lifecycle as a span with
// its protocol events attached.
func WithSpans(rec *TraceRecorder) pnprt.Option { return pnprt.WithSpans(rec) }

// WriteChromeTrace renders spans as Chrome trace_event JSON, viewable
// in chrome://tracing or Perfetto.
func WriteChromeTrace(w io.Writer, spans []TraceSpanData) error {
	return tracing.WriteChromeTrace(w, spans)
}

// ADL API.
type (
	// ADLSystem is a system loaded from the textual architecture
	// description language.
	ADLSystem = adl.System
	// ADLResolver loads component files referenced by an ADL source.
	ADLResolver = adl.Resolver
)

// LoadADL parses an architecture description and composes the system.
func LoadADL(src string, resolve ADLResolver, cache *ModelCache) (*ADLSystem, error) {
	return adl.Load(src, resolve, cache)
}

// Verification-service API: verification as a daemon with a
// content-addressed result cache (see cmd/pnpd for the CLI).
type (
	// VerifyServer runs verification jobs on a bounded worker pool,
	// serving repeat (model, property, options) submissions from its
	// result cache.
	VerifyServer = verifyd.Server
	// VerifyServerConfig parameterizes a VerifyServer.
	VerifyServerConfig = verifyd.Config
	// VerifyJob is one submitted verification task and its report.
	VerifyJob = verifyd.Job
	// VerifyReport is the complete verdict document for one system.
	VerifyReport = api.Report
	// PropertyVerdict is the JSON verdict for one property.
	PropertyVerdict = api.PropertyVerdict
	// ResultCache is a bounded LRU of content-addressed verdicts.
	ResultCache = verifyd.ResultCache
)

// NewResultCache creates a standalone content-addressed verdict cache.
func NewResultCache(maxEntries int, reg *MetricsRegistry) *ResultCache {
	return verifyd.NewResultCache(maxEntries, reg)
}

// Design-space sweep API: expand a base design and block-dimension sets
// into a cell matrix and verify every variant, deduping identical cells
// and reusing the verification service's result cache (see cmd/pnpsweep
// for the CLI).
type (
	// SweepSpec describes a sweep: a base ADL design, the connector to
	// vary, and the block sets forming the variant matrix.
	SweepSpec = sweep.Spec
	// SweepChannelVariant is one channel choice of a sweep dimension.
	SweepChannelVariant = sweep.ChannelVariant
	// SweepConfig parameterizes sweep execution (server, options,
	// metrics, streaming callback).
	SweepConfig = sweep.Config
	// SweepCell is one expanded point of the variant matrix.
	SweepCell = sweep.Cell
	// SweepCellResult is one cell's verdict and cost.
	SweepCellResult = api.SweepCell
	// SweepResult aggregates a sweep's cells with dedup and cache
	// counters; Ranked orders cells best-first.
	SweepResult = api.SweepResult
	// SweepService runs sweeps in the background of a verification
	// service and keeps them queryable — the sweep routes of the v1 API
	// are served from it.
	SweepService = sweep.Service
)

// Sweep expands spec and verifies every cell. A nil Server in cfg runs
// the sweep on a private in-process verification service.
func Sweep(ctx context.Context, spec SweepSpec, cfg SweepConfig) (*SweepResult, error) {
	return sweep.Run(ctx, spec, cfg)
}

// MatrixSweep is the paper's E12 connector-matrix experiment as a
// preset spec: every send-port x channel x receive-port composition of
// a producer/consumer system, each with its under-lossy companion.
func MatrixSweep(msgs, bufsize int) SweepSpec { return sweep.Matrix(msgs, bufsize) }

// Remote-client API: a typed client for the verification service's HTTP
// API, with retries and sweep streaming.
type (
	// Client talks to one verification service (pnpd) over HTTP.
	Client = client.Client
	// ClientOption configures a Client (retries, backoff, transport).
	ClientOption = client.Option
	// APIError is a service failure decoded from the uniform error
	// envelope.
	APIError = client.APIError
)

// NewClient builds a client for the verification service at base, e.g.
// "http://localhost:7447".
func NewClient(base string, opts ...ClientOption) *Client { return client.New(base, opts...) }

// Cluster API: a coordinator that fronts a fleet of verification
// services behind the same v1 wire contract, routing jobs and sweep
// cells over a consistent-hash ring keyed on each submission's content
// address, failing over past dead nodes, and answering repeats from a
// cluster-wide result cache (see cmd/pnpd --coordinator for the CLI
// and docs/CLUSTER.md for the design).
type (
	// Coordinator routes jobs and sweeps to a worker fleet.
	Coordinator = cluster.Coordinator
	// ClusterConfig parameterizes a Coordinator (nodes, probing,
	// failover bounds, cache size, observability).
	ClusterConfig = cluster.Config
	// ClusterInfo is a snapshot of cluster topology and node health,
	// served at GET /v1/cluster.
	ClusterInfo = cluster.ClusterInfo
	// HashRing is the consistent-hash ring the coordinator routes
	// with; usable standalone for other placement problems.
	HashRing = cluster.Ring
)

// NewHashRing builds a consistent-hash ring with the given number of
// virtual nodes per member (0 = a sensible default).
func NewHashRing(replicas int) *HashRing { return cluster.NewRing(replicas) }

// Service entry point. Serve assembles everything a pnpd process serves
// — one v1 route table and one sweep service, over a local verification
// server or a cluster coordinator — behind one handler and one ordered
// shutdown.

// ServeOptions selects and parameterizes the service Serve assembles.
// Zero value: a memory-only single-node verification service with
// sweep routes.
type ServeOptions struct {
	// Verify parameterizes the local verification server (workers,
	// cache size, durable data dir, observability). Ignored when
	// Cluster is set.
	Verify VerifyServerConfig
	// Cluster, when non-nil, runs the service as a coordinator fronting
	// Cluster.Nodes instead of verifying locally — the same v1 wire
	// surface, routed to a fleet.
	Cluster *ClusterConfig
}

// Service is a running verification service assembled by Serve: the v1
// surface over either a local verification server or a cluster
// coordinator. Mount Handler on an http.Server and call Shutdown to
// drain.
type Service struct {
	srv    *VerifyServer
	swp    *SweepService
	coord  *Coordinator
	routes []verifyd.Route
}

// Serve builds and starts the service described by opts. The returned
// Service is live immediately: its workers (or node probes) are
// running, and Handler serves the full v1 API.
func Serve(opts ServeOptions) (*Service, error) {
	if opts.Cluster != nil {
		coord, err := cluster.New(*opts.Cluster)
		if err != nil {
			return nil, err
		}
		swp := coord.Sweeps()
		return &Service{coord: coord, swp: swp, routes: verifyd.Routes(coord, swp.Routes()...)}, nil
	}
	srv, err := verifyd.OpenServer(opts.Verify)
	if err != nil {
		return nil, err
	}
	swp := sweep.NewService(sweep.Local(srv), opts.Verify.Registry)
	return &Service{srv: srv, swp: swp, routes: verifyd.Routes(srv, swp.Routes()...)}, nil
}

// Routes is the service's route table — what Handler serves, as data
// (docs/API.md is checked against it).
func (s *Service) Routes() []verifyd.Route { return s.routes }

// Handler is the service's complete HTTP API (jobs, sweeps, artifacts,
// health, metrics routes as configured).
func (s *Service) Handler() http.Handler { return verifyd.NewHandler(s.routes) }

// Shutdown drains the service: new submissions get 503 while in-flight
// work finishes (bounded by ctx), in the right order — the job queue
// first, then sweep aggregation. Callers owning an http.Server should
// close it after Shutdown returns, so clients can collect in-flight
// verdicts during the drain.
func (s *Service) Shutdown(ctx context.Context) error {
	if s.coord != nil {
		return s.coord.Shutdown(ctx)
	}
	if err := s.srv.Shutdown(ctx); err != nil {
		return err
	}
	s.swp.Wait()
	return nil
}

// VerifyServer returns the underlying verification server, nil in
// coordinator mode.
func (s *Service) VerifyServer() *VerifyServer { return s.srv }

// SweepService returns the sweep service. Both modes have one — the
// same engine, running cells on the local server or on the fleet.
func (s *Service) SweepService() *SweepService { return s.swp }

// Coordinator returns the cluster coordinator, nil in single-node mode.
func (s *Service) Coordinator() *Coordinator { return s.coord }
