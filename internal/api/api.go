// Package api declares every JSON document of the verification
// service's v1 HTTP API (docs/API.md), once. The server packages
// (verifyd, sweep, cluster, artifact) build these documents, the typed
// client decodes them, and the CLIs print them, so the two sides of the
// wire cannot drift apart: a field exists for both or for neither.
//
// The package holds data types only and imports nothing but the
// standard library, so a consumer of the API can depend on it without
// pulling in the checker or the server. Logic that needs server state
// stays with the server.
package api

import "time"

// Job lifecycle states, the values of Job.State.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
)

// Job is the job resource of POST /v1/jobs, GET /v1/jobs/{id} and its
// /wait. A single pnpd fills the fields up to ModulesCompiled; a cluster
// coordinator adds the placement fields after them.
type Job struct {
	ID        string    `json:"id"`
	State     string    `json:"state"`
	Submitted time.Time `json:"submitted"`
	// Report is present once State is "done".
	Report *Report `json:"report,omitempty"`
	// CacheHits counts properties served from the result cache;
	// CacheMisses counts properties actually searched.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// Workers is the number of search workers granted from the server's
	// search budget while the job ran (0 until it starts).
	Workers int `json:"workers,omitempty"`
	// TraceID is the hex trace the job records spans into (empty when
	// the server runs without a tracer); GET /v1/jobs/{id}/trace streams
	// them.
	TraceID string `json:"trace_id,omitempty"`
	// Attempt counts executions across crashes and failovers (1 for a
	// fresh run); ResumedFrom records where this attempt's search
	// checkpoints came from — a peer node's base URL (cluster re-drive)
	// or "journal" (restart recovery). Both zero on an undisturbed job.
	Attempt     int    `json:"attempt,omitempty"`
	ResumedFrom string `json:"resumed_from,omitempty"`
	// Modules is the submission's module DAG in compilation order —
	// block library, component files, linked program, connectors — with
	// per-module content addresses and reuse flags; the counters
	// summarize it. The slice is immutable once set.
	Modules         []ModuleInfo `json:"modules,omitempty"`
	ModulesTotal    int          `json:"modules_total,omitempty"`
	ModulesReused   int          `json:"modules_reused,omitempty"`
	ModulesCompiled int          `json:"modules_compiled,omitempty"`

	// Node names the worker that served the job ("coordinator" for a
	// cluster-cache answer, which also sets ClusterCached); RemoteID is
	// the job's id on that worker; Failovers counts re-placements; Err
	// reports a job no node would run.
	Node          string `json:"node,omitempty"`
	RemoteID      string `json:"remote_id,omitempty"`
	Failovers     int    `json:"failovers,omitempty"`
	ClusterCached bool   `json:"cluster_cached,omitempty"`
	Err           string `json:"err,omitempty"`
}

// JobRequest is the JSON submission envelope of POST /v1/jobs. A body
// that is not a JSON object is bare ADL source with no overrides.
type JobRequest struct {
	ADL string `json:"adl"`
	// Components maps referenced component paths to inline pml source.
	Components map[string]string `json:"components,omitempty"`
	// Search-shape overrides; nil fields keep the server's defaults.
	// BFS is accepted and ignored (every safety search is breadth-first)
	// but still part of the submission key, so routing and journal keys
	// of existing clients do not move.
	MaxStates      *int  `json:"max_states,omitempty"`
	MaxDepth       *int  `json:"max_depth,omitempty"`
	BFS            *bool `json:"bfs,omitempty"`
	IgnoreDeadlock *bool `json:"ignore_deadlock,omitempty"`
	PartialOrder   *bool `json:"partial_order,omitempty"`
	WeakFairness   *bool `json:"weak_fairness,omitempty"`
	StrongFairness *bool `json:"strong_fairness,omitempty"`
	// Workers caps the search workers granted to this job from the
	// server's search budget (0 or absent = as many as are idle).
	Workers *int `json:"workers,omitempty"`
	// Visited ("exact" or "collapse") and MemLimitBytes tune the
	// server's visited-set storage. They change memory footprint, never
	// the verdict, so they do not enter the submission's content
	// address. There is deliberately no spill-dir field: clients must
	// not control server filesystem paths.
	Visited       *string `json:"visited,omitempty"`
	MemLimitBytes *int64  `json:"mem_limit_bytes,omitempty"`
	// TimeoutMS overrides the server's per-job timeout (0 keeps it).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Attempt and ResumeFrom are the resume token a cluster coordinator
	// attaches when re-placing a job after a worker died mid-run: the
	// replica fetches the dead node's search checkpoint (GET
	// /v1/checkpoints/{key}) and continues instead of re-exploring.
	// Neither enters the submission's content address — they change
	// where a verdict is computed, never what it is.
	Attempt    int    `json:"attempt,omitempty"`
	ResumeFrom string `json:"resume_from,omitempty"`
}

// Report is the verdict document for one verified system: the job
// resource's report and what pnpverify --json prints.
type Report struct {
	System     string            `json:"system"`
	Processes  int               `json:"processes"`
	Channels   int               `json:"channels"`
	OK         bool              `json:"ok"`
	Failed     int               `json:"failed"`
	Properties []PropertyVerdict `json:"properties"`
}

// PropertyVerdict is the verdict for one property of one system, the
// unit the server's result cache stores.
type PropertyVerdict struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"` // "invariant", "goal", or "ltl"
	OK      bool   `json:"ok"`
	Verdict string `json:"verdict"` // "verified" or the violation kind
	Message string `json:"message,omitempty"`
	Summary string `json:"summary"`

	States      int     `json:"states"`
	Matched     int     `json:"matched"`
	Transitions int     `json:"transitions"`
	Depth       int     `json:"depth"`
	Reduced     int     `json:"reduced,omitempty"`
	Truncated   bool    `json:"truncated,omitempty"`
	ElapsedMS   float64 `json:"elapsed_ms"`

	// Counterexample is the violating trace listing; MSC renders the
	// same trace as a message sequence chart over the system's
	// processes. Both are empty for verified properties.
	Counterexample string   `json:"counterexample,omitempty"`
	MSC            string   `json:"msc,omitempty"`
	Unreached      []string `json:"unreached,omitempty"`

	// Cached is true when this verdict was served from the result cache
	// without running the checker.
	Cached bool `json:"cached"`
}

// JobSummary is a single pnpd's GET /v1/jobs list element: the job
// without its (potentially large) report. A coordinator lists job
// documents without reports instead, which decode into this type too.
type JobSummary struct {
	ID          string    `json:"id"`
	State       string    `json:"state"`
	Submitted   time.Time `json:"submitted"`
	CacheHits   int       `json:"cache_hits"`
	CacheMisses int       `json:"cache_misses"`
	Workers     int       `json:"workers,omitempty"`
	TraceID     string    `json:"trace_id,omitempty"`
	// OK is present once the job is done.
	OK *bool `json:"ok,omitempty"`
}

// JobList is one page of GET /v1/jobs.
type JobList struct {
	Jobs       []JobSummary `json:"jobs"`
	NextCursor string       `json:"next_cursor,omitempty"`
}

// ModuleInfo is one entry of a job's module DAG: the module's content
// address, its kind ("library", "component", "program", "connector"),
// the fingerprints it was compiled against, and whether composition
// found it already in the artifact store (true) or compiled it.
type ModuleInfo struct {
	Hash   string   `json:"hash"`
	Kind   string   `json:"kind"`
	Name   string   `json:"name,omitempty"`
	Deps   []string `json:"deps,omitempty"`
	Reused bool     `json:"reused,omitempty"`
}

// Artifact is the GET /v1/artifacts/{hash} hit body and the on-disk
// envelope of a stored module: its identity plus the canonical source
// the fingerprint covers. Deterministic compilation makes the source a
// complete serialization of the compiled module.
type Artifact struct {
	Hash   string   `json:"hash"`
	Kind   string   `json:"kind"`
	Name   string   `json:"name,omitempty"`
	Deps   []string `json:"deps,omitempty"`
	Source string   `json:"source"`
}

// Health is a single pnpd's GET /healthz body: liveness plus enough
// identity and load detail for a coordinator (or a human) to tell nodes
// apart — build version, worker-pool shape, search-budget occupancy,
// cache sizes.
type Health struct {
	Status             string `json:"status"`
	Version            string `json:"version"`
	Workers            int    `json:"workers"`
	SearchBudget       int    `json:"search_budget"`
	SearchWorkersInUse int    `json:"search_workers_in_use"`
	ResultCacheEntries int    `json:"result_cache_entries"`
	ReportCacheEntries int    `json:"report_cache_entries"`
	Jobs               int    `json:"jobs"`
	// Durable reports whether the node journals jobs to a data dir and
	// so survives kill -9 without losing accepted work.
	Durable  bool `json:"durable,omitempty"`
	Draining bool `json:"draining,omitempty"`
}

// CachedReport is the GET /v1/cache/{key} hit body: the submission key
// echoed back plus the completed report it addresses. A coordinator
// adds the node that produced the report.
type CachedReport struct {
	Key    string  `json:"key"`
	Node   string  `json:"node,omitempty"`
	Report *Report `json:"report"`
}

// ErrorInfo is the body of the uniform v1 error envelope. Line and Col
// appear only on ADL parse and composition errors.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Line    int    `json:"line,omitempty"`
	Col     int    `json:"col,omitempty"`
}

// ErrorBody is the uniform v1 error envelope every failing route
// answers with: {"error": {"code", "message", "line", "col"}}.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}
