package api

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// The wire bytes of every v1 document, pinned from the server-side
// declarations these types replaced: each document is built from fixed
// values with every field set and must marshal byte for byte as the
// server encoded it before. A field renamed, reordered, retagged or
// dropped fails here before any client notices.
const (
	summaryJSON = `{"id":"job-7","state":"done","submitted":"2026-01-02T03:04:05.000006Z","cache_hits":2,"cache_misses":3,"workers":4,"trace_id":"0123456789abcdef0123456789abcdef","ok":true}`
	moduleJSON  = `{"hash":"aa11","kind":"connector","name":"pipe","deps":["bb22"],"reused":true}`
	verdictJSON = `{"name":"safety","kind":"invariant","ok":true,"verdict":"deadlock","message":"invalid end state","summary":"deadlock after 3 steps","states":101,"matched":202,"transitions":303,"depth":4,"reduced":5,"truncated":true,"elapsed_ms":1.5,"counterexample":"1: p -\u003e c","msc":"p | c","unreached":["x.pml:3"],"cached":true}`
	reportJSON  = `{"system":"bridge","processes":7,"channels":9,"ok":true,"failed":1,"properties":[` + verdictJSON + `]}`
	cellJSON    = `{"index":1,"connector":"SynBlSendPort--FifoChannel(2)--BlRecvPort","send":"syn-blocking","channel":"fifo","size":2,"recv":"blocking","faults":"seed 1","companion":true,"primary":0,"verdict":"deadlock","ok":true,"states":101,"properties":[` + verdictJSON + `],"cache_hits":2,"cache_misses":3,"deduped":true,"modules_reused":5,"modules_compiled":6,"node":"http://n1:7447","elapsed_ms":1.5,"err":"boom"}`
	resultJSON  = `{"name":"wire","cells":[` + cellJSON + `],"total":1,"passed":2,"failed":3,"dedup_hits":4,"cache_hits":5,"cache_misses":6,"modules_reused":7,"modules_compiled":8,"elapsed_ms":2.5}`
	statusJSON  = `{"id":"sweep-1","name":"wire","state":"done","started":"2026-01-02T03:04:05.000006Z","total_cells":1,"done_cells":1,"trace_id":"0123456789abcdef0123456789abcdef","result":` + resultJSON + `,"err":"boom"}`

	// coordinatorJobJSON is the coordinator's job document as it was
	// encoded before it shared Job with the single node: same keys and
	// values, with attempt and resumed_from after the module fields.
	coordinatorJobJSON = `{"id":"job-7","state":"done","submitted":"2026-01-02T03:04:05.000006Z","report":` + reportJSON + `,"cache_hits":2,"cache_misses":3,"workers":4,"trace_id":"0123456789abcdef0123456789abcdef","modules":[` + moduleJSON + `],"modules_total":1,"modules_reused":1,"modules_compiled":6,"node":"http://n1:7447","remote_id":"job-3","failovers":1,"attempt":2,"resumed_from":"http://n2:7447","cluster_cached":true,"err":"boom"}`
)

var (
	goldenTime = time.Date(2026, 1, 2, 3, 4, 5, 6000, time.UTC)
	traceID    = "0123456789abcdef0123456789abcdef"
)

func goldenVerdict() PropertyVerdict {
	return PropertyVerdict{Name: "safety", Kind: "invariant", OK: true, Verdict: "deadlock",
		Message: "invalid end state", Summary: "deadlock after 3 steps",
		States: 101, Matched: 202, Transitions: 303, Depth: 4, Reduced: 5, Truncated: true, ElapsedMS: 1.5,
		Counterexample: "1: p -> c", MSC: "p | c", Unreached: []string{"x.pml:3"}, Cached: true}
}

func goldenReport() *Report {
	return &Report{System: "bridge", Processes: 7, Channels: 9, OK: true, Failed: 1,
		Properties: []PropertyVerdict{goldenVerdict()}}
}

func goldenModule() ModuleInfo {
	return ModuleInfo{Hash: "aa11", Kind: "connector", Name: "pipe", Deps: []string{"bb22"}, Reused: true}
}

// goldenJob is a single node's job document: every field up to the
// module counters set, the coordinator's placement fields zero.
func goldenJob() Job {
	return Job{ID: "job-7", State: JobDone, Submitted: goldenTime, Report: goldenReport(),
		CacheHits: 2, CacheMisses: 3, Workers: 4, TraceID: traceID, Attempt: 2, ResumedFrom: "journal",
		Modules: []ModuleInfo{goldenModule()}, ModulesTotal: 1, ModulesReused: 1, ModulesCompiled: 6}
}

func goldenCell() SweepCell {
	return SweepCell{Index: 1, Connector: "SynBlSendPort--FifoChannel(2)--BlRecvPort", Send: "syn-blocking",
		Channel: "fifo", Size: 2, Recv: "blocking", Faults: "seed 1", Companion: true, Primary: 0,
		Verdict: "deadlock", OK: true, States: 101, Properties: []PropertyVerdict{goldenVerdict()},
		CacheHits: 2, CacheMisses: 3, Deduped: true, ModulesReused: 5, ModulesCompiled: 6,
		Node: "http://n1:7447", ElapsedMS: 1.5, Err: "boom"}
}

func goldenStatus() *SweepStatus {
	res := &SweepResult{Name: "wire", Cells: []SweepCell{goldenCell()}, Total: 1, Passed: 2, Failed: 3,
		DedupHits: 4, CacheHits: 5, CacheMisses: 6, ModulesReused: 7, ModulesCompiled: 8, ElapsedMS: 2.5}
	return &SweepStatus{ID: "sweep-1", Name: "wire", State: "done", Started: goldenTime,
		Total: 1, Done: 1, TraceID: traceID, Result: res, Err: "boom"}
}

func TestDocumentsMarshalAsPinned(t *testing.T) {
	ms, md, workers := 10, 20, 3
	yes, no := true, false
	visited, mem := "collapse", int64(1<<20)
	cell, status := goldenCell(), goldenStatus()
	for _, tc := range []struct {
		name string
		doc  any
		want string
	}{
		{"PropertyVerdict", goldenVerdict(), verdictJSON},
		{"Report", goldenReport(), reportJSON},
		{"Job", goldenJob(), `{"id":"job-7","state":"done","submitted":"2026-01-02T03:04:05.000006Z","report":` + reportJSON + `,"cache_hits":2,"cache_misses":3,"workers":4,"trace_id":"0123456789abcdef0123456789abcdef","attempt":2,"resumed_from":"journal","modules":[` + moduleJSON + `],"modules_total":1,"modules_reused":1,"modules_compiled":6}`},
		{"JobRequest", JobRequest{ADL: "system x {}", Components: map[string]string{"a.pml": "byte b;", "b.pml": "byte c;"},
			MaxStates: &ms, MaxDepth: &md, BFS: &yes, IgnoreDeadlock: &no, PartialOrder: &yes, WeakFairness: &no,
			StrongFairness: &yes, Workers: &workers, Visited: &visited, MemLimitBytes: &mem, TimeoutMS: 250,
			Attempt: 2, ResumeFrom: "http://n2:7447"},
			`{"adl":"system x {}","components":{"a.pml":"byte b;","b.pml":"byte c;"},"max_states":10,"max_depth":20,"bfs":true,"ignore_deadlock":false,"partial_order":true,"weak_fairness":false,"strong_fairness":true,"workers":3,"visited":"collapse","mem_limit_bytes":1048576,"timeout_ms":250,"attempt":2,"resume_from":"http://n2:7447"}`},
		{"JobList", JobList{Jobs: []JobSummary{{ID: "job-7", State: JobDone, Submitted: goldenTime,
			CacheHits: 2, CacheMisses: 3, Workers: 4, TraceID: traceID, OK: &yes}}, NextCursor: "7"},
			`{"jobs":[` + summaryJSON + `],"next_cursor":"7"}`},
		{"Health", Health{Status: "ok", Version: "0.7.0-dev", Workers: 2, SearchBudget: 4, SearchWorkersInUse: 1,
			ResultCacheEntries: 5, ReportCacheEntries: 6, Jobs: 7, Durable: true, Draining: true},
			`{"status":"ok","version":"0.7.0-dev","workers":2,"search_budget":4,"search_workers_in_use":1,"result_cache_entries":5,"report_cache_entries":6,"jobs":7,"durable":true,"draining":true}`},
		{"CachedReport", CachedReport{Key: "ab12", Node: "http://n1:7447", Report: goldenReport()},
			`{"key":"ab12","node":"http://n1:7447","report":` + reportJSON + `}`},
		{"ErrorBody", ErrorBody{Error: ErrorInfo{Code: "invalid_argument", Message: "bad", Line: 2, Col: 5}},
			`{"error":{"code":"invalid_argument","message":"bad","line":2,"col":5}}`},
		{"ModuleInfo", goldenModule(), moduleJSON},
		{"Artifact", Artifact{Hash: "aa11", Kind: "connector", Name: "pipe", Deps: []string{"bb22"}, Source: "proctype P() {}"},
			`{"hash":"aa11","kind":"connector","name":"pipe","deps":["bb22"],"source":"proctype P() {}"}`},
		{"SweepSpec", SweepSpec{Name: "wire", Base: "system x {}", Components: map[string]string{"a.pml": "byte b;"},
			Connector: "pipe", Sends: []string{"syn-blocking"}, Channels: []string{"fifo(2)"}, Recvs: []string{"blocking"},
			FaultPlans: []string{"", "seed 1"}, UnderLossy: true, LossySize: 2, MaxStates: 10, Workers: 3, TimeoutMS: 250,
			Preset: "matrix", Msgs: 2, BufSize: 4},
			`{"name":"wire","base":"system x {}","components":{"a.pml":"byte b;"},"connector":"pipe","sends":["syn-blocking"],"channels":["fifo(2)"],"recvs":["blocking"],"fault_plans":["","seed 1"],"under_lossy":true,"lossy_size":2,"max_states":10,"workers":3,"timeout_ms":250,"preset":"matrix","msgs":2,"buf_size":4}`},
		{"SweepCell", cell, cellJSON},
		{"SweepResult", status.Result, resultJSON},
		{"SweepStatus", status, statusJSON},
		{"SweepLine/cell", SweepLine{Cell: &cell}, `{"cell":` + cellJSON + `}`},
		{"SweepLine/sweep", SweepLine{Sweep: status}, `{"sweep":` + statusJSON + `}`},
	} {
		got, err := json.Marshal(tc.doc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s moved on the wire:\n  got  %s\n  want %s", tc.name, got, tc.want)
		}
	}
}

// TestCoordinatorJobKeepsKeysAndValues: the coordinator's job document
// is Job with the placement fields set. Only its key order may differ
// from the document it replaced, never a key or a value.
func TestCoordinatorJobKeepsKeysAndValues(t *testing.T) {
	job := goldenJob()
	job.ResumedFrom = "http://n2:7447"
	job.Node, job.RemoteID, job.Failovers, job.ClusterCached, job.Err = "http://n1:7447", "job-3", 1, true, "boom"
	got, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	var gotDoc, wantDoc map[string]any
	if err := json.Unmarshal(got, &gotDoc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(coordinatorJobJSON), &wantDoc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotDoc, wantDoc) {
		t.Fatalf("coordinator job document moved:\n  got  %s\n  want %s", got, coordinatorJobJSON)
	}
}
