package verifyd

import (
	"net/http/httptest"
	"testing"

	"pnp/internal/api"
	"pnp/internal/checker"
)

// TestOptionsKeyPinsStorage pins the key the Storage group hashes to —
// the string both option spellings produced before the flat aliases
// were deleted — so verdicts cached under either keep hitting.
func TestOptionsKeyPinsStorage(t *testing.T) {
	got := OptionsKey(checker.Options{
		MaxStates: 1000, MaxDepth: 50, BFS: true,
		Storage: checker.StorageOptions{
			Bitstate: true, BitstateBits: 24,
			Visited: checker.VisitedCollapse, MemLimit: 1 << 20,
		},
	})
	want := "ms=1000;md=50;bfs=true;id=false;ru=false;po=false;wf=false;sf=false;bs=true;bb=24;par=false"
	if got != want {
		t.Fatalf("OptionsKey moved:\n  got  %s\n  want %s", got, want)
	}
}

// TestOptionsKeyFormatStable pins the key's literal format: changing it
// silently invalidates every durable cached verdict.
func TestOptionsKeyFormatStable(t *testing.T) {
	got := OptionsKey(checker.Options{MaxStates: 10, Workers: 2})
	want := "ms=10;md=0;bfs=false;id=false;ru=false;po=false;wf=false;sf=false;bs=false;bb=0;par=true"
	if got != want {
		t.Fatalf("OptionsKey format drifted:\n  got  %s\n  want %s", got, want)
	}
}

// TestOptionsKeyExcludesStorageMode: visited-set storage trades memory
// for time without changing membership, so exact, collapse, and spilled
// searches must share one cache entry; bitstate genuinely changes
// coverage and must not.
func TestOptionsKeyExcludesStorageMode(t *testing.T) {
	base := OptionsKey(checker.Options{MaxStates: 10})
	collapse := OptionsKey(checker.Options{MaxStates: 10,
		Storage: checker.StorageOptions{Visited: checker.VisitedCollapse, MemLimit: 1 << 20}})
	if base != collapse {
		t.Fatal("storage mode must not influence the options key")
	}
	bitstate := OptionsKey(checker.Options{MaxStates: 10,
		Storage: checker.StorageOptions{Bitstate: true, BitstateBits: 20}})
	if base == bitstate {
		t.Fatal("bitstate changes coverage and must change the key")
	}
}

// TestSubmissionKeyPinned pins the content address of a request with
// every key-relevant field set. The journal, the report cache and the
// coordinator's ring all address submissions by it, so it must not move
// when the request type does.
func TestSubmissionKeyPinned(t *testing.T) {
	ms, md, workers := 10, 20, 3
	yes, no := true, false
	visited, mem := "collapse", int64(1<<20)
	req := api.JobRequest{ADL: "system x {}", Components: map[string]string{"a.pml": "byte b;", "b.pml": "byte c;"},
		MaxStates: &ms, MaxDepth: &md, BFS: &yes, IgnoreDeadlock: &no, PartialOrder: &yes, WeakFairness: &no,
		StrongFairness: &yes, Workers: &workers, Visited: &visited, MemLimitBytes: &mem, TimeoutMS: 250,
		Attempt: 2, ResumeFrom: "http://n2:7447"}
	const want = "38f1694f94811ea213bff939270364051000f1b52ce6726b02c0c47f1884c374"
	if got := SubmissionOf(req).Key().String(); got != want {
		t.Fatalf("Submission.Key moved:\n  got  %s\n  want %s", got, want)
	}
}

// TestBFSResubmissionHitsPropertyCache: the server grants every job at
// least one search worker, so a "bfs": true resubmission of a finished
// design runs the very searches the first submission ran and must be
// answered from the property cache.
func TestBFSResubmissionHitsPropertyCache(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := api.JobRequest{ADL: loadExample(t, "pingpong.pnp"), Components: pingpongComponents(t)}
	wait := func(id string) api.Job {
		job, ok := s.Job(id)
		if !ok {
			t.Fatalf("no job %s", id)
		}
		return waitDone(t, s, job)
	}
	first := wait(submitHTTP(t, ts.URL, req))
	if first.Report == nil || first.CacheMisses == 0 {
		t.Fatalf("first submission must search: %+v", first)
	}
	bfs := true
	req.BFS = &bfs
	again := wait(submitHTTP(t, ts.URL, req))
	if again.Report == nil || again.CacheHits != len(again.Report.Properties) || again.CacheMisses != 0 {
		t.Fatalf("bfs resubmission: cache_hits %d, cache_misses %d, want %d and 0",
			again.CacheHits, again.CacheMisses, len(first.Report.Properties))
	}
}
