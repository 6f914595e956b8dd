package verifyd

import (
	"sync"
	"testing"

	"pnp/internal/api"
	"pnp/internal/checker"
)

func TestWorkerBudgetGrantAndRelease(t *testing.T) {
	b := newWorkerBudget(4, nil)
	if g := b.acquire(0); g != 4 {
		t.Fatalf("idle budget grant = %d, want all 4", g)
	}
	// Pool exhausted: every job still gets one worker.
	if g := b.acquire(0); g != 1 {
		t.Fatalf("oversubscribed grant = %d, want floor 1", g)
	}
	b.release(1)
	b.release(4)
	if g := b.acquire(2); g != 2 {
		t.Fatalf("capped grant = %d, want requested 2", g)
	}
	if g := b.acquire(0); g != 2 {
		t.Fatalf("remaining grant = %d, want idle 2", g)
	}
	b.release(2)
	b.release(2)
	if g := b.acquire(100); g != 4 {
		t.Fatalf("over-asking grant = %d, want total 4", g)
	}
}

func TestWorkerBudgetConcurrent(t *testing.T) {
	b := newWorkerBudget(8, nil)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				g := b.acquire(3)
				if g < 1 || g > 3 {
					t.Errorf("grant %d outside [1,3]", g)
					return
				}
				b.release(g)
			}
		}()
	}
	wg.Wait()
	if g := b.acquire(0); g != 8 {
		t.Errorf("budget leaked: final idle grant = %d, want 8", g)
	}
}

// A lone job on an idle server is granted the whole search budget; the
// grant is recorded on the job and drives checker.Options.Workers.
func TestServiceJobUsesIdleSearchBudget(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, SearchBudget: 4})
	job, err := s.Submit(loadExample(t, "bridge.pnp"), bridgeComponents(t), checker.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, s, job)
	if snap.Report == nil || !snap.Report.OK {
		t.Fatalf("bridge should verify: %+v", snap.Report)
	}
	if snap.Workers != 4 {
		t.Errorf("job granted %d search workers, want the full budget 4", snap.Workers)
	}
}

// A submission's workers override caps the grant.
func TestServiceJobWorkersCap(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, SearchBudget: 4})
	job, err := s.Submit(loadExample(t, "bridge.pnp"), bridgeComponents(t), checker.Options{Workers: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, s, job)
	if snap.Workers != 1 {
		t.Errorf("job granted %d search workers, want the requested cap 1", snap.Workers)
	}
}

// The cache key normalizes Workers to the engine it selects, so a
// verdict computed under one grant is served for any other.
func TestOptionsKeyNormalizesWorkers(t *testing.T) {
	k1 := OptionsKey(checker.Options{Workers: 1})
	k8 := OptionsKey(checker.Options{Workers: 8})
	if k1 != k8 {
		t.Errorf("worker counts fragment the cache key: %q vs %q", k1, k8)
	}
	// Workers 0 runs the same engine inline, POR or not.
	if k0 := OptionsKey(checker.Options{}); k1 != k0 {
		t.Errorf("Workers 0 and 1 must share a key: %q vs %q", k0, k1)
	}
	if OptionsKey(checker.Options{Workers: 8, PartialOrder: true}) !=
		OptionsKey(checker.Options{PartialOrder: true}) {
		t.Error("POR searches at different worker counts must share a key")
	}
}

// Visited-set storage trades memory for time without changing
// membership, so every storage configuration must share one cache key.
func TestOptionsKeyIgnoresVisitedStorage(t *testing.T) {
	base := OptionsKey(checker.Options{Workers: 1})
	for name, o := range map[string]checker.Options{
		"collapse":  {Workers: 1, Storage: checker.StorageOptions{Visited: checker.VisitedCollapse}},
		"mem-limit": {Workers: 1, Storage: checker.StorageOptions{MemLimit: 64 << 20}},
		"spill":     {Workers: 1, Storage: checker.StorageOptions{Visited: checker.VisitedCollapse, MemLimit: 1, SpillDir: "/tmp/x"}},
	} {
		if OptionsKey(o) != base {
			t.Errorf("%s storage fragments the cache key: %q vs %q", name, OptionsKey(o), base)
		}
	}
}

// The wire overrides for visited storage overlay server defaults; an
// unknown storage name keeps the default, and SpillDir has no wire
// field at all (clients must not control server paths).
func TestJobOptionsVisitedStorageOverrides(t *testing.T) {
	def := checker.StorageOptions{Visited: checker.VisitedCollapse, MemLimit: 64 << 20, SpillDir: "/srv/spill"}
	s := &Server{cfg: Config{Options: checker.Options{Storage: def}}}
	for _, tc := range []struct {
		name         string
		req          api.JobRequest
		wantVisited  string
		wantMemLimit int64
	}{
		{"absent keeps defaults", api.JobRequest{}, checker.VisitedCollapse, 64 << 20},
		{"overrides applied", api.JobRequest{Visited: ptrTo(checker.VisitedCollapse), MemLimitBytes: ptrTo(int64(1 << 20))},
			checker.VisitedCollapse, 1 << 20},
		// An explicit 0 switches the server's budget off for this job.
		{"zero clears the budget", api.JobRequest{MemLimitBytes: ptrTo(int64(0))}, checker.VisitedCollapse, 0},
		{"exact overrides collapse", api.JobRequest{Visited: ptrTo(checker.VisitedExact)}, checker.VisitedExact, 64 << 20},
		{"unknown name keeps default", api.JobRequest{Visited: ptrTo("bogus")}, checker.VisitedCollapse, 64 << 20},
		{"negative budget keeps default", api.JobRequest{MemLimitBytes: ptrTo(int64(-5))}, checker.VisitedCollapse, 64 << 20},
	} {
		o := s.jobOptions(tc.req).Storage
		if o.Visited != tc.wantVisited || o.MemLimit != tc.wantMemLimit {
			t.Errorf("%s: Visited=%q MemLimit=%d, want %q and %d",
				tc.name, o.Visited, o.MemLimit, tc.wantVisited, tc.wantMemLimit)
		}
		if o.SpillDir != def.SpillDir {
			t.Errorf("%s: SpillDir changed by wire request: %q", tc.name, o.SpillDir)
		}
	}
}
