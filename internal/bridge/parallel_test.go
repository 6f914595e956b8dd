package bridge

import (
	"testing"

	"pnp/internal/blocks"
	"pnp/internal/checker"
)

// The PR4 determinism contract on the paper's experiments: E8 (unsafe
// design) and E9 (fixed design) must produce identical verdicts,
// identical StatesStored, and equal-length (shortest) counterexamples
// at every worker count.

func verifyAtWorkers(t *testing.T, cfg Config, workers int) *checker.Result {
	t.Helper()
	res, err := Verify(cfg, blocks.NewCache(), checker.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBridgeE8DeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{Variant: ExactlyN, CarsPerSide: 1, N: 1, EnterSend: blocks.AsynBlockingSend}
	var first *checker.Result
	for _, w := range []int{1, 2, 8} {
		res := verifyAtWorkers(t, cfg, w)
		if res.OK || res.Kind != checker.InvariantViolation {
			t.Fatalf("workers=%d: expected invariant violation, got %s", w, res.Summary())
		}
		if res.Trace == nil || res.Trace.Len() == 0 {
			t.Fatalf("workers=%d: no counterexample", w)
		}
		if first == nil {
			first = res
			continue
		}
		if res.Stats.StatesStored != first.Stats.StatesStored {
			t.Errorf("workers=%d: StatesStored %d, want %d", w, res.Stats.StatesStored, first.Stats.StatesStored)
		}
		if res.Trace.Len() != first.Trace.Len() {
			t.Errorf("workers=%d: counterexample length %d, want %d", w, res.Trace.Len(), first.Trace.Len())
		}
	}
	// The level engine is breadth-first, so E8's counterexample must be
	// no longer than the sequential BFS one: 16 steps at 87cea14, the
	// last commit that had that engine.
	const seqBFSLen = 16
	if first.Trace.Len() > seqBFSLen {
		t.Errorf("parallel counterexample length %d exceeds sequential BFS %d",
			first.Trace.Len(), seqBFSLen)
	}
	assertBFSIsWorkersOne(t, cfg, first)
}

// assertBFSIsWorkersOne: Options{BFS: true} is the level engine at one
// worker — same verdict, stats, and counterexample as w1.
func assertBFSIsWorkersOne(t *testing.T, cfg Config, w1 *checker.Result) {
	t.Helper()
	bfs, err := Verify(cfg, blocks.NewCache(), checker.Options{BFS: true})
	if err != nil {
		t.Fatal(err)
	}
	a, b := bfs.Stats, w1.Stats
	a.Elapsed, b.Elapsed = 0, 0
	a.VisitedBytes, b.VisitedBytes = 0, 0
	if bfs.OK != w1.OK || bfs.Kind != w1.Kind || a != b {
		t.Errorf("BFS and Workers=1 differ: %s %+v vs %s %+v", bfs.Summary(), a, w1.Summary(), b)
	}
	if (bfs.Trace == nil) != (w1.Trace == nil) || (bfs.Trace != nil && bfs.Trace.Len() != w1.Trace.Len()) {
		t.Errorf("BFS and Workers=1 counterexamples differ")
	}
}

func TestBridgeE9DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("three exhaustive E9 searches are too slow for -short")
	}
	cfg := Config{Variant: ExactlyN, CarsPerSide: 1, N: 1, EnterSend: blocks.SynBlockingSend}
	var first *checker.Result
	for _, w := range []int{1, 2, 8} {
		res := verifyAtWorkers(t, cfg, w)
		if !res.OK {
			t.Fatalf("workers=%d: E9 should verify, got %s", w, res.Summary())
		}
		if first == nil {
			first = res
			continue
		}
		if res.Stats.StatesStored != first.Stats.StatesStored ||
			res.Stats.StatesMatched != first.Stats.StatesMatched ||
			res.Stats.Transitions != first.Stats.Transitions ||
			res.Stats.MaxDepth != first.Stats.MaxDepth {
			t.Errorf("workers=%d: stats diverge: %+v vs %+v", w, res.Stats, first.Stats)
		}
	}
	// What the sequential BFS reported for E9 at 87cea14, the last
	// commit that had that engine.
	if s := first.Stats; s.StatesStored != 183506 || s.StatesMatched != 159441 ||
		s.Transitions != 342946 || s.MaxDepth != 207 {
		t.Errorf("stats diverge from sequential BFS: %+v", s)
	}
	assertBFSIsWorkersOne(t, cfg, first)
}
