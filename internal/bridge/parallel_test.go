package bridge

import (
	"reflect"
	"testing"

	"pnp/internal/blocks"
	"pnp/internal/checker"
	"pnp/internal/trace"
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

// e8Trace is E8's counterexample at one worker, recorded at 107bf32,
// where the level engine still stored every node's transition instead
// of replaying it from the root.
const e8Trace = `   1. Car[6]           edat! 1,0,0,0,1 -> AsynBlSendPort[4]
   2. AsynBlSendPort[4] chDat! 1,4,0,0,1 -> FifoChannel[0]
   3. FifoChannel[0]   guard
   4. FifoChannel[0]   sndSig! IN_OK,4 -> AsynBlSendPort[4]
   5. FifoChannel[0]   buf! 1,4,0,0,1
   6. AsynBlSendPort[4] compSig! SEND_SUCC,0 -> Car[6]
   7. Car[6]           guard
   8. Car[6]           blueOn = ...
   9. Car[9]           edat! 1,0,0,0,1 -> AsynBlSendPort[7]
  10. AsynBlSendPort[7] chDat! 1,7,0,0,1 -> FifoChannel[1]
  11. FifoChannel[1]   guard
  12. FifoChannel[1]   sndSig! IN_OK,7 -> AsynBlSendPort[7]
  13. FifoChannel[1]   buf! 1,7,0,0,1
  14. AsynBlSendPort[7] compSig! SEND_SUCC,0 -> Car[9]
  15. Car[9]           else
  16. Car[9]           redOn = ...
  => invariant bridge-safety violated
`

// byProcess projects a trace onto its acting processes: each one's
// steps in order, without step numbers.
func byProcess(tr *trace.Trace) map[string][]trace.Event {
	m := map[string][]trace.Event{}
	for _, e := range tr.Prefix {
		m[e.Proc] = append(m[e.Proc], e)
	}
	return m
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
			if got := res.Trace.String(); got != e8Trace {
				t.Fatalf("workers=1: counterexample\n%s\nwant\n%s", got, e8Trace)
			}
			first = res
			continue
		}
		if res.Stats.StatesStored != first.Stats.StatesStored {
			t.Errorf("workers=%d: StatesStored %d, want %d", w, res.Stats.StatesStored, first.Stats.StatesStored)
		}
		// Which of several same-level parents first stores a state is a
		// race between workers, so above one worker the steps may
		// interleave differently (they did at 107bf32 too). The violating
		// state is adjudicated deterministically, and every process takes
		// the same steps to reach it.
		if res.Trace.Final != first.Trace.Final || !reflect.DeepEqual(byProcess(res.Trace), byProcess(first.Trace)) {
			t.Errorf("workers=%d: counterexample\n%s\nis not an interleaving of\n%s", w, res.Trace, e8Trace)
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
	if (bfs.Trace == nil) != (w1.Trace == nil) || (bfs.Trace != nil && bfs.Trace.String() != w1.Trace.String()) {
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
