package checker

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pnp/internal/model"
)

// parWorkerCounts are the worker counts every determinism test sweeps.
var parWorkerCounts = []int{1, 2, 8}

func statsEqualIgnoringElapsed(a, b Stats) bool {
	a.Elapsed, b.Elapsed = 0, 0
	// Memory-accounting fields vary with storage mode, allocator growth,
	// and budget — they are observability, not search semantics.
	a.VisitedBytes, b.VisitedBytes = 0, 0
	a.SpilledStates, b.SpilledStates = 0, 0
	return a == b
}

// parOKSrc has a moderately branchy but violation-free state space.
const parOKSrc = `
byte x;
chan c = [2] of { byte };
active proctype P() {
	byte i;
	do
	:: i < 4 -> c!i; i = i + 1
	:: else -> break
	od
}
active proctype Q() {
	byte v;
	byte n;
	do
	:: c?v -> x = v; n = n + 1
	:: n >= 4 -> break
	od
}`

func TestParallelSafetyDeterministicAcrossWorkerCounts(t *testing.T) {
	cases := []struct {
		name string
		src  string
		inv  string // optional invariant source
		kind ViolationKind
	}{
		{"ok", parOKSrc, "", NoViolation},
		{"assertion", `
byte x;
active proctype P() { x = 1 }
active proctype Q() { x == 1 -> assert(x == 0) }`, "", Assertion},
		{"deadlock", `
chan a = [0] of { byte };
chan b = [0] of { byte };
active proctype P() { byte x; a?x; b!1 }
active proctype Q() { byte y; b?y; a!1 }`, "", Deadlock},
		{"invariant", `
byte x;
active proctype P() { x = 1; x = 2; x = 3 }`, "x < 3", InvariantViolation},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first *Result
			for _, w := range parWorkerCounts {
				s := sysFromSource(t, tc.src)
				opts := Options{Workers: w}
				if tc.inv != "" {
					inv, err := InvariantFromSource(s.Prog, "inv", tc.inv)
					if err != nil {
						t.Fatal(err)
					}
					opts.Invariants = []Invariant{inv}
				}
				res := New(s, opts).CheckSafety()
				if (tc.kind == NoViolation) != res.OK {
					t.Fatalf("workers=%d: unexpected verdict %s", w, res.Summary())
				}
				if !res.OK && res.Kind != tc.kind {
					t.Fatalf("workers=%d: kind %s, want %s", w, res.Kind, tc.kind)
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
				if (res.Trace == nil) != (first.Trace == nil) {
					t.Fatalf("workers=%d: trace presence differs", w)
				}
				if res.Trace != nil {
					if res.Trace.Len() != first.Trace.Len() {
						t.Errorf("workers=%d: counterexample length %d vs %d",
							w, res.Trace.Len(), first.Trace.Len())
					}
					if res.Trace.String() != first.Trace.String() {
						t.Errorf("workers=%d: counterexample differs:\n%s\nvs\n%s",
							w, res.Trace, first.Trace)
					}
				}
			}
		})
	}
}

// On a violation-free model the level engine explores exactly the set
// of states the sequential BFS did. That engine was deleted once the
// level engine took over Options.BFS; the literals are what it reported
// for parOKSrc at the last commit that had it (87cea14), so the check it
// provided survives its removal.
func TestParallelSafetyStatsMatchSequentialBFS(t *testing.T) {
	want := Stats{StatesStored: 92, StatesMatched: 65, Transitions: 156, MaxDepth: 26}
	for _, opts := range []Options{{BFS: true}, {Workers: 2}} {
		res := New(sysFromSource(t, parOKSrc), opts).CheckSafety()
		if !res.OK {
			t.Fatalf("%+v: expected OK: %s", opts, res.Summary())
		}
		if !statsEqualIgnoringElapsed(res.Stats, want) {
			t.Errorf("%+v: stats diverge from sequential BFS: %+v vs %+v", opts, res.Stats, want)
		}
	}
}

// bfsIdentityModels are the models of this file and classics_test.go on
// which Options{BFS: true} and Options{Workers: 1} must be one engine.
func bfsIdentityModels(t *testing.T) map[string]func() *model.System {
	src := func(s string) func() *model.System {
		return func() *model.System { return sysFromSource(t, s) }
	}
	return map[string]func() *model.System{
		"parOK":            src(parOKSrc),
		"progress":         src(progressSource),
		"dining-symmetric": src(diningSymmetric),
		"dining-fixed":     src(diningAsymmetric),
		"chang-roberts":    func() *model.System { return changRobertsRing(t) },
		"assertion": src(`
byte x;
active proctype P() { x = 1 }
active proctype Q() { x == 1 -> assert(x == 0) }`),
		"deadlock": src(`
chan a = [0] of { byte };
chan b = [0] of { byte };
active proctype P() { byte x; a?x; b!1 }
active proctype Q() { byte y; b?y; a!1 }`),
		"shortest": src(shortestCESrc),
	}
}

// Options.BFS and Options.Workers: 1 select the same engine run the same
// way: verdict, every stat, and the counterexample are identical.
func TestBFSIsTheLevelEngineAtOneWorker(t *testing.T) {
	for name, mk := range bfsIdentityModels(t) {
		bfs := New(mk(), Options{BFS: true}).CheckSafety()
		w1 := New(mk(), Options{Workers: 1}).CheckSafety()
		if bfs.OK != w1.OK || bfs.Kind != w1.Kind || bfs.Message != w1.Message {
			t.Errorf("%s: verdicts differ: BFS %s, Workers=1 %s", name, bfs.Summary(), w1.Summary())
		}
		if !statsEqualIgnoringElapsed(bfs.Stats, w1.Stats) {
			t.Errorf("%s: stats differ: BFS %+v, Workers=1 %+v", name, bfs.Stats, w1.Stats)
		}
		if (bfs.Trace == nil) != (w1.Trace == nil) ||
			(bfs.Trace != nil && bfs.Trace.String() != w1.Trace.String()) {
			t.Errorf("%s: counterexamples differ:\n%s\nvs\n%s", name, bfs.Trace, w1.Trace)
		}
	}
}

// shortestCESrc reaches its assertion only by BFS-shortest paths.
const shortestCESrc = `
byte x;
active proctype P() {
	do
	:: x < 6 -> x = x + 1
	:: x == 3 -> assert(false)
	od
}`

// The level engine's counterexample must be as short as the sequential
// BFS one was at every worker count: 8 steps at 87cea14, the last commit
// that had that engine.
func TestParallelShortestCounterexample(t *testing.T) {
	const seqLen = 8
	for _, w := range append([]int{0}, parWorkerCounts...) {
		par := New(sysFromSource(t, shortestCESrc), Options{BFS: true, Workers: w}).CheckSafety()
		if par.OK || par.Trace == nil {
			t.Fatalf("workers=%d should find the assertion: %s", w, par.Summary())
		}
		if par.Trace.Len() != seqLen {
			t.Errorf("workers=%d: counterexample length %d, sequential BFS %d",
				w, par.Trace.Len(), seqLen)
		}
	}
}

func TestParallelMaxStatesClamp(t *testing.T) {
	for _, w := range []int{1, 4} {
		res := New(sysFromSource(t, parOKSrc), Options{Workers: w, MaxStates: 10}).CheckSafety()
		if res.OK || res.Kind != SearchLimit || !res.Stats.Truncated {
			t.Fatalf("workers=%d: expected SearchLimit, got %s", w, res.Summary())
		}
		if res.Stats.StatesStored != 11 {
			t.Errorf("workers=%d: StatesStored = %d, want MaxStates+1 = 11", w, res.Stats.StatesStored)
		}
	}
}

func TestParallelReachabilityWitness(t *testing.T) {
	s := sysFromSource(t, parOKSrc)
	target, err := s.Prog.CompileGlobalExpr("x == 2")
	if err != nil {
		t.Fatal(err)
	}
	// The sequential reachability search (deleted with the sequential
	// BFS) found a 16-step witness at 87cea14; shortest is shortest.
	const seqLen = 16
	var first *Result
	for _, w := range append([]int{0}, parWorkerCounts...) {
		res := New(sysFromSource(t, parOKSrc), Options{Workers: w}).CheckReachable(target)
		if !res.OK || res.Trace == nil {
			t.Fatalf("workers=%d: target not reached: %s", w, res.Summary())
		}
		if res.Trace.Len() != seqLen {
			t.Errorf("workers=%d: witness length %d, sequential %d", w, res.Trace.Len(), seqLen)
		}
		if first == nil {
			first = res
			continue
		}
		if res.Stats.StatesStored != first.Stats.StatesStored {
			t.Errorf("workers=%d: StatesStored %d vs %d", w, res.Stats.StatesStored, first.Stats.StatesStored)
		}
		// Which shortest witness is reported may vary with the worker
		// count (the parent of a state reached from two frontier nodes is
		// whichever worker stored it first), so only its length is pinned.
	}
}

func TestParallelUnreachableTarget(t *testing.T) {
	s := sysFromSource(t, parOKSrc)
	target, err := s.Prog.CompileGlobalExpr("x == 200")
	if err != nil {
		t.Fatal(err)
	}
	res := New(s, Options{Workers: 4}).CheckReachable(target)
	if res.OK {
		t.Fatalf("x == 200 should be unreachable: %s", res.Summary())
	}
	// An exhaustive reachability search stores the whole state space:
	// 92 states, what the sequential search (and DFS) stored at 87cea14.
	dfs := New(sysFromSource(t, parOKSrc), Options{}).CheckSafety()
	if res.Stats.StatesStored != 92 || dfs.Stats.StatesStored != 92 {
		t.Errorf("exhaustive reachability stored %d states, DFS %d, want 92",
			res.Stats.StatesStored, dfs.Stats.StatesStored)
	}
}

func TestParallelBitstateVerifies(t *testing.T) {
	res := New(sysFromSource(t, parOKSrc), Options{Workers: 4, Storage: StorageOptions{Bitstate: true, BitstateBits: 20}}).CheckSafety()
	if !res.OK {
		t.Fatalf("bitstate parallel search should verify: %s", res.Summary())
	}
	if res.Stats.StatesStored == 0 {
		t.Error("bitstate search stored no states")
	}
}

// Workers is a documented no-op for liveness: verdict, stats, and
// counterexample must be identical at any worker count.
func TestLivenessWorkersNoOp(t *testing.T) {
	src := `
byte x;
active proctype P() {
	do
	:: x = 0
	:: x = 2
	od
}`
	var first *Result
	for _, w := range []int{0, 1, 8} {
		s := sysFromSource(t, src)
		p := props(t, s.Prog, map[string]string{"done": "x == 2"})
		res := New(s, Options{Workers: w}).CheckLTL("<> done", p)
		if res.OK || res.Kind != AcceptanceCycle {
			t.Fatalf("workers=%d: expected acceptance cycle, got %s", w, res.Summary())
		}
		if first == nil {
			first = res
			continue
		}
		if !statsEqualIgnoringElapsed(res.Stats, first.Stats) {
			t.Errorf("workers=%d: liveness stats changed: %+v vs %+v", w, res.Stats, first.Stats)
		}
		if res.Trace.String() != first.Trace.String() {
			t.Errorf("workers=%d: liveness counterexample changed", w)
		}
	}
}

// Partial-order reduction and unreached reporting need the sequential
// DFS; Workers must fall back rather than change those verdicts.
func TestParallelFallsBackForPORAndUnreached(t *testing.T) {
	base := New(sysFromSource(t, parOKSrc), Options{PartialOrder: true}).CheckSafety()
	par := New(sysFromSource(t, parOKSrc), Options{PartialOrder: true, Workers: 8}).CheckSafety()
	if !statsEqualIgnoringElapsed(par.Stats, base.Stats) {
		t.Errorf("POR run changed under Workers: %+v vs %+v", par.Stats, base.Stats)
	}
	ru := New(sysFromSource(t, parOKSrc), Options{ReportUnreached: true, Workers: 8}).CheckSafety()
	if !ru.OK {
		t.Fatalf("unreached-reporting run failed: %s", ru.Summary())
	}
}

// dispatchSrc has a branch no run can take (x is never 5) and two
// processes with process-private moves for the reduction to postpone.
const dispatchSrc = `
byte x;
active proctype P() {
	byte l;
	l = 1; l = 2;
	if
	:: x == 5 -> x = 9
	:: else -> skip
	fi
}
active proctype Q() { byte m; m = 1; m = 2; x = 1 }`

// The engine-selection precedence of Options.BFS: PartialOrder and
// ReportUnreached take the DFS that implements them whatever BFS and
// Workers say; otherwise BFS or Workers >= 1 takes the level engine.
func TestEngineDispatch(t *testing.T) {
	for _, tc := range []struct {
		opts  Options
		phase string
	}{
		{Options{}, "safety-dfs"},
		{Options{BFS: true}, "safety-par-bfs"},
		{Options{Workers: 1}, "safety-par-bfs"},
		{Options{BFS: true, Workers: 4}, "safety-par-bfs"},
		{Options{ReportUnreached: true}, "safety-dfs"},
		{Options{BFS: true, ReportUnreached: true}, "safety-dfs"},
		{Options{Workers: 4, ReportUnreached: true}, "safety-dfs"},
		{Options{PartialOrder: true}, "safety-dfs-por"},
		{Options{BFS: true, PartialOrder: true}, "safety-dfs-por"},
		{Options{BFS: true, Workers: 4, PartialOrder: true}, "safety-dfs-por"},
		{Options{BFS: true, PartialOrder: true, ReportUnreached: true}, "safety-dfs-por"},
	} {
		opts := tc.opts
		name := fmt.Sprintf("bfs=%t workers=%d por=%t unreached=%t",
			opts.BFS, opts.Workers, opts.PartialOrder, opts.ReportUnreached)
		var phase string
		opts.Progress = func(p Progress) { phase = p.Phase }
		res := New(sysFromSource(t, dispatchSrc), opts).CheckSafety()
		if !res.OK {
			t.Fatalf("%s: %s", name, res.Summary())
		}
		if phase != tc.phase {
			t.Errorf("%s: ran %q, want %q", name, phase, tc.phase)
		}
		if opts.ReportUnreached && !opts.PartialOrder {
			found := false
			for _, u := range res.Unreached {
				found = found || strings.HasPrefix(u, "P: x = ")
			}
			if !found {
				t.Errorf("%s: dead branch not in Unreached: %q", name, res.Unreached)
			}
		} else if len(res.Unreached) != 0 {
			t.Errorf("%s: Unreached = %q, want none", name, res.Unreached)
		}
		if (res.Stats.Reduced > 0) != opts.PartialOrder {
			t.Errorf("%s: Reduced = %d", name, res.Stats.Reduced)
		}
	}
}

func TestParallelCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := New(sysFromSource(t, parOKSrc), Options{Workers: 4, Context: ctx}).CheckSafety()
	if res.OK || res.Kind != Canceled || !res.Stats.Truncated {
		t.Fatalf("expected Canceled, got %s", res.Summary())
	}
}

// The AG-EF search must stop within one state of MaxStates and report
// the same clamped count as the other searches (satellite fix).
func TestEventuallyReachableMaxStatesClamp(t *testing.T) {
	s := sysFromSource(t, parOKSrc)
	target, err := s.Prog.CompileGlobalExpr("x == 0")
	if err != nil {
		t.Fatal(err)
	}
	res := New(s, Options{MaxStates: 5}).CheckEventuallyReachable(target)
	if res.OK || res.Kind != SearchLimit || !res.Stats.Truncated {
		t.Fatalf("expected SearchLimit, got %s", res.Summary())
	}
	if res.Stats.StatesStored != 6 {
		t.Errorf("StatesStored = %d, want MaxStates+1 = 6", res.Stats.StatesStored)
	}
}

// --- sharded visited set ---

// The level engine holds two levels of states: once level d+1 is
// collected, levels 1..d keep only the parent/idx links counterexamples
// are replayed along, and levels[0] keeps its states to replay from.
func TestLevelsRetiredAfterNextLevelCollected(t *testing.T) {
	for _, w := range []int{1, 2} {
		c := New(sysFromSource(t, parOKSrc), Options{Workers: w})
		r := c.newParRunner("test")
		levels, curEnc := r.seedRoot()
		res := &Result{}
		for li := 0; len(levels[li]) > 0; li++ {
			next, nextEnc, _ := r.expandLevel(res, li, levels[li], curEnc, true)
			levels, curEnc = r.advance(levels, li, next), nextEnc
			for d := 1; d <= li; d++ {
				for i, n := range levels[d] {
					if n.st != nil {
						t.Fatalf("workers=%d: level %d collected, node %d of level %d still holds its state", w, li+1, i, d)
					}
				}
			}
			if levels[0][0].st == nil {
				t.Fatalf("workers=%d: the root level was retired", w)
			}
		}
		r.close()
		if len(levels) < 10 {
			t.Fatalf("workers=%d: only %d levels; model too shallow for the test", w, len(levels))
		}
	}
}

func encOf(i int) []byte {
	return []byte(fmt.Sprintf("state-%d-%s", i, "padding-to-make-keys-nontrivial"))
}

func TestShardedSetExact(t *testing.T) {
	s := newShardedSet(nil)
	for i := 0; i < 1000; i++ {
		enc := encOf(i)
		if s.seen(model.Hash64(enc), enc, nil) {
			t.Fatalf("fresh key %d reported seen", i)
		}
	}
	for i := 0; i < 1000; i++ {
		enc := encOf(i)
		if !s.seen(model.Hash64(enc), enc, nil) {
			t.Fatalf("stored key %d reported unseen", i)
		}
	}
	if s.size() != 1000 {
		t.Fatalf("size = %d, want 1000", s.size())
	}
	if s.bytes() <= 0 {
		t.Fatalf("bytes = %d, want > 0", s.bytes())
	}
}

// Concurrent inserts of overlapping key ranges must store each distinct
// key exactly once (run with -race).
func TestShardedSetConcurrentExactCount(t *testing.T) {
	s := newShardedSet(nil)
	const keys, workers = 2000, 8
	var wins [workers]int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < keys; i++ {
				buf = append(buf[:0], encOf(i)...)
				if !s.seen(model.Hash64(buf), buf, nil) {
					wins[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	if s.size() != keys {
		t.Fatalf("size = %d, want %d", s.size(), keys)
	}
	total := 0
	for _, n := range wins {
		total += n
	}
	if total != keys {
		t.Fatalf("%d first-insert wins across workers, want %d", total, keys)
	}
}

func TestParBitstateSetMatchesSequentialBits(t *testing.T) {
	seq := newBitstateSet(14)
	par := newParBitstateSet(14, nil)
	for i := 0; i < 500; i++ {
		enc := encOf(i)
		if got, want := par.seen(model.Hash64(enc), enc, nil), seq.seen(string(enc)); got != want {
			t.Fatalf("key %d: parallel bitstate %v, sequential %v", i, got, want)
		}
	}
	if par.size() != seq.size() {
		t.Fatalf("sizes diverge: %d vs %d", par.size(), seq.size())
	}
}

// benchComponentStates builds n distinct states with the component
// structure of a realistic composition (several processes and channels)
// where consecutive states differ in one or two components — the
// neighbor structure collapse compression exploits. Returns the shape
// plus each state's encoding, fingerprint, and section ends.
func benchComponentStates(n int) (shape *model.State, encs [][]byte, fps []uint64, endss [][]int) {
	mk := func(i int) *model.State {
		st := &model.State{
			PCs:     []int32{int32(i % 7), int32(i / 7 % 5), 3, 1, 2, 0},
			Globals: []int64{int64(i % 3), 42, 7, int64(i % 2), 0, 1, 9, 4},
			Locals: [][]int64{
				{int64(i % 11), 5}, {2, 3}, {int64(i / 11 % 4), 0},
				{1, 1}, {0, 8}, {6, int64(i / 44 % 3)},
			},
			Chans: [][]int64{
				{1, 2, 3}, {int64(i % 5)}, {}, {4, 4},
			},
			Atomic: -1,
		}
		return st
	}
	shape = mk(0)
	encs = make([][]byte, n)
	fps = make([]uint64, n)
	endss = make([][]int, n)
	for i := 0; i < n; i++ {
		st := mk(i)
		enc, ends := st.AppendComponentKeys(nil, nil)
		encs[i], endss[i] = enc, ends
		fps[i] = model.Hash64(enc)
	}
	return shape, encs, fps, endss
}

func BenchmarkShardedVisited(b *testing.B) {
	shape, encs, fps, endss := benchComponentStates(4096)
	reportBytes := func(b *testing.B, s parVisited) {
		b.ReportMetric(float64(s.bytes())/float64(len(encs)), "bytes/state")
	}
	b.Run("MapSet", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := newMapSet()
			for j := range encs {
				s.seen(string(encs[j]))
				s.seen(string(encs[j]))
			}
		}
	})
	b.Run("Exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := newShardedSet(nil)
			for j := range encs {
				s.seen(fps[j], encs[j], endss[j])
				s.seen(fps[j], encs[j], endss[j])
			}
			reportBytes(b, s)
		}
	})
	b.Run("Collapse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := newCollapseSet(shape, nil)
			for j := range encs {
				s.seen(fps[j], encs[j], endss[j])
				s.seen(fps[j], encs[j], endss[j])
			}
			reportBytes(b, s)
		}
	})
	b.Run("ExactParallel", func(b *testing.B) {
		b.ReportAllocs()
		const workers = 4
		for i := 0; i < b.N; i++ {
			s := newShardedSet(nil)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for j := w; j < len(encs); j += workers {
						s.seen(fps[j], encs[j], endss[j])
						s.seen(fps[j], encs[j], endss[j])
					}
				}(w)
			}
			wg.Wait()
		}
	})
	b.Run("CollapseParallel", func(b *testing.B) {
		b.ReportAllocs()
		const workers = 4
		for i := 0; i < b.N; i++ {
			s := newCollapseSet(shape, nil)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for j := w; j < len(encs); j += workers {
						s.seen(fps[j], encs[j], endss[j])
						s.seen(fps[j], encs[j], endss[j])
					}
				}(w)
			}
			wg.Wait()
		}
	})
}
