package checker

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pnp/internal/model"
	"pnp/internal/obs"
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
// level engine took over breadth-first search; the literals are what it
// reported for parOKSrc at the last commit that had it (87cea14), so the
// check it provided survives its removal.
func TestParallelSafetyStatsMatchSequentialBFS(t *testing.T) {
	want := Stats{StatesStored: 92, StatesMatched: 65, Transitions: 156, MaxDepth: 26}
	for _, opts := range []Options{{}, {Workers: 2}} {
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
// which Options{} and Options{Workers: 1} must be one engine.
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

// Workers: 0 and Workers: 1 select the same engine run the same way:
// verdict, every stat, and the counterexample are identical.
func TestBFSIsTheLevelEngineAtOneWorker(t *testing.T) {
	for name, mk := range bfsIdentityModels(t) {
		bfs := New(mk(), Options{}).CheckSafety()
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
		par := New(sysFromSource(t, shortestCESrc), Options{Workers: w}).CheckSafety()
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
	// 92 states, what the sequential search stored at 87cea14.
	safety := New(sysFromSource(t, parOKSrc), Options{}).CheckSafety()
	if res.Stats.StatesStored != 92 || safety.Stats.StatesStored != 92 {
		t.Errorf("exhaustive reachability stored %d states, safety %d, want 92",
			res.Stats.StatesStored, safety.Stats.StatesStored)
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

// There is one safety engine: every combination of worker count,
// reduction and unreached reporting runs the level engine's phase,
// whose name the bench reads. Unreached edges are listed unless the
// reduction is on.
func TestEngineDispatch(t *testing.T) {
	for _, w := range []int{0, 1, 4} {
		for _, opts := range []Options{{}, {PartialOrder: true}, {ReportUnreached: true}, {PartialOrder: true, ReportUnreached: true}} {
			opts.Workers = w
			name := fmt.Sprintf("workers=%d por=%t unreached=%t", w, opts.PartialOrder, opts.ReportUnreached)
			var phase string
			opts.Progress = func(p Progress) { phase = p.Phase }
			res := New(sysFromSource(t, dispatchSrc), opts).CheckSafety()
			if !res.OK {
				t.Fatalf("%s: %s", name, res.Summary())
			}
			if phase != "safety-par-bfs" {
				t.Errorf("%s: ran %q, want safety-par-bfs", name, phase)
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

// TestRunLevelClaimsEveryIndexOnce: whatever the worker count, level
// size and segment bounds — an even split, one worker owning the whole
// level, or bounds left over from another level — runLevel hands every
// index to work exactly once. Once stop is set mid-level, each worker
// finishes at most the node in hand, well within one chunk.
func TestRunLevelClaimsEveryIndexOnce(t *testing.T) {
	sys := sysFromSource(t, parOKSrc)
	for _, workers := range []int{1, 2, 3, 8} {
		r := New(sys, Options{Workers: workers}).newParRunner("test")
		for _, n := range []int{0, 1, 7, 1000} {
			even := make([]int, workers+1)
			skewed := make([]int, workers+1)
			stale := make([]int, workers+1)
			for k := range even {
				even[k] = k * n / workers
				skewed[k] = n // worker 0 owns the level
				stale[k] = k * (n + 5) / workers
			}
			skewed[0] = 0
			for name, bounds := range map[string][]int{"even": even, "skewed": skewed, "stale": stale, "none": nil} {
				hits := make([]atomic.Int32, n)
				r.runLevel(n, bounds, func(_ *parWorker, i int) { hits[i].Add(1) })
				for i := range hits {
					if h := hits[i].Load(); h != 1 {
						t.Fatalf("workers=%d n=%d %s bounds: index %d worked %d times", workers, n, name, i, h)
					}
				}
				if n < 2 {
					continue
				}
				// after counts the nodes begun with stop already set.
				var calls, after atomic.Int64
				r.runLevel(n, bounds, func(*parWorker, int) {
					if r.stop.Load() {
						after.Add(1)
					}
					if calls.Add(1) == int64(n/2) {
						r.stop.Store(true)
					}
				})
				r.stop.Store(false)
				if extra := after.Load(); extra > int64(workers-1) {
					t.Fatalf("workers=%d n=%d %s bounds: %d nodes worked after stop", workers, n, name, extra)
				}
			}
		}
		r.close()
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
		levels := r.seedRoot()
		var bounds []int
		res := &Result{}
		for li := 0; len(levels[li]) > 0; li++ {
			next, nextBounds, _ := r.expandLevel(res, levels[li], bounds, true)
			levels = r.advance(levels, li, bounds, next)
			bounds = nextBounds
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

// The parallel bitstate set marks exactly the two bitstateHashes bits of
// each key, as a plain one-goroutine bit array does, and contains reads
// them without setting any.
func TestParBitstateSetMatchesSequentialBits(t *testing.T) {
	const bits = 14
	seq := make([]bool, 1<<bits)
	par := newParBitstateSet(bits, nil)
	stored := 0
	for i := 0; i < 500; i++ {
		enc := encOf(i)
		a, b := bitstateHashes(model.Hash64(enc), par.mask)
		want := seq[a] && seq[b]
		if got := par.contains(model.Hash64(enc), enc); got != want {
			t.Fatalf("key %d: contains %v before insert, sequential %v", i, got, want)
		}
		if got := par.seen(0, model.Hash64(enc), enc); got != want {
			t.Fatalf("key %d: parallel bitstate %v, sequential %v", i, got, want)
		}
		if !want {
			stored++
		}
		seq[a], seq[b] = true, true
		if !par.contains(model.Hash64(enc), enc) {
			t.Fatalf("key %d: not contained after insert", i)
		}
	}
	if par.size() != stored {
		t.Fatalf("sizes diverge: %d vs %d", par.size(), stored)
	}
}

// componentSrc has the component structure of a realistic composition:
// several processes with locals, globals and buffered channels.
const componentSrc = `
byte g0, g1, g2, g3, g4, g5, g6, g7;
chan c0 = [3] of { byte }; chan c1 = [2] of { byte }; chan c2 = [1] of { byte }; chan c3 = [2] of { byte };
active [6] proctype P() { byte x, y; skip }`

// benchComponentStates builds n distinct vectors of componentSrc's
// layout where consecutive ones differ in one or two components — the
// neighbor structure collapse compression exploits. Returns the shape
// plus each vector and its fingerprint.
func benchComponentStates(tb testing.TB, n int) (shape *model.State, encs [][]byte, fps []uint64) {
	shape = sysFromSource(tb, componentSrc).InitialState()
	encs = make([][]byte, n)
	fps = make([]uint64, n)
	for i := 0; i < n; i++ {
		v := shape.AppendKey(nil)
		// PCs 0 and 1, global g0, locals of P[0], P[1], P[2] and P[5],
		// c0: distinct for n up to 7 * lcm(35, 132) = 32,340.
		for off, x := range map[int]int{1: i % 7, 2: i / 7 % 5, 7: i % 3, 15: i % 11, 17: i / 11 % 4, 19: i / 4620 % 7, 25: i / 44 % 3, 28: i % 5} {
			v[off] = byte(x)
		}
		encs[i], fps[i] = v, model.Hash64(v)
	}
	return shape, encs, fps
}

func BenchmarkVisitedSets(b *testing.B) {
	shape, encs, fps := benchComponentStates(b, 4096)
	reportBytes := func(b *testing.B, s parVisited) {
		b.ReportMetric(float64(s.bytes())/float64(len(encs)), "bytes/state")
	}
	b.Run("MapSet", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := make(map[string]struct{}, 1024)
			for j := range encs {
				_ = s[string(encs[j])]
				s[string(encs[j])] = struct{}{}
			}
		}
	})
	b.Run("Exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := newStateTable(len(encs[0]), 1, nil)
			for j := range encs {
				s.seen(0, fps[j], encs[j])
				s.seen(0, fps[j], encs[j])
			}
			reportBytes(b, s)
		}
	})
	b.Run("Collapse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := newCollapseSet(shape, nil)
			for j := range encs {
				s.seen(0, fps[j], encs[j])
				s.seen(0, fps[j], encs[j])
			}
			reportBytes(b, s)
		}
	})
	b.Run("ExactParallel", func(b *testing.B) {
		b.ReportAllocs()
		const workers = 4
		for i := 0; i < b.N; i++ {
			s := newStateTable(len(encs[0]), workers, nil)
			gate := s.gate
			gate.enter(workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					defer gate.leave()
					for j := w; j < len(encs); j += workers {
						gate.poll()
						s.seen(w, fps[j], encs[j])
						s.seen(w, fps[j], encs[j])
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
						s.seen(w, fps[j], encs[j])
						s.seen(w, fps[j], encs[j])
					}
				}(w)
			}
			wg.Wait()
		}
	})
}

// Each level's wall time splits exactly into the workers' startup, busy
// and barrier-wait times: at 2 workers the three counters sum to twice
// the levels' wall time. At one worker the level runs inline, so there
// is no startup and no wait.
func TestWorkerTimeSplitsLevelWallTime(t *testing.T) {
	for _, workers := range []int{1, 2} {
		reg := obs.NewRegistry()
		r := New(sysFromSource(t, parOKSrc), Options{Workers: workers, Metrics: reg}).newParRunner("test")
		var wall time.Duration
		levels := r.seedRoot()
		for li := 0; len(levels[li]) > 0; li++ {
			cur := levels[li]
			wall += r.runLevel(len(cur), nil, func(w *parWorker, i int) { w.expand(r, cur, i, false) })
			next, _, _ := r.collect(&Result{})
			levels = append(levels, next)
		}
		r.close()
		counter := func(name string) int64 { return reg.Counter(obs.Labels(name, "phase", "test")).Value() }
		startup, busy, wait := counter("checker_worker_startup_ns_total"), counter("checker_worker_busy_ns_total"),
			counter("checker_worker_barrier_wait_ns_total")
		if len(levels) < 5 || busy <= 0 || startup+busy+wait != int64(workers)*wall.Nanoseconds() {
			t.Errorf("workers=%d, %d levels: startup %d + busy %d + wait %d ns, want %d × %d ns of level wall time",
				workers, len(levels), startup, busy, wait, workers, wall.Nanoseconds())
		}
		if workers == 1 && (startup != 0 || wait != 0) {
			t.Errorf("one worker: startup %d ns, wait %d ns; want none", startup, wait)
		}
	}
}
