package checker

import (
	"slices"
	"strings"
	"testing"

	"pnp/internal/checker/ref"
	"pnp/internal/model"
	"pnp/internal/pml"
)

func sysFromSource(t *testing.T, src string) *model.System {
	t.Helper()
	prog, err := pml.CompileSource(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := model.New(prog)
	if err := s.SpawnActive(); err != nil {
		t.Fatalf("SpawnActive: %v", err)
	}
	return s
}

func TestVerifiedTermination(t *testing.T) {
	s := sysFromSource(t, `
byte x;
active proctype P() { x = 1; x = 2 }
active proctype Q() { x = 3 }`)
	res := New(s, Options{}).CheckSafety()
	if !res.OK {
		t.Fatalf("expected OK, got %s", res.Summary())
	}
	if res.Stats.StatesStored == 0 || res.Stats.Transitions == 0 {
		t.Errorf("stats look empty: %+v", res.Stats)
	}
}

func TestAssertionViolationFound(t *testing.T) {
	s := sysFromSource(t, `
byte x;
active proctype P() { x = 1 }
active proctype Q() {
	x == 1 -> assert(x == 0)
}`)
	res := New(s, Options{}).CheckSafety()
	if res.OK || res.Kind != Assertion {
		t.Fatalf("expected assertion violation, got %s", res.Summary())
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("no counterexample trace")
	}
	if !strings.Contains(res.Trace.String(), "assert") {
		t.Errorf("trace does not mention assert:\n%s", res.Trace)
	}
}

func TestDeadlockDetected(t *testing.T) {
	// Two processes each waiting to receive before sending: classic cycle.
	s := sysFromSource(t, `
chan a = [0] of { byte };
chan b = [0] of { byte };
active proctype P() { byte x; a?x; b!1 }
active proctype Q() { byte y; b?y; a!1 }`)
	res := New(s, Options{}).CheckSafety()
	if res.OK || res.Kind != Deadlock {
		t.Fatalf("expected deadlock, got %s", res.Summary())
	}
	if !strings.Contains(res.Message, "P[0]") || !strings.Contains(res.Message, "Q[1]") {
		t.Errorf("deadlock message should list stuck processes: %q", res.Message)
	}
}

func TestEndLabelSuppressesDeadlock(t *testing.T) {
	// A server blocked at an end-labeled receive loop is a valid end state.
	s := sysFromSource(t, `
chan c = [0] of { byte };
active proctype Server() {
	byte m;
	end: do
	:: c?m
	od
}
active proctype Client() {
	c!1
}`)
	res := New(s, Options{}).CheckSafety()
	if !res.OK {
		t.Fatalf("expected OK (end label), got %s", res.Summary())
	}
}

func TestWithoutEndLabelSameSystemDeadlocks(t *testing.T) {
	s := sysFromSource(t, `
chan c = [0] of { byte };
active proctype Server() {
	byte m;
	do
	:: c?m
	od
}
active proctype Client() {
	c!1
}`)
	res := New(s, Options{}).CheckSafety()
	if res.OK || res.Kind != Deadlock {
		t.Fatalf("expected deadlock without end label, got %s", res.Summary())
	}
}

func TestInvariantViolation(t *testing.T) {
	s := sysFromSource(t, `
byte count;
active proctype P() { count = count + 1; count = count + 1 }`)
	prog := s.Prog
	inv, err := InvariantFromSource(prog, "bounded", "count < 2")
	if err != nil {
		t.Fatal(err)
	}
	res := New(s, Options{Invariants: []Invariant{inv}}).CheckSafety()
	if res.OK || res.Kind != InvariantViolation {
		t.Fatalf("expected invariant violation, got %s", res.Summary())
	}
	if !strings.Contains(res.Message, "bounded") {
		t.Errorf("message = %q", res.Message)
	}
}

func TestInvariantHolds(t *testing.T) {
	s := sysFromSource(t, `
byte count;
active proctype P() { count = count + 1 }`)
	inv, err := InvariantFromSource(s.Prog, "bounded", "count <= 1")
	if err != nil {
		t.Fatal(err)
	}
	res := New(s, Options{Invariants: []Invariant{inv}}).CheckSafety()
	if !res.OK {
		t.Fatalf("expected OK, got %s", res.Summary())
	}
}

func TestPetersonMutualExclusion(t *testing.T) {
	// Peterson's algorithm for two processes: the mutex invariant holds.
	src := `
bool flag0, flag1;
byte turn;
byte incrit;
active proctype P0() {
	do
	:: flag0 = 1;
	   turn = 1;
	   (flag1 == 0 || turn == 0);
	   incrit = incrit + 1;
	   assert(incrit == 1);
	   incrit = incrit - 1;
	   flag0 = 0
	od
}
active proctype P1() {
	do
	:: flag1 = 1;
	   turn = 0;
	   (flag0 == 0 || turn == 1);
	   incrit = incrit + 1;
	   assert(incrit == 1);
	   incrit = incrit - 1;
	   flag1 = 0
	od
}`
	s := sysFromSource(t, src)
	res := New(s, Options{IgnoreDeadlock: true}).CheckSafety()
	if !res.OK {
		t.Fatalf("Peterson should satisfy mutex, got %s\n%s", res.Summary(), res.Trace)
	}
}

func TestBrokenMutexCaught(t *testing.T) {
	// Naive flag-based entry (no turn variable) violates mutual exclusion.
	src := `
byte incrit;
active [2] proctype P() {
	do
	:: incrit = incrit + 1;
	   assert(incrit == 1);
	   incrit = incrit - 1
	od
}`
	s := sysFromSource(t, src)
	res := New(s, Options{IgnoreDeadlock: true}).CheckSafety()
	if res.OK || res.Kind != Assertion {
		t.Fatalf("expected mutex violation, got %s", res.Summary())
	}
}

func TestBFSShortestCounterexample(t *testing.T) {
	// The bug is reachable in 3 steps, but a depth-first search may
	// wander first.
	src := `
byte x;
active proctype P() {
	do
	:: x < 100 -> x = x + 1
	:: x = 99
	od
}
active proctype Watch() {
	x == 99 -> assert(false)
}`
	want := ref.Check(sysFromSource(t, src))
	bfs := New(sysFromSource(t, src), Options{IgnoreDeadlock: true}).CheckSafety()
	if bfs.OK || want.Problem == "" {
		t.Fatalf("both searches should find the bug: bfs=%v ref=%q", bfs.OK, want.Problem)
	}
	if bfs.Trace.Len() != want.CELen {
		t.Errorf("BFS trace (%d) differs from the reference search's (%d)", bfs.Trace.Len(), want.CELen)
	}
	if bfs.Trace.Len() != 3 { // x=99; guard; assert
		t.Errorf("BFS trace length = %d, want 3:\n%s", bfs.Trace.Len(), bfs.Trace)
	}
}

func TestMaxStatesLimit(t *testing.T) {
	s := sysFromSource(t, `
byte x, y;
active proctype P() {
	do
	:: x = x + 1
	:: y = y + 1
	od
}`)
	res := New(s, Options{MaxStates: 100, IgnoreDeadlock: true}).CheckSafety()
	if res.OK || res.Kind != SearchLimit || !res.Stats.Truncated {
		t.Fatalf("expected truncated search, got %s", res.Summary())
	}
}

func TestBitstateFindsViolation(t *testing.T) {
	s := sysFromSource(t, `
byte x;
active proctype P() {
	x = 1;
	assert(x == 0)
}`)
	res := New(s, Options{Storage: StorageOptions{Bitstate: true, BitstateBits: 16}}).CheckSafety()
	if res.OK || res.Kind != Assertion {
		t.Fatalf("bitstate search missed the violation: %s", res.Summary())
	}
}

func TestBitstateExploresCleanSystem(t *testing.T) {
	s := sysFromSource(t, `
byte x;
active proctype P() { x = 1; x = 2; x = 3 }`)
	res := New(s, Options{Storage: StorageOptions{Bitstate: true}}).CheckSafety()
	if !res.OK {
		t.Fatalf("got %s", res.Summary())
	}
}

func TestRuntimeErrorSurfaces(t *testing.T) {
	s := sysFromSource(t, `
byte x, y;
active proctype P() { y = 1 / x }`)
	res := New(s, Options{}).CheckSafety()
	if res.OK || res.Kind != RuntimeError {
		t.Fatalf("expected runtime error, got %s", res.Summary())
	}
}

func TestCheckReachable(t *testing.T) {
	s := sysFromSource(t, `
byte x;
active proctype P() {
	if
	:: x = 1
	:: x = 2
	fi
}`)
	two, err := s.Prog.CompileGlobalExpr("x == 2")
	if err != nil {
		t.Fatal(err)
	}
	res := New(s, Options{}).CheckReachable(two)
	if !res.OK {
		t.Fatalf("x==2 should be reachable: %s", res.Summary())
	}
	if res.Trace == nil || len(res.Trace.Prefix) != 1 {
		t.Errorf("witness should be one step, got %v", res.Trace)
	}
	three, err := s.Prog.CompileGlobalExpr("x == 3")
	if err != nil {
		t.Fatal(err)
	}
	if res := New(s, Options{}).CheckReachable(three); res.OK {
		t.Error("x==3 should be unreachable")
	}
}

func TestCheckEventuallyReachable(t *testing.T) {
	// From every state, can x still become 2? Not after taking the x=1
	// branch, which locks x at 1.
	s := sysFromSource(t, `
byte x;
active proctype P() {
	if
	:: x = 1
	:: x = 2
	fi
}`)
	two, err := s.Prog.CompileGlobalExpr("x == 2")
	if err != nil {
		t.Fatal(err)
	}
	res := New(s, Options{}).CheckEventuallyReachable(two)
	if res.OK {
		t.Fatal("AG EF (x==2) should fail: the x=1 branch makes it unreachable")
	}
	if res.Trace == nil {
		t.Error("no trace to the dead-end state")
	}

	// A system that always retains the ability to reach x==2.
	s2 := sysFromSource(t, `
byte x;
active proctype P() {
	do
	:: x = 1
	:: x = 2
	od
}`)
	two2, err := s2.Prog.CompileGlobalExpr("x == 2")
	if err != nil {
		t.Fatal(err)
	}
	if res := New(s2, Options{IgnoreDeadlock: true}).CheckEventuallyReachable(two2); !res.OK {
		t.Fatalf("AG EF (x==2) should hold in the loop system: %s", res.Summary())
	}
}

// TestEventuallyReachableStatsMatchSafety: on a violation-free program
// AG EF stores the same graph the safety search does, so it reports the
// same states, transitions and breadth-first depth as the one-worker
// level engine.
func TestEventuallyReachableStatsMatchSafety(t *testing.T) {
	src := `
byte x, y;
chan c = [2] of { byte };
active proctype P() { do :: x < 5 -> x = x + 1; c!x :: x == 5 -> break od }
active proctype Q() { byte v; do :: c?v -> y = v :: y == 5 -> break od }`
	s := sysFromSource(t, src)
	target, err := s.Prog.CompileGlobalExpr("y == 5")
	if err != nil {
		t.Fatal(err)
	}
	goal := New(s, Options{IgnoreDeadlock: true}).CheckEventuallyReachable(target)
	safe := New(sysFromSource(t, src), Options{IgnoreDeadlock: true, Workers: 1}).CheckSafety()
	if !goal.OK || !safe.OK {
		t.Fatalf("goal %s, safety %s: want both verified", goal.Summary(), safe.Summary())
	}
	g, w := goal.Stats, safe.Stats
	if g.StatesStored != w.StatesStored || g.Transitions != w.Transitions || g.MaxDepth != w.MaxDepth {
		t.Errorf("AG EF stored/transitions/depth %d/%d/%d, safety %d/%d/%d",
			g.StatesStored, g.Transitions, g.MaxDepth, w.StatesStored, w.Transitions, w.MaxDepth)
	}
	if g.MaxDepth == 0 {
		t.Error("AG EF reports depth 0")
	}
}

// TestReportUnreached: the lists are the ones the sequential DFS that
// used to implement ReportUnreached printed (at 8da67dd), at every
// worker count: the executed-edge set is the same whichever engine
// or worker executes the edges.
func TestReportUnreached(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want []string
	}{
		// The x==99 branch can never fire: x stays below 3.
		{`
byte x;
active proctype P() {
	do
	:: x < 2 -> x = x + 1
	:: x == 99 -> x = 0
	:: x == 2 -> break
	od
}`, []string{"P: guard at 5:5", "P: guard at 6:5", "P: guard at 7:5", "P: guard at 6:5", "P: x = ... at 6:16"}},
		// A fully exercised proctype reports nothing.
		{`
byte y;
active proctype Q() { y = 1; y = 2 }`, nil},
		{dispatchSrc, []string{"P: l = ... at 5:2", "P: guard at 7:5", "P: x = ... at 7:15", "Q: m = ... at 11:31"}},
	} {
		for _, w := range []int{0, 1, 4} {
			res := New(sysFromSource(t, tc.src), Options{ReportUnreached: true, Workers: w}).CheckSafety()
			if !res.OK {
				t.Fatalf("workers=%d: got %s", w, res.Summary())
			}
			if !slices.Equal(res.Unreached, tc.want) {
				t.Errorf("workers=%d: unreached = %q, want %q", w, res.Unreached, tc.want)
			}
		}
	}
}

func TestLevelEngineAndRefAgreeOnStateCount(t *testing.T) {
	src := `
byte x;
chan c = [2] of { byte };
active proctype P() { c!1; c!2; x = 1 }
active proctype Q() { byte v; c?v; c?v }`
	want := ref.Check(sysFromSource(t, src))
	bfs := New(sysFromSource(t, src), Options{}).CheckSafety()
	if !bfs.OK || want.Problem != "" {
		t.Fatalf("bfs=%s ref=%q", bfs.Summary(), want.Problem)
	}
	if want.Stored != bfs.Stats.StatesStored {
		t.Errorf("state counts differ: reference %d, level engine %d",
			want.Stored, bfs.Stats.StatesStored)
	}
}
