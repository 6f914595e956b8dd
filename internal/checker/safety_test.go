package checker

import (
	"strings"
	"testing"

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
	// The bug is reachable in 2 steps, but DFS may wander first.
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
	s1 := sysFromSource(t, src)
	dfs := New(s1, Options{IgnoreDeadlock: true}).CheckSafety()
	s2 := sysFromSource(t, src)
	bfs := New(s2, Options{IgnoreDeadlock: true, BFS: true}).CheckSafety()
	if dfs.OK || bfs.OK {
		t.Fatalf("both searches should find the bug: dfs=%v bfs=%v", dfs.OK, bfs.OK)
	}
	if bfs.Trace.Len() > dfs.Trace.Len() {
		t.Errorf("BFS trace (%d) longer than DFS trace (%d)", bfs.Trace.Len(), dfs.Trace.Len())
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

func TestReportUnreached(t *testing.T) {
	// The x==99 branch can never fire: x stays below 3.
	s := sysFromSource(t, `
byte x;
active proctype P() {
	do
	:: x < 2 -> x = x + 1
	:: x == 99 -> x = 0
	:: x == 2 -> break
	od
}`)
	res := New(s, Options{ReportUnreached: true}).CheckSafety()
	if !res.OK {
		t.Fatalf("got %s", res.Summary())
	}
	found := false
	for _, u := range res.Unreached {
		if strings.Contains(u, "P:") {
			found = true
		}
	}
	if !found {
		t.Errorf("dead branch not reported; unreached = %v", res.Unreached)
	}

	// A fully exercised proctype reports nothing.
	s2 := sysFromSource(t, `
byte y;
active proctype Q() { y = 1; y = 2 }`)
	res2 := New(s2, Options{ReportUnreached: true}).CheckSafety()
	if !res2.OK || len(res2.Unreached) != 0 {
		t.Errorf("unexpected unreached report: %v", res2.Unreached)
	}
}

func TestDFSAndBFSAgreeOnStateCount(t *testing.T) {
	src := `
byte x;
chan c = [2] of { byte };
active proctype P() { c!1; c!2; x = 1 }
active proctype Q() { byte v; c?v; c?v }`
	s1 := sysFromSource(t, src)
	dfs := New(s1, Options{}).CheckSafety()
	s2 := sysFromSource(t, src)
	bfs := New(s2, Options{BFS: true}).CheckSafety()
	if !dfs.OK || !bfs.OK {
		t.Fatalf("dfs=%s bfs=%s", dfs.Summary(), bfs.Summary())
	}
	if dfs.Stats.StatesStored != bfs.Stats.StatesStored {
		t.Errorf("state counts differ: DFS %d, BFS %d",
			dfs.Stats.StatesStored, bfs.Stats.StatesStored)
	}
}
