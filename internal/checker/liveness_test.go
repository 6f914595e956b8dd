package checker

import (
	"strings"
	"testing"

	"pnp/internal/ltl"
	"pnp/internal/model"
	"pnp/internal/pml"
)

func props(t *testing.T, prog *pml.Compiled, defs map[string]string) map[string]pml.RExpr {
	t.Helper()
	p, err := PropsFromSource(prog, defs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLTLEventuallyHolds(t *testing.T) {
	s := sysFromSource(t, `
byte x;
active proctype P() { x = 1; x = 2 }`)
	p := props(t, s.Prog, map[string]string{"done": "x == 2"})
	res := verifyLTL(t, s, Options{}, "<> done", p)
	if !res.OK {
		t.Fatalf("expected <>done to hold, got %s\n%s", res.Summary(), res.Trace)
	}
}

func TestLTLEventuallyViolated(t *testing.T) {
	// x may never become 2: the loop can keep choosing the first branch.
	s := sysFromSource(t, `
byte x;
active proctype P() {
	do
	:: x = 0
	:: x = 2
	od
}`)
	p := props(t, s.Prog, map[string]string{"done": "x == 2"})
	res := verifyLTL(t, s, Options{}, "<> done", p)
	if res.OK || res.Kind != AcceptanceCycle {
		t.Fatalf("expected acceptance cycle, got %s", res.Summary())
	}
	if res.Trace == nil || len(res.Trace.Cycle) == 0 {
		t.Fatal("no cycle in counterexample")
	}
}

func TestLTLAlwaysHolds(t *testing.T) {
	s := sysFromSource(t, `
byte x;
active proctype P() {
	do
	:: x = 1
	:: x = 0
	od
}`)
	p := props(t, s.Prog, map[string]string{"small": "x < 2"})
	res := verifyLTL(t, s, Options{}, "[] small", p)
	if !res.OK {
		t.Fatalf("expected []small to hold, got %s", res.Summary())
	}
}

func TestLTLAlwaysViolated(t *testing.T) {
	s := sysFromSource(t, `
byte x;
active proctype P() { x = 1; x = 5 }`)
	p := props(t, s.Prog, map[string]string{"small": "x < 2"})
	res := verifyLTL(t, s, Options{}, "[] small", p)
	if res.OK {
		t.Fatalf("expected violation, got %s", res.Summary())
	}
	if res.Kind != AcceptanceCycle {
		t.Fatalf("kind = %s", res.Kind)
	}
}

func TestLTLStutterExtensionAtTermination(t *testing.T) {
	// A terminating run stutters forever in its final state, so []<>p
	// fails if p is false at the end, even though the run is finite.
	s := sysFromSource(t, `
byte x;
active proctype P() { x = 1; x = 0 }`)
	p := props(t, s.Prog, map[string]string{"on": "x == 1"})
	res := verifyLTL(t, s, Options{}, "[] <> on", p)
	if res.OK {
		t.Fatal("[]<>on should fail: the final state has x==0 forever")
	}
	res2 := verifyLTL(t, sysFromSource(t, `
byte x;
active proctype P() { x = 0; x = 1 }`), Options{}, "<> [] on", p)
	if !res2.OK {
		t.Fatalf("<>[]on should hold via stuttering at the end: %s", res2.Summary())
	}
}

func TestLTLResponseProperty(t *testing.T) {
	// Every request is eventually acknowledged.
	src := `
byte req, ack;
chan c = [1] of { byte };
active proctype Client() {
	do
	:: req = 1; c!1;
	   ack == 1 -> req = 0; ack = 0
	od
}
active proctype Server() {
	byte m;
	end: do
	:: c?m -> ack = 1
	od
}`
	s := sysFromSource(t, src)
	p := props(t, s.Prog, map[string]string{"requested": "req == 1", "acked": "ack == 1"})
	res := verifyLTL(t, s, Options{}, "[] (requested -> <> acked)", p)
	if !res.OK {
		t.Fatalf("response property should hold: %s\n%s", res.Summary(), res.Trace)
	}
}

func TestLTLResponseViolatedWhenServerMayDrop(t *testing.T) {
	// The server may nondeterministically ignore a request forever.
	src := `
byte req, ack;
chan c = [1] of { byte };
active proctype Client() {
	req = 1;
	c!1
}
active proctype Server() {
	byte m;
	end: do
	:: c?m
	:: c?m -> ack = 1
	od
}`
	s := sysFromSource(t, src)
	p := props(t, s.Prog, map[string]string{"requested": "req == 1", "acked": "ack == 1"})
	res := verifyLTL(t, s, Options{}, "[] (requested -> <> acked)", p)
	if res.OK || res.Kind != AcceptanceCycle {
		t.Fatalf("expected response violation, got %s", res.Summary())
	}
}

func TestLTLUndefinedProposition(t *testing.T) {
	s := sysFromSource(t, `byte x; active proctype P() { x = 1 }`)
	res := verifyLTL(t, s, Options{}, "<> nosuch", map[string]pml.RExpr{})
	if res.OK || res.Kind != RuntimeError {
		t.Fatalf("expected runtime error, got %s", res.Summary())
	}
	if !strings.Contains(res.Message, "nosuch") {
		t.Errorf("message = %q", res.Message)
	}
}

func TestLTLParseErrorSurfaces(t *testing.T) {
	s := sysFromSource(t, `byte x; active proctype P() { x = 1 }`)
	res := verifyLTL(t, s, Options{}, "<> (", map[string]pml.RExpr{})
	if res.OK || res.Kind != RuntimeError {
		t.Fatalf("expected parse error, got %s", res.Summary())
	}
}

func TestLTLAssertionFoundDuringLivenessSearch(t *testing.T) {
	s := sysFromSource(t, `
byte x;
active proctype P() { x = 1; assert(false) }`)
	p := props(t, s.Prog, map[string]string{"q": "x == 0"})
	res := verifyLTL(t, s, Options{}, "[] (q || !q)", p)
	if res.OK || res.Kind != Assertion {
		t.Fatalf("expected assertion surfaced, got %s", res.Summary())
	}
}

func TestLTLNextOperator(t *testing.T) {
	s := sysFromSource(t, `
byte x;
active proctype P() { x = 1; x = 2; x = 3 }`)
	p := props(t, s.Prog, map[string]string{"one": "x == 1", "zero": "x == 0"})
	res := verifyLTL(t, s, Options{}, "zero && X one", p)
	if !res.OK {
		t.Fatalf("zero && X one should hold on the single path: %s", res.Summary())
	}
	res2 := verifyLTL(t, sysFromSource(t, `
byte x;
active proctype P() { x = 1; x = 2; x = 3 }`), Options{}, "X X zero", p)
	if res2.OK {
		t.Fatal("X X zero should fail (x==2 at step 2)")
	}
}

// TestLTLMaxStatesClamp: the product search stops within one state of
// MaxStates and says it was cut short.
func TestLTLMaxStatesClamp(t *testing.T) {
	s := sysFromSource(t, `
byte x;
active proctype P() { do :: x < 200 -> x = x + 1 :: else -> break od }`)
	p := props(t, s.Prog, map[string]string{"big": "x > 100"})
	res := verifyLTL(t, s, Options{MaxStates: 5}, "<> big", p)
	if res.Kind != SearchLimit || !res.Stats.Truncated {
		t.Fatalf("want a truncated search limit verdict, got %s", res.Summary())
	}
	if res.Stats.StatesStored != 6 {
		t.Errorf("StatesStored = %d, want MaxStates+1 = 6", res.Stats.StatesStored)
	}
}

// builtProduct builds the product of s and the automaton for ¬formula,
// storing every edge when all is set.
func builtProduct(t *testing.T, s *model.System, opts Options, formula string, defs map[string]string, all bool) (*product, *Result) {
	t.Helper()
	f, err := ltl.Parse(formula)
	if err != nil {
		t.Fatal(err)
	}
	c := New(s, opts)
	c.allEdges = all
	p, err := c.ltlProduct(f, props(t, s.Prog, defs))
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{OK: true}
	if !p.build(res, nil, nil) {
		t.Fatalf("%s: build ended early: %s", formula, res.Summary())
	}
	return p, res
}

const loopXY = `
byte x, y;
active proctype P() { do :: x = 1 - x :: y < 3 -> y = y + 1 od }`

// TestLTLProductStoresOnlyAcceptingComponentEdges: an edge is stored
// only inside an automaton component that can carry an accepting cycle.
// A [] p product that never leaves the automaton's non-accepting start
// component stores none and needs no SCC pass; a <> p product whose
// runs stay in its one accepting component stores every edge.
func TestLTLProductStoresOnlyAcceptingComponentEdges(t *testing.T) {
	defs := map[string]string{"p": "y < 4", "q": "y == 9"}
	p, _ := builtProduct(t, sysFromSource(t, loopXY), Options{WeakFairness: true}, "[] p", defs, false)
	if p.to.size() != 0 || p.movers.size() != 0 || p.accepting {
		t.Errorf("[] p: %d edges and %d movers stored, accepting=%v; want none", p.to.size(), p.movers.size(), p.accepting)
	}
	full, _ := builtProduct(t, sysFromSource(t, loopXY), Options{WeakFairness: true}, "[] p", defs, true)
	if full.to.size() == 0 || full.nodes.size() != p.nodes.size() {
		t.Errorf("[] p with every edge: %d edges, %d nodes (pruned %d)", full.to.size(), full.nodes.size(), p.nodes.size())
	}

	p, res := builtProduct(t, sysFromSource(t, loopXY), Options{}, "<> q", defs, false)
	full, _ = builtProduct(t, sysFromSource(t, loopXY), Options{}, "<> q", defs, true)
	if p.to.size() == 0 || p.to.size() != full.to.size() || p.movers.size() != 0 || !p.accepting {
		t.Errorf("<> q: %d edges stored (every edge: %d), %d movers without fairness, accepting=%v; want all of them, 0, true",
			p.to.size(), full.to.size(), p.movers.size(), p.accepting)
	}
	if p.to.size() != res.Stats.Transitions {
		t.Errorf("<> q: %d edges stored for %d transitions", p.to.size(), res.Stats.Transitions)
	}
}

// TestStateGraphKeepsEveryEdge: AG EF and WriteDOT read the state graph,
// which stores an edge per transition.
func TestStateGraphKeepsEveryEdge(t *testing.T) {
	s := sysFromSource(t, loopXY)
	c := New(s, Options{})
	p := c.stateGraph(0)
	res := &Result{}
	if !p.build(res, nil, nil) {
		t.Fatal(res.Summary())
	}
	if p.to.size() == 0 || p.to.size() != res.Stats.Transitions {
		t.Errorf("state graph: %d edges for %d transitions", p.to.size(), res.Stats.Transitions)
	}
	var sb strings.Builder
	if err := c.WriteDOT(&sb, 100); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), " -> "); n != res.Stats.Transitions {
		t.Errorf("DOT draws %d edges for %d transitions", n, res.Stats.Transitions)
	}
}

// TestColumnPagesNeverMove: a row read before the column grows past
// many pages still aliases the column's storage.
func TestColumnPagesNeverMove(t *testing.T) {
	c := column[uint64]{width: 3}
	first := c.grow()
	first[2] = 7
	for i := 1; i < 3<<columnPageLog2; i++ {
		r := c.grow()
		r[0] = uint64(i)
	}
	first[1] = 9
	if r := c.row(0); r[1] != 9 || r[2] != 7 || len(r) != 3 {
		t.Fatalf("row 0 = %v", r)
	}
	if c.size() != 3<<columnPageLog2 || c.capacity() != 9<<columnPageLog2 || c.row(5000)[0] != 5000 {
		t.Fatalf("size %d, capacity %d, row 5000 %v", c.size(), c.capacity(), c.row(5000))
	}
	var b column[bool]
	b.push(true)
	b.row(0)[0] = false
	if b.at(0) || b.size() != 1 {
		t.Fatal("a width-0 column is not one value per row")
	}
}

// TestCycleCompsMatchesReachability: the automaton classification
// against a reachability closure. Two states share a number iff each
// reaches the other, and a state has one iff it reaches itself and
// shares its component with an accepting state.
func TestCycleCompsMatchesReachability(t *testing.T) {
	for _, formula := range []string{"[] p", "<> p", "[] <> p", "[] (p -> <> q)", "<> [] p", "p U q",
		"[] !p", "(p U q) U (<> [] p)", "[] (p -> X (q U p))", "<> (p && X X !q) || [] <> (p && !q)"} {
		f, err := ltl.Parse(formula)
		if err != nil {
			t.Fatal(err)
		}
		aut, err := ltl.Translate(ltl.Not(f))
		if err != nil {
			t.Fatal(err)
		}
		n := len(aut.States)
		reach := make([][]bool, n) // reach[q][r]: one or more transitions lead from q to r
		for q := range reach {
			reach[q] = make([]bool, n)
			for stack := []int{q}; len(stack) > 0; {
				r := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, tr := range aut.States[r].Trans {
					if !reach[q][tr.Dst] {
						reach[q][tr.Dst] = true
						stack = append(stack, tr.Dst)
					}
				}
			}
		}
		comp := cycleComps(aut)
		for q := range n {
			kept := false
			for r := range n {
				mutual := reach[q][r] && reach[r][q]
				kept = kept || mutual && aut.States[r].Accepting
				if comp[q] >= 0 && (comp[q] == comp[r]) != mutual {
					t.Errorf("%s: states %d and %d: numbers %d and %d, mutually reachable %v", formula, q, r, comp[q], comp[r], mutual)
				}
			}
			if kept != (comp[q] >= 0) {
				t.Errorf("%s: state %d numbered %d, can carry an accepting cycle %v", formula, q, comp[q], kept)
			}
		}
	}
}
