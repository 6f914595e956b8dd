package checker

import (
	"strings"
	"testing"

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
	res := New(s, Options{}).CheckLTL("<> done", p)
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
	res := New(s, Options{}).CheckLTL("<> done", p)
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
	res := New(s, Options{}).CheckLTL("[] small", p)
	if !res.OK {
		t.Fatalf("expected []small to hold, got %s", res.Summary())
	}
}

func TestLTLAlwaysViolated(t *testing.T) {
	s := sysFromSource(t, `
byte x;
active proctype P() { x = 1; x = 5 }`)
	p := props(t, s.Prog, map[string]string{"small": "x < 2"})
	res := New(s, Options{}).CheckLTL("[] small", p)
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
	res := New(s, Options{}).CheckLTL("[] <> on", p)
	if res.OK {
		t.Fatal("[]<>on should fail: the final state has x==0 forever")
	}
	res2 := New(sysFromSource(t, `
byte x;
active proctype P() { x = 0; x = 1 }`), Options{}).CheckLTL("<> [] on", p)
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
	res := New(s, Options{}).CheckLTL("[] (requested -> <> acked)", p)
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
	res := New(s, Options{}).CheckLTL("[] (requested -> <> acked)", p)
	if res.OK || res.Kind != AcceptanceCycle {
		t.Fatalf("expected response violation, got %s", res.Summary())
	}
}

func TestLTLUndefinedProposition(t *testing.T) {
	s := sysFromSource(t, `byte x; active proctype P() { x = 1 }`)
	res := New(s, Options{}).CheckLTL("<> nosuch", map[string]pml.RExpr{})
	if res.OK || res.Kind != RuntimeError {
		t.Fatalf("expected runtime error, got %s", res.Summary())
	}
	if !strings.Contains(res.Message, "nosuch") {
		t.Errorf("message = %q", res.Message)
	}
}

func TestLTLParseErrorSurfaces(t *testing.T) {
	s := sysFromSource(t, `byte x; active proctype P() { x = 1 }`)
	res := New(s, Options{}).CheckLTL("<> (", map[string]pml.RExpr{})
	if res.OK || res.Kind != RuntimeError {
		t.Fatalf("expected parse error, got %s", res.Summary())
	}
}

func TestLTLAssertionFoundDuringLivenessSearch(t *testing.T) {
	s := sysFromSource(t, `
byte x;
active proctype P() { x = 1; assert(false) }`)
	p := props(t, s.Prog, map[string]string{"q": "x == 0"})
	res := New(s, Options{}).CheckLTL("[] (q || !q)", p)
	if res.OK || res.Kind != Assertion {
		t.Fatalf("expected assertion surfaced, got %s", res.Summary())
	}
}

func TestLTLNextOperator(t *testing.T) {
	s := sysFromSource(t, `
byte x;
active proctype P() { x = 1; x = 2; x = 3 }`)
	p := props(t, s.Prog, map[string]string{"one": "x == 1", "zero": "x == 0"})
	res := New(s, Options{}).CheckLTL("zero && X one", p)
	if !res.OK {
		t.Fatalf("zero && X one should hold on the single path: %s", res.Summary())
	}
	res2 := New(sysFromSource(t, `
byte x;
active proctype P() { x = 1; x = 2; x = 3 }`), Options{}).CheckLTL("X X zero", p)
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
	res := New(s, Options{MaxStates: 5}).CheckLTL("<> big", p)
	if res.Kind != SearchLimit || !res.Stats.Truncated {
		t.Fatalf("want a truncated search limit verdict, got %s", res.Summary())
	}
	if res.Stats.StatesStored != 6 {
		t.Errorf("StatesStored = %d, want MaxStates+1 = 6", res.Stats.StatesStored)
	}
}
