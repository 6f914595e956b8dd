package checker

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pnp/internal/checker/ref"
)

// porPair runs the same source with and without partial-order reduction.
func porPair(t *testing.T, src string, opts Options) (full, por *Result) {
	t.Helper()
	full = New(sysFromSource(t, src), opts).CheckSafety()
	optsPOR := opts
	optsPOR.PartialOrder = true
	por = New(sysFromSource(t, src), optsPOR).CheckSafety()
	return full, por
}

// TestPORPreservesVerdicts: across a battery of systems, reduction must
// never change the outcome.
func TestPORPreservesVerdicts(t *testing.T) {
	sources := []string{
		// Independent local counters: massive reduction possible.
		`active proctype A() { byte x; x = 1; x = 2; x = 3 }
		 active proctype B() { byte y; y = 1; y = 2; y = 3 }`,
		// Shared global: visible interleavings preserved.
		`byte g;
		 active proctype A() { g = g + 1 }
		 active proctype B() { g = g + 1 }`,
		// Assertion violation must still be found.
		`byte g;
		 active proctype A() { byte x; x = 1; x = 2; g = 1 }
		 active proctype B() { g == 1 -> assert(false) }`,
		// Deadlock must still be found.
		`chan c = [0] of { byte };
		 active proctype A() { byte x, l; l = 1; c?x }`,
		// Local spin loop with an assert elsewhere (cycle proviso).
		`byte g;
		 active proctype Spin() { byte x; end: do :: x = 1 - x od }
		 active proctype B() { g = 1; assert(g == 0) }`,
		// Rendezvous exchange.
		`chan c = [0] of { byte };
		 byte got;
		 active proctype S() { byte i; i = 7; c!i }
		 active proctype R() { c?got }`,
	}
	for i, src := range sources {
		full, por := porPair(t, src, Options{})
		if full.OK != por.OK || full.Kind != por.Kind {
			t.Errorf("source %d: verdicts differ: full=(%v,%s) por=(%v,%s)",
				i, full.OK, full.Kind, por.OK, por.Kind)
		}
		if por.Stats.StatesStored > full.Stats.StatesStored {
			t.Errorf("source %d: POR stored MORE states (%d > %d)",
				i, por.Stats.StatesStored, full.Stats.StatesStored)
		}
	}
}

// TestPORReducesIndependentInterleavings: two processes doing purely
// local work interleave exponentially without reduction and linearly
// with it.
func TestPORReducesIndependentInterleavings(t *testing.T) {
	src := `
active proctype A() { byte x; x = 1; x = 2; x = 3; x = 4; x = 5 }
active proctype B() { byte y; y = 1; y = 2; y = 3; y = 4; y = 5 }
active proctype C() { byte z; z = 1; z = 2; z = 3; z = 4; z = 5 }`
	full, por := porPair(t, src, Options{})
	if !full.OK || !por.OK {
		t.Fatalf("full=%s por=%s", full.Summary(), por.Summary())
	}
	if por.Stats.StatesStored >= full.Stats.StatesStored/10 {
		t.Errorf("expected >=10x reduction, got %d vs %d states",
			por.Stats.StatesStored, full.Stats.StatesStored)
	}
	if por.Stats.Reduced == 0 {
		t.Error("no reduced expansions recorded")
	}
}

// TestPORInvariantViolationStillFound: invariants read globals, local
// moves don't write them, so every global valuation stays reachable.
func TestPORInvariantViolationStillFound(t *testing.T) {
	src := `
byte g;
active proctype A() { byte x; x = 1; g = 1; x = 2; g = 2 }
active proctype B() { byte y; y = 1; y = 2 }`
	s := sysFromSource(t, src)
	inv, err := InvariantFromSource(s.Prog, "small", "g < 2")
	if err != nil {
		t.Fatal(err)
	}
	res := New(s, Options{PartialOrder: true, Invariants: []Invariant{inv}}).CheckSafety()
	if res.OK || res.Kind != InvariantViolation {
		t.Fatalf("POR missed the invariant violation: %s", res.Summary())
	}
}

// TestPORPeterson: the classic protocol still verifies, with fewer
// states.
func TestPORPeterson(t *testing.T) {
	src := `
bool flag0, flag1;
byte turn, incrit;
active proctype P0() {
	byte local;
	do
	:: local = 1 - local;
	   flag0 = 1; turn = 1;
	   (flag1 == 0 || turn == 0);
	   incrit = incrit + 1; assert(incrit == 1); incrit = incrit - 1;
	   flag0 = 0
	od
}
active proctype P1() {
	byte local;
	do
	:: local = 1 - local;
	   flag1 = 1; turn = 0;
	   (flag0 == 0 || turn == 1);
	   incrit = incrit + 1; assert(incrit == 1); incrit = incrit - 1;
	   flag1 = 0
	od
}`
	full, por := porPair(t, src, Options{IgnoreDeadlock: true})
	if !full.OK || !por.OK {
		t.Fatalf("full=%s por=%s", full.Summary(), por.Summary())
	}
	if por.Stats.StatesStored > full.Stats.StatesStored {
		t.Errorf("POR did not reduce: %d vs %d", por.Stats.StatesStored, full.Stats.StatesStored)
	}
}

// porProgram is a random program that, half the time, also has a local
// spin loop: a process whose only moves are process-private and never
// end, the shape the cycle proviso exists for. Half the time it also
// has an assertion on the globals, which may fail.
func porProgram(r *rand.Rand) string {
	src := randomProgram(r) + drainer
	if r.Intn(2) == 0 {
		src += "active proctype Spin() { byte s; end: do :: s = 1 - s od }\n"
	}
	if r.Intn(2) == 0 {
		src += "active proctype W() { g0 > 0 -> assert(g1 == 0) }\n"
	}
	return src
}

// TestPORDeterministicAcrossWorkersAndStorage: the reduction decides
// from the visited set frozen at the level barrier, so the verdict,
// every stat (Reduced included) and the counterexample length are the
// same at every worker count and storage tier, and after a resume from
// a checkpoint taken at a random level. The verdict is the reference
// search's, from no more states.
func TestPORDeterministicAcrossWorkersAndStorage(t *testing.T) {
	programs := 24
	if testing.Short() {
		programs = 8 // the race job runs -short
	}
	r := rand.New(rand.NewSource(38))
	for i := 0; i < programs; i++ {
		src := porProgram(r)
		base := New(sysFromSource(t, src), Options{PartialOrder: true}).CheckSafety()
		if want := ref.Check(sysFromSource(t, src)); refProblem(base) != want.Problem || base.Stats.StatesStored > want.Stored {
			t.Fatalf("program %d: POR found %q storing %d states, reference %q storing %d\n%s",
				i, refProblem(base), base.Stats.StatesStored, want.Problem, want.Stored, src)
		}
		for _, w := range []int{0, 1, 2, 8} {
			for _, tier := range []string{"exact", "collapse", "spill", "resume"} {
				opts := Options{PartialOrder: true, Workers: w}
				skipped := 0 // levels a resumed counterexample starts past
				switch tier {
				case "collapse":
					opts.Storage.Visited = VisitedCollapse
				case "spill":
					opts.Storage = StorageOptions{MemLimit: 1024, SpillDir: t.TempDir()}
				case "resume":
					skipped = 1 + r.Intn(base.Stats.MaxDepth)
					opts.Durability = porSnapshot(t, src, skipped)
				}
				res := New(sysFromSource(t, src), opts).CheckSafety()
				if res.OK != base.OK || res.Kind != base.Kind || !statsEqualIgnoringElapsed(res.Stats, base.Stats) {
					t.Fatalf("program %d, workers=%d %s: %s %+v, want %s %+v\n%s",
						i, w, tier, res.Summary(), res.Stats, base.Summary(), base.Stats, src)
				}
				if !base.OK && res.Trace.Len()+skipped != base.Trace.Len() {
					t.Fatalf("program %d, workers=%d %s: counterexample of %d steps after %d, want %d\n%s",
						i, w, tier, res.Trace.Len(), skipped, base.Trace.Len(), src)
				}
			}
		}
	}
}

// porSnapshot runs a reduced, checkpointed search of src on two workers
// and returns options resuming from the log it had committed at depth,
// the file a search killed at that barrier leaves behind.
func porSnapshot(t *testing.T, src string, depth int) *DurabilityOptions {
	t.Helper()
	var stolen []byte
	New(sysFromSource(t, src), Options{PartialOrder: true, Workers: 2, Durability: &DurabilityOptions{
		Dir: t.TempDir(), Key: "por",
		OnWrite: func(file string, d, _ int) {
			if d == depth {
				stolen, _ = os.ReadFile(file)
			}
		},
	}}).CheckSafety()
	if stolen == nil {
		t.Fatalf("no checkpoint committed at depth %d\n%s", depth, src)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, CheckpointFileName("por")), stolen, 0o644); err != nil {
		t.Fatal(err)
	}
	return &DurabilityOptions{Dir: dir, Key: "por", Resume: true}
}
