package checker

import (
	"context"
	"testing"
	"time"

	"pnp/internal/model"
	"pnp/internal/pml"
)

// unboundedCounters is a system whose state space is far too large to
// exhaust quickly: three 8-bit counters free-running independently.
const unboundedCounters = `
byte a, b, c;
active proctype A() { do :: a = a + 1 od }
active proctype B() { do :: b = b + 1 od }
active proctype C() { do :: c = c + 1 od }
`

func cancelTestSystem(t *testing.T) *model.System {
	t.Helper()
	prog, err := pml.CompileSource(unboundedCounters)
	if err != nil {
		t.Fatal(err)
	}
	sys := model.New(prog)
	if err := sys.SpawnActive(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestContextCancelSafety: an expired context aborts the safety search
// with a Canceled verdict instead of exhausting the 16M-state space.
func TestContextCancelSafety(t *testing.T) {
	sys := cancelTestSystem(t)
	for _, por := range []bool{false, true} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		res := New(sys, Options{Context: ctx, PartialOrder: por, IgnoreDeadlock: true}).CheckSafety()
		cancel()
		if res.OK || res.Kind != Canceled {
			t.Fatalf("por=%v: want Canceled verdict, got %s", por, res.Summary())
		}
		if !res.Stats.Truncated {
			t.Fatalf("por=%v: canceled search must be marked truncated", por)
		}
	}
}

// TestContextCancelLTL: cancellation also aborts the liveness product
// search.
func TestContextCancelLTL(t *testing.T) {
	sys := cancelTestSystem(t)
	prog := sys.Prog
	props, err := PropsFromSource(prog, map[string]string{"big": "a > 200"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res := New(sys, Options{Context: ctx}).CheckLTL("<> big", props)
	if res.OK || res.Kind != Canceled {
		t.Fatalf("want Canceled verdict, got %s", res.Summary())
	}
}

// TestContextNotCanceled: a live context leaves a small search untouched.
func TestContextNotCanceled(t *testing.T) {
	prog, err := pml.CompileSource(`
byte x;
active proctype P() { do :: x < 3 -> x = x + 1 :: else -> break od }
`)
	if err != nil {
		t.Fatal(err)
	}
	sys := model.New(prog)
	if err := sys.SpawnActive(); err != nil {
		t.Fatal(err)
	}
	res := New(sys, Options{Context: context.Background()}).CheckSafety()
	if !res.OK {
		t.Fatalf("want verified, got %s", res.Summary())
	}
}
