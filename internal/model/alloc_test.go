package model_test

import (
	"testing"

	"pnp/internal/bridge"
	"pnp/internal/model"
	"pnp/internal/pml"
)

// bridgeN1 is the paper's N=1 bridge (E9): 16 processes built from the
// block library.
func bridgeN1(t *testing.T) *model.System {
	t.Helper()
	b, err := bridge.Build(bridge.Config{Variant: bridge.ExactlyN, CarsPerSide: 1, N: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b.System()
}

// Guards are evaluated with the environment passed by value: no guard of
// the bridge allocates.
func TestEvalGuardAllocatesNothing(t *testing.T) {
	s := bridgeN1(t)
	st := s.InitialState()
	guards := 0
	for p, in := range s.Instances() {
		for _, n := range in.Proc.Nodes {
			for _, e := range n.Edges {
				if e.Kind != pml.EdgeGuard {
					continue
				}
				guards++
				if allocs := testing.AllocsPerRun(100, func() { model.EvalAs(s, st, p, e.Cond) }); allocs != 0 {
					t.Errorf("%s guard %q at %v: %.0f allocations, want 0", in.Name, e.Label, e.Pos, allocs)
				}
			}
		}
	}
	if guards == 0 {
		t.Fatal("the bridge has no guards")
	}
}

// maxSuccessorAllocs is what SuccessorsAppend allocates expanding the
// 30 states of bridgeWalk with a warm arena: only the message buffers
// of sends and receives, never a State or its vector.
const maxSuccessorAllocs = 42

// bridgeWalk is a fixed run of the bridge: the initial state, then each
// state's first successor. Its expansions cover guards, else, skip,
// assignment, buffered sends and receives, and rendezvous.
func bridgeWalk(s *model.System, n int) []*model.State {
	walk := []*model.State{s.InitialState()}
	for len(walk) < n {
		walk = append(walk, s.Successors(walk[len(walk)-1])[0].Next)
	}
	return walk
}

func TestSuccessorsAppendAllocations(t *testing.T) {
	s := bridgeN1(t)
	walk := bridgeWalk(s, 30)
	a := &model.Arena{}
	var out []model.Transition
	transitions := 0
	expand := func() {
		transitions = 0
		for _, st := range walk {
			out = s.SuccessorsAppend(st, a, out[:0])
			transitions += len(out)
			for _, tr := range out {
				if tr.Violation == "" {
					a.Recycle(tr.Next)
				}
			}
		}
	}
	expand() // warm the arena and out
	allocs := testing.AllocsPerRun(20, expand)
	if allocs > maxSuccessorAllocs {
		t.Errorf("%d expansions (%d transitions) allocated %.0f times with a warm arena, want at most %d",
			len(walk), transitions, allocs, maxSuccessorAllocs)
	}
}
