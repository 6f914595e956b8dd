package model

import "testing"

// cowSrc's processes give one parent four sibling successors that each
// write an inner slice the parent shares with them: two sends into the
// same buffered channel, a random receive from the middle of its queue,
// and a receive binding three fields into one process's locals.
const cowSrc = `
chan c = [4] of { byte, byte };
chan d = [1] of { byte, byte, byte };
active proctype S1() { c!4,4 }
active proctype S2() { c!5,5 }
active proctype R() { byte x; c??2,x }
active proctype B() { byte u, v, w; d?u,v,w }`

// spare copies vals into a slice with room to grow, so a writer that
// appends into a shared array instead of copying overwrites a sibling's
// contents rather than silently allocating.
func spare(vals ...int64) []int64 {
	return append(make([]int64, 0, 64), vals...)
}

// cowParent is the parent state: c holds three messages with one slot
// free, d one message, and every inner slice has spare capacity.
func cowParent(t *testing.T, s *System) *State {
	t.Helper()
	st := s.InitialState()
	c, _ := s.ChannelByName("c")
	d, _ := s.ChannelByName("d")
	st.Chans[c] = spare(1, 1, 2, 2, 3, 3)
	st.Chans[d] = spare(7, 8, 9)
	for p, l := range st.Locals {
		st.Locals[p] = spare(l...)
	}
	return st
}

// keysOf encodes every non-violating successor without memoizing it.
func keysOf(trs []Transition) []string {
	var keys []string
	for _, tr := range trs {
		if tr.Violation == "" {
			keys = append(keys, string(tr.Next.AppendKey(nil)))
		}
	}
	return keys
}

// Successors share their parent's inner slices (see State); no writer
// may write one in place, and an arena may not hand one out again.
func TestCopyOnWriteSiblingsDoNotAlias(t *testing.T) {
	s := mustSystem(t, cowSrc)
	parent := cowParent(t, s)
	before := string(parent.AppendKey(nil))

	// The reference: the same parent's successors, from independent
	// storage, with no arena.
	ref, err := DecodeKey(s.InitialState(), []byte(before))
	if err != nil {
		t.Fatal(err)
	}
	want := keysOf(s.SuccessorsAppend(ref, nil, nil))
	if len(want) != 4 {
		t.Fatalf("parent has %d successors, want the 4 siblings", len(want))
	}

	// Expand the parent with a recycling arena, then its siblings,
	// recycling every grandchild so later clones reuse their storage.
	a := &Arena{}
	trs := s.SuccessorsAppend(parent, a, nil)
	for _, tr := range append([]Transition(nil), trs...) {
		for _, g := range s.SuccessorsAppend(tr.Next, a, nil) {
			if g.Violation == "" {
				a.Recycle(g.Next)
			}
		}
	}
	again := s.SuccessorsAppend(parent, a, nil)

	if got := string(parent.AppendKey(nil)); got != before {
		t.Fatalf("expanding the parent and its siblings changed the parent:\n%q\nwant\n%q", got, before)
	}
	for _, got := range [][]string{keysOf(trs), keysOf(again)} {
		if len(got) != len(want) {
			t.Fatalf("%d successors, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("successor %d:\n%q\nwant (nil arena)\n%q", i, got[i], want[i])
			}
		}
	}
}
