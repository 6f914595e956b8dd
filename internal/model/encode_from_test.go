package model_test

import (
	"bytes"
	"slices"
	"testing"

	"pnp/internal/model"
)

// checkEncodeFromParent explores s breadth-first, drawing successors
// from a recycling arena as the level engine does, for up to max
// states. On every transition it encodes the successor from its
// parent's encoding and from scratch, and fails unless bytes and
// section ends agree. It returns the number of transitions checked.
func checkEncodeFromParent(t *testing.T, s *model.System, max int) int {
	t.Helper()
	type node struct {
		st   *model.State
		enc  []byte
		ends []int
	}
	init := s.InitialState()
	enc, ends := init.AppendComponentKeys(nil, nil)
	queue := []node{{init, enc, ends}}
	seen := map[string]bool{string(enc): true}
	a := &model.Arena{}
	var trs []model.Transition
	var buf []byte
	var bends []int
	checked := 0
	for i := 0; i < len(queue); i++ {
		n := queue[i]
		trs = s.SuccessorsAppend(n.st, a, trs[:0])
		for _, tr := range trs {
			if tr.Violation != "" {
				continue
			}
			want, wantEnds := tr.Next.AppendComponentKeys(nil, nil)
			buf, bends = tr.Next.AppendComponentKeysFrom(n.st, n.enc, n.ends, buf[:0], bends[:0])
			if !bytes.Equal(buf, want) || !slices.Equal(bends, wantEnds) {
				t.Fatalf("state %d, %s: encoded from parent %x ends %v, from scratch %x ends %v",
					i, s.FormatTransition(tr), buf, bends, want, wantEnds)
			}
			checked++
			if seen[string(want)] || len(queue) >= max {
				a.Recycle(tr.Next)
				continue
			}
			seen[string(want)] = true
			queue = append(queue, node{tr.Next, want, wantEnds})
		}
		// Expanded: nothing reads the parent again, so its outer arrays
		// go back to the arena, as a retired level's do.
		a.Recycle(n.st)
		queue[i] = node{}
	}
	return checked
}

// Encoding a successor from its parent's encoding must reproduce the
// full encoding exactly, on every transition of the E9 bridge.
func TestAppendComponentKeysFromBridge(t *testing.T) {
	max := 1 << 30
	if testing.Short() {
		max = 20000
	}
	n := checkEncodeFromParent(t, bridgeN1(t), max)
	if !testing.Short() && n != 342946 {
		t.Fatalf("checked %d transitions, want all 342946 of E9 N=1", n)
	}
}

// An unrelated parent, or none, only costs re-encoding: the output is
// still the full encoding.
func TestAppendComponentKeysFromAnyParent(t *testing.T) {
	s := bridgeN1(t)
	walk := bridgeWalk(s, 30)
	for i, st := range walk {
		want, wantEnds := st.AppendComponentKeys(nil, nil)
		for _, p := range []*model.State{nil, walk[0], walk[len(walk)-1-i]} {
			var penc []byte
			var pends []int
			if p != nil {
				penc, pends = p.AppendComponentKeys(nil, nil)
			}
			got, ends := st.AppendComponentKeysFrom(p, penc, pends, nil, nil)
			if !bytes.Equal(got, want) || !slices.Equal(ends, wantEnds) {
				t.Fatalf("walk state %d: encoding from an unrelated parent differs", i)
			}
		}
	}
}
