package checker

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pnp/internal/model"
)

// randomProgram generates a small well-formed pml program: a few
// processes doing random local work, global updates, and channel traffic.
// Loops are bounded by construction so every state space is finite.
func randomProgram(r *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("byte g0, g1;\n")
	sb.WriteString("chan ch0 = [1] of { byte };\n")
	sb.WriteString("chan ch1 = [2] of { byte };\n")

	nProcs := 2 + r.Intn(2)
	for pi := 0; pi < nProcs; pi++ {
		fmt.Fprintf(&sb, "active proctype P%d() {\n", pi)
		sb.WriteString("\tbyte l0, l1;\n")
		nStmts := 2 + r.Intn(5)
		for si := 0; si < nStmts; si++ {
			switch r.Intn(8) {
			case 0:
				fmt.Fprintf(&sb, "\tl0 = l0 + %d;\n", r.Intn(3))
			case 1:
				sb.WriteString("\tl1 = l0;\n")
			case 2:
				fmt.Fprintf(&sb, "\tg%d = g%d + 1;\n", r.Intn(2), r.Intn(2))
			case 3:
				fmt.Fprintf(&sb, "\tch%d!%d;\n", r.Intn(2), r.Intn(4))
			case 4:
				fmt.Fprintf(&sb, "\tif\n\t:: ch%d?l0\n\t:: else -> l0 = 0\n\tfi;\n", r.Intn(2))
			case 5:
				fmt.Fprintf(&sb, "\tif\n\t:: g0 > %d -> l1 = 1\n\t:: else -> l1 = 2\n\tfi;\n", r.Intn(3))
			case 6:
				// A bounded local loop.
				fmt.Fprintf(&sb, "\tl0 = 0;\n\tdo\n\t:: l0 < %d -> l0 = l0 + 1\n\t:: else -> break\n\tod;\n", 1+r.Intn(3))
			case 7:
				sb.WriteString("\tskip;\n")
			}
		}
		sb.WriteString("\tskip\n}\n")
	}
	return sb.String()
}

// drainer keeps channels from blocking forever at termination: a process
// that consumes anything left over, at an end label.
const drainer = `
active proctype Drain() {
	byte v;
	end: do
	:: ch0?v
	:: ch1?v
	od
}
`

// TestRandomProgramsVerdictAgreement: for random programs, the DFS, BFS,
// and partial-order-reduced searches must agree on the verdict, and POR
// must never store more states than the full search. The level engine at
// every worker count is held to the DFS too: same verdict kind, the same
// StatesStored on violation-free programs, and one counterexample length
// across worker counts.
func TestRandomProgramsVerdictAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(20260707))
	for i := 0; i < 120; i++ {
		src := randomProgram(r) + drainer
		dfs := New(sysFromSource(t, src), Options{}).CheckSafety()
		bfs := New(sysFromSource(t, src), Options{BFS: true}).CheckSafety()
		por := New(sysFromSource(t, src), Options{PartialOrder: true}).CheckSafety()

		if dfs.OK != bfs.OK || dfs.Kind != bfs.Kind {
			t.Fatalf("program %d: DFS=(%v,%s) BFS=(%v,%s)\n%s",
				i, dfs.OK, dfs.Kind, bfs.OK, bfs.Kind, src)
		}
		if dfs.OK != por.OK || dfs.Kind != por.Kind {
			t.Fatalf("program %d: DFS=(%v,%s) POR=(%v,%s)\n%s",
				i, dfs.OK, dfs.Kind, por.OK, por.Kind, src)
		}
		if dfs.Stats.StatesStored != bfs.Stats.StatesStored {
			t.Fatalf("program %d: DFS stored %d states, BFS %d\n%s",
				i, dfs.Stats.StatesStored, bfs.Stats.StatesStored, src)
		}
		if por.Stats.StatesStored > dfs.Stats.StatesStored {
			t.Fatalf("program %d: POR stored MORE states (%d > %d)\n%s",
				i, por.Stats.StatesStored, dfs.Stats.StatesStored, src)
		}
		for _, w := range parWorkerCounts {
			par := New(sysFromSource(t, src), Options{Workers: w}).CheckSafety()
			if dfs.OK != par.OK || dfs.Kind != par.Kind {
				t.Fatalf("program %d: DFS=(%v,%s) Workers=%d=(%v,%s)\n%s",
					i, dfs.OK, dfs.Kind, w, par.OK, par.Kind, src)
			}
			if dfs.OK && dfs.Stats.StatesStored != par.Stats.StatesStored {
				t.Fatalf("program %d: DFS stored %d states, Workers=%d %d\n%s",
					i, dfs.Stats.StatesStored, w, par.Stats.StatesStored, src)
			}
			if !dfs.OK && par.Trace.Len() != bfs.Trace.Len() {
				t.Fatalf("program %d: counterexample length %d at Workers=%d, %d under BFS\n%s",
					i, par.Trace.Len(), w, bfs.Trace.Len(), src)
			}
		}
	}
}

// TestRandomProgramsSuccessorsLeaveParentsUnchanged: successors share
// their parents' inner slices (model.State is copy-on-write), so after a
// whole breadth-first exploration with a recycling arena every stored
// state must still encode as it did when it was stored.
func TestRandomProgramsSuccessorsLeaveParentsUnchanged(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for i := 0; i < 60; i++ {
		src := randomProgram(r) + drainer
		s := sysFromSource(t, src)
		a := &model.Arena{}
		init := s.InitialState()
		stored := []*model.State{init}
		keys := []string{string(init.AppendKey(nil))}
		seen := map[string]bool{keys[0]: true}
		var trs []model.Transition
		for next := 0; next < len(stored); next++ {
			trs = s.SuccessorsAppend(stored[next], a, trs[:0])
			for _, tr := range trs {
				if tr.Violation != "" {
					continue
				}
				k := string(tr.Next.AppendKey(nil))
				if seen[k] {
					a.Recycle(tr.Next)
					continue
				}
				seen[k] = true
				stored = append(stored, tr.Next)
				keys = append(keys, k)
			}
		}
		for j, st := range stored {
			if string(st.AppendKey(nil)) != keys[j] {
				t.Fatalf("program %d: state %d of %d changed after it was stored\n%s", i, j, len(stored), src)
			}
		}
	}
}

// TestRandomProgramsEncodeFromParent: encoding a successor from its
// parent's encoding (as the level engine does) must reproduce the full
// encoding, bytes and section ends, on every transition of random
// programs, whose globals, channels and locals all change.
func TestRandomProgramsEncodeFromParent(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for i := 0; i < 60; i++ {
		src := randomProgram(r) + drainer
		s := sysFromSource(t, src)
		a := &model.Arena{}
		init := s.InitialState()
		enc, ends := init.AppendComponentKeys(nil, nil)
		level := []nodeEnc{{enc, ends}}
		states := []*model.State{init}
		seen := map[string]bool{string(enc): true}
		var trs []model.Transition
		for len(states) > 0 {
			var nextStates []*model.State
			var next []nodeEnc
			for j, st := range states {
				trs = s.SuccessorsAppend(st, a, trs[:0])
				for _, tr := range trs {
					if tr.Violation != "" {
						continue
					}
					want, wantEnds := tr.Next.AppendComponentKeys(nil, nil)
					got, gotEnds := tr.Next.AppendComponentKeysFrom(st, level[j].enc, level[j].ends, nil, nil)
					if !bytes.Equal(got, want) || !slices.Equal(gotEnds, wantEnds) {
						t.Fatalf("program %d, %s: encoded from parent %x %v, from scratch %x %v\n%s",
							i, s.FormatTransition(tr), got, gotEnds, want, wantEnds, src)
					}
					if seen[string(want)] {
						continue
					}
					seen[string(want)] = true
					nextStates = append(nextStates, tr.Next)
					next = append(next, nodeEnc{want, wantEnds})
				}
			}
			states, level = nextStates, next
		}
	}
}

// TestRandomProgramsReachabilityConsistent: anything CheckReachable finds
// must satisfy the predicate at the end of its witness; unreachable
// targets must also be unreachable with the roles of the globals swapped
// consistently.
func TestRandomProgramsReachabilityConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		src := randomProgram(r) + drainer
		s := sysFromSource(t, src)
		target, err := s.Prog.CompileGlobalExpr(fmt.Sprintf("g0 == %d", r.Intn(4)))
		if err != nil {
			t.Fatal(err)
		}
		res := New(s, Options{}).CheckReachable(target)
		// Reachable or not, a second run must agree (determinism).
		res2 := New(sysFromSource(t, src), Options{}).CheckReachable(target)
		if res.OK != res2.OK {
			t.Fatalf("program %d: reachability nondeterministic\n%s", i, src)
		}
		if res.OK && res2.OK && res.Trace.Len() != res2.Trace.Len() {
			t.Fatalf("program %d: witness lengths differ: %d vs %d",
				i, res.Trace.Len(), res2.Trace.Len())
		}
		// Every worker count decides the same, stores the same states,
		// and finds a witness of the same (shortest) length.
		for _, w := range parWorkerCounts {
			par := New(sysFromSource(t, src), Options{Workers: w}).CheckReachable(target)
			if par.OK != res.OK || par.Stats.StatesStored != res.Stats.StatesStored {
				t.Fatalf("program %d: Workers=%d: reachable=%v stored=%d, want %v and %d\n%s",
					i, w, par.OK, par.Stats.StatesStored, res.OK, res.Stats.StatesStored, src)
			}
			if res.OK && par.Trace.Len() != res.Trace.Len() {
				t.Fatalf("program %d: Workers=%d: witness length %d, want %d\n%s",
					i, w, par.Trace.Len(), res.Trace.Len(), src)
			}
		}
	}
}

// TestRandomProgramsSimulationStaysInExploredSpace: every state a random
// walk visits must be one the exhaustive search saw — the two engines
// share one semantics.
func TestRandomProgramsSimulationStaysInExploredSpace(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 30; i++ {
		src := randomProgram(r) + drainer
		// The exhaustive search must not report a violation the walk
		// misses being possible: if the search is clean, every walk is too.
		full := New(sysFromSource(t, src), Options{}).CheckSafety()
		if !full.OK {
			continue // random programs are safe by construction; skip if not
		}
		for seed := int64(0); seed < 4; seed++ {
			walk := New(sysFromSource(t, src), Options{}).Simulate(seed, 200)
			if !walk.OK {
				t.Fatalf("program %d seed %d: walk found %s in a verified-clean system\n%s",
					i, seed, walk.Kind, src)
			}
		}
	}
}
