package checker

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pnp/internal/checker/ref"
	"pnp/internal/ltl"
	"pnp/internal/model"
	"pnp/internal/pml"
	"pnp/internal/trace"
)

// randomProgram generates a small well-formed pml program: a few
// processes doing random local work, global updates, and channel traffic.
// Loops are bounded by construction so every state space is finite.
func randomProgram(r *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("byte g0, g1;\n")
	sb.WriteString("chan ch0 = [1] of { byte };\n")
	sb.WriteString("chan ch1 = [2] of { byte };\n")
	sb.WriteString("chan rv = [0] of { byte };\n")
	chans := []string{"ch0", "ch1", "rv"}

	nProcs := 2 + r.Intn(2)
	for pi := 0; pi < nProcs; pi++ {
		fmt.Fprintf(&sb, "active proctype P%d() {\n", pi)
		sb.WriteString("\tbyte l0, l1;\n")
		nStmts := 2 + r.Intn(5)
		for si := 0; si < nStmts; si++ {
			switch r.Intn(10) {
			case 0:
				fmt.Fprintf(&sb, "\tl0 = l0 + %d;\n", r.Intn(3))
			case 1:
				sb.WriteString("\tl1 = l0;\n")
			case 2:
				fmt.Fprintf(&sb, "\tg%d = g%d + 1;\n", r.Intn(2), r.Intn(2))
			case 3:
				fmt.Fprintf(&sb, "\t%s!%d;\n", chans[r.Intn(3)], r.Intn(4))
			case 4:
				fmt.Fprintf(&sb, "\tif\n\t:: %s?l0\n\t:: else -> l0 = 0\n\tfi;\n", chans[r.Intn(3)])
			case 5:
				fmt.Fprintf(&sb, "\tif\n\t:: g0 > %d -> l1 = 1\n\t:: else -> l1 = 2\n\tfi;\n", r.Intn(3))
			case 6:
				// A bounded local loop.
				fmt.Fprintf(&sb, "\tl0 = 0;\n\tdo\n\t:: l0 < %d -> l0 = l0 + 1\n\t:: else -> break\n\tod;\n", 1+r.Intn(3))
			case 7:
				sb.WriteString("\tskip;\n")
			case 8:
				// A rendezvous receive: a match or a bind.
				sb.WriteString([]string{"\trv?1;\n", "\trv?l0;\n"}[r.Intn(2)])
			case 9:
				fmt.Fprintf(&sb, "\trv!%d;\n", r.Intn(3))
			}
		}
		sb.WriteString("\tskip\n}\n")
	}
	return sb.String()
}

// drainer keeps channels from blocking forever at termination: a process
// that consumes anything left over, at an end label. It is also a
// rendezvous partner for every statement on rv: it takes any send, and
// its rv!1 matches both rv?1 and rv?l0 (one send keeps the state spaces
// small).
const drainer = `
active proctype Drain() {
	byte v;
	end: do
	:: ch0?v
	:: ch1?v
	:: rv?v
	:: rv!1
	od
}
`

// refProblem renders a verdict the way ref.Result.Problem does.
func refProblem(res *Result) string {
	switch {
	case res.OK:
		return ""
	case res.Kind == Deadlock:
		return "deadlock"
	}
	return res.Message
}

// TestRandomProgramsVerdictAgreement: for random programs, the level
// engine at every worker count, and over the exact and collapse spill
// tiers at one and two workers, agrees with the reference search (ref)
// on the problem found, StatesStored, and counterexample length. The
// partial-order-reduced search agrees with it on the problem found and
// never stores more states.
func TestRandomProgramsVerdictAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(20260707))
	spillDir := t.TempDir()
	for i := 0; i < 120; i++ {
		src := randomProgram(r) + drainer
		want := ref.Check(sysFromSource(t, src))
		runs := map[string]Options{}
		for _, w := range append([]int{0}, parWorkerCounts...) {
			runs[fmt.Sprintf("Workers=%d", w)] = Options{Workers: w}
		}
		// The spill tier under a 1 KB budget, which spills at nearly
		// every barrier: storage never changes what the search finds.
		// Every spill creates a file, so only every other program runs
		// it, each taking the next of the four worker × tier pairs.
		if i%2 == 0 {
			w, v := 1+i/2%2, []string{VisitedExact, VisitedCollapse}[i/4%2]
			runs[fmt.Sprintf("Workers=%d %s-spill", w, v)] = Options{Workers: w,
				Storage: StorageOptions{Visited: v, MemLimit: 1024, SpillDir: spillDir}}
		}
		for name, opts := range runs {
			got := New(sysFromSource(t, src), opts).CheckSafety()
			if refProblem(got) != want.Problem || got.Stats.StatesStored != want.Stored {
				t.Fatalf("program %d: %s found %q storing %d states, reference %q storing %d\n%s",
					i, name, refProblem(got), got.Stats.StatesStored, want.Problem, want.Stored, src)
			}
			if !got.OK && got.Trace.Len() != want.CELen {
				t.Fatalf("program %d: counterexample length %d at %s, reference %d\n%s",
					i, got.Trace.Len(), name, want.CELen, src)
			}
		}
		por := New(sysFromSource(t, src), Options{PartialOrder: true}).CheckSafety()
		if refProblem(por) != want.Problem {
			t.Fatalf("program %d: POR found %q, reference %q\n%s", i, refProblem(por), want.Problem, src)
		}
		if por.Stats.StatesStored > want.Stored {
			t.Fatalf("program %d: POR stored MORE states (%d > %d)\n%s",
				i, por.Stats.StatesStored, want.Stored, src)
		}
	}
}

// TestRandomProgramsSuccessorsLeaveParentsUnchanged: successors are
// written into recycled arena storage, so after a whole breadth-first
// exploration with a recycling arena every stored state must still
// encode as it did when it was stored.
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

// stateView renders st through model's exported accessors alone: the
// atomic holder, each process's PC and locals, the globals, and each
// channel's messages.
func stateView(s *model.System, st *model.State) string {
	var b strings.Builder
	fmt.Fprintf(&b, "atomic=%d", s.AtomicHolder(st))
	for p, inst := range s.Instances() {
		fmt.Fprintf(&b, " %s@%d", inst.Name, s.PC(st, p))
		for i := range inst.Proc.IntVars {
			fmt.Fprintf(&b, ",%d", s.Local(st, p, i))
		}
	}
	for i := range s.Prog.GlobalVars {
		fmt.Fprintf(&b, " g%d=%d", i, s.Global(st, i))
	}
	for id := 0; id < s.NumChannels(); id++ {
		fmt.Fprintf(&b, " c%d=%v", id, s.Messages(st, model.ChanID(id)))
	}
	return b.String()
}

// TestRandomProgramsStateVectorIsCanonical is model's representation
// oracle on random programs, whose globals, channels and locals all
// change: on every reachable state, the state vector and its view
// through the accessors determine each other (a view with two vectors
// is a non-canonical vector), and every vector passes CheckState.
func TestRandomProgramsStateVectorIsCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for i := 0; i < 40; i++ {
		src := randomProgram(r) + drainer
		s := sysFromSource(t, src)
		init := s.InitialState()
		byVector := map[string]string{init.Key(): stateView(s, init)}
		byView := map[string]string{stateView(s, init): init.Key()}
		queue := []*model.State{init}
		for j := 0; j < len(queue); j++ {
			for _, tr := range s.Successors(queue[j]) {
				if tr.Violation != "" {
					continue
				}
				k, v := tr.Next.Key(), stateView(s, tr.Next)
				if old, ok := byVector[k]; ok {
					if old != v {
						t.Fatalf("program %d: vector %x has two views:\n%s\n%s\n%s", i, k, old, v, src)
					}
					continue
				}
				if old, ok := byView[v]; ok {
					t.Fatalf("program %d: view %s has two vectors:\n%x\n%x\n%s", i, v, old, k, src)
				}
				if err := s.CheckState(tr.Next); err != nil {
					t.Fatalf("program %d: reachable state %s rejected: %v\n%s", i, v, err, src)
				}
				byVector[k], byView[v] = v, k
				queue = append(queue, tr.Next)
			}
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

// spinner loops forever on a private variable, so random programs have
// cycles besides the stutter steps of terminated runs, and fairness has
// something to rule out.
const spinner = `
active proctype Spin() {
	byte t;
	end: do
	:: t = 1 - t
	od
}
`

// TestRandomProgramsLivenessOracle: on random programs, each fairness
// rule may only rule counterexamples out (a property verified without
// fairness holds under weak fairness, and one verified under weak
// fairness holds under strong fairness), safety violations do not
// depend on fairness, and every acceptance-cycle counterexample is a
// real one (lassoFault).
func TestRandomProgramsLivenessOracle(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	formulas := []string{"<> p", "[] <> p", "[] (p -> <> q)"}
	rules := []Options{{}, {WeakFairness: true}, {StrongFairness: true}}
	safety := func(v *Result) bool { return !v.OK && v.Kind != AcceptanceCycle }
	for i := 0; i < 40; i++ {
		src := randomProgram(r) + drainer + spinner
		if New(sysFromSource(t, src), Options{MaxStates: 6000}).CheckSafety().Stats.Truncated {
			continue // keep the battery quick: the product is a few times larger
		}
		for _, formula := range formulas {
			var res [3]*Result
			for j, opts := range rules {
				s := sysFromSource(t, src)
				p := props(t, s.Prog, map[string]string{"p": "g0 > 0", "q": "g1 > 0"})
				res[j] = New(s, opts).CheckLTL(formula, p)
				if !res[j].OK && res[j].Kind == AcceptanceCycle {
					if fault := lassoFault(s, formula, p, opts, res[j].Trace); fault != "" {
						t.Fatalf("program %d, %q, %+v: %s:\n%s\n%s", i, formula, opts, fault, res[j].Trace, src)
					}
				}
			}
			for j := 1; j < 3; j++ {
				if res[j-1].OK && !res[j].OK {
					t.Fatalf("program %d, %q: verified under %+v, %s under %+v\n%s",
						i, formula, rules[j-1], res[j].Kind, rules[j], src)
				}
				if (safety(res[j-1]) || safety(res[j])) && res[j-1].Kind != res[j].Kind {
					t.Fatalf("program %d, %q: %s under %+v, %s under %+v\n%s",
						i, formula, res[j-1].Kind, rules[j-1], res[j].Kind, rules[j], src)
				}
			}
		}
	}
}

// verifyLTL runs CheckLTL and fails t unless every acceptance-cycle
// counterexample it reports is a real one (lassoFault).
func verifyLTL(t *testing.T, s *model.System, opts Options, formula string, p map[string]pml.RExpr) *Result {
	t.Helper()
	res := New(s, opts).CheckLTL(formula, p)
	if !res.OK && res.Kind == AcceptanceCycle {
		if fault := lassoFault(s, formula, p, opts, res.Trace); fault != "" {
			t.Fatalf("%q: %s:\n%s", formula, fault, res.Trace)
		}
	}
	return res
}

// lassoFault returns why tr is not a counterexample to formula under
// the fairness rule of opts, or "" when it is one: its events label a
// path of s whose cycle returns to the state it leaves, the word of
// proposition values along that path violates formula by LTL semantics
// alone, and the cycle is fair — under weak fairness every pid enabled
// at all its states moves in it, under strong fairness every pid enabled
// at one of its states does.
func lassoFault(s *model.System, formula string, p map[string]pml.RExpr, opts Options, tr *trace.Trace) string {
	path := replays(s, tr)
	if path == nil {
		return "counterexample does not replay"
	}
	f, err := ltl.Parse(formula)
	if err != nil {
		return err.Error()
	}
	w := &ltl.Word{}
	for a := range p {
		w.Atoms = append(w.Atoms, a)
	}
	slices.Sort(w.Atoms)
	for i, st := range path[:len(path)-1] {
		vals := make([]bool, len(w.Atoms))
		for j, a := range w.Atoms {
			v, err := s.EvalGlobal(st, p[a])
			if err != nil {
				return err.Error()
			}
			vals[j] = v != 0
		}
		if i < len(tr.Prefix) {
			w.Prefix = append(w.Prefix, vals)
		} else {
			w.Cycle = append(w.Cycle, vals)
		}
	}
	if ltl.EvalWord(f, w) {
		return "the lasso satisfies the formula"
	}
	moved := map[string]bool{}
	for _, ev := range tr.Cycle {
		moved[ev.Proc], moved[ev.Partner] = true, true
	}
	cycle := path[len(tr.Prefix) : len(path)-1]
	for pid := 0; pid < s.NumInstances(); pid++ {
		some, all := false, true
		for _, st := range cycle {
			en := s.ProcEnabled(st, pid)
			some, all = some || en, all && en
		}
		switch name := s.ProcName(pid); {
		case moved[name]:
		case opts.StrongFairness && some:
			return fmt.Sprintf("%s is enabled in the cycle but never moves", name)
		case opts.WeakFairness && all:
			return fmt.Sprintf("%s is enabled throughout the cycle but never moves", name)
		}
	}
	return ""
}

// replays returns a path of states of s from the initial state whose
// steps carry tr's prefix and then its cycle events, the cycle ending in
// the system state it starts from: len(tr.Prefix)+len(tr.Cycle)+1 states.
// It returns nil when there is none. Equal events may lead to different
// states, so it follows every match.
func replays(s *model.System, tr *trace.Trace) []*model.State {
	if len(tr.Cycle) == 0 {
		return nil
	}
	pre := follow(s, s.InitialState(), tr.Prefix)
	for j, c := range pre[len(pre)-1] {
		cyc := follow(s, c.st, tr.Cycle)
		for k, end := range cyc[len(cyc)-1] {
			if end.st.Key() == c.st.Key() {
				return append(walkBack(pre, j), walkBack(cyc, k)[1:]...)
			}
		}
	}
	return nil
}

// replayed is a state reached while following events, with the index of
// its predecessor in the previous layer.
type replayed struct {
	st   *model.State
	from int
}

// follow returns layers of the states reachable from st by steps
// carrying evs: layer i holds those after the first i events.
func follow(s *model.System, st *model.State, evs []trace.Event) [][]replayed {
	layers := [][]replayed{{{st, -1}}}
	for _, ev := range evs {
		var next []replayed
		seen := map[string]bool{}
		add := func(st *model.State, from int) {
			if !seen[st.Key()] {
				seen[st.Key()] = true
				next = append(next, replayed{st, from})
			}
		}
		for j, c := range layers[len(layers)-1] {
			trs := s.Successors(c.st)
			if len(trs) == 0 && ev == stutterEvent {
				add(c.st, j)
			}
			for _, t := range trs {
				if t.Violation == "" && eventOf(s, t) == ev {
					add(t.Next, j)
				}
			}
		}
		layers = append(layers, next)
	}
	return layers
}

// walkBack returns the states of the path through layers ending at the
// k-th state of the last layer.
func walkBack(layers [][]replayed, k int) []*model.State {
	path := make([]*model.State, len(layers))
	for i := len(layers) - 1; i >= 0; i-- {
		path[i] = layers[i][k].st
		k = layers[i][k].from
	}
	return path
}

// TestRandomProgramsEventuallyReachableOracle: AG EF on random programs
// against a brute force that shares no code with the checker's graph. It
// collects the reachable states through Successors (skipping violating
// steps) with their breadth-first depths, and searches forward from
// each for the target. The goal holds iff every state reaches the
// target; otherwise the counterexample replays to a state that cannot,
// and is as short as the shallowest such state.
func TestRandomProgramsEventuallyReachableOracle(t *testing.T) {
	const limit = 3000
	r := rand.New(rand.NewSource(37))
	checked := 0
	for i := 0; checked < 40 && i < 80; i++ {
		src := randomProgram(r) + drainer
		s := sysFromSource(t, src)
		succ := func(st *model.State) []*model.State {
			var out []*model.State
			for _, tr := range s.Successors(st) {
				if tr.Violation == "" {
					out = append(out, tr.Next)
				}
			}
			return out
		}
		depth := map[string]int{s.InitialState().Key(): 0}
		states := []*model.State{s.InitialState()}
		for j := 0; j < len(states) && len(states) <= limit; j++ {
			for _, next := range succ(states[j]) {
				if _, ok := depth[next.Key()]; !ok {
					depth[next.Key()] = depth[states[j].Key()] + 1
					states = append(states, next)
				}
			}
		}
		if len(states) > limit {
			continue // keep the battery quick
		}
		checked++
		// A value g0 takes somewhere, so the initial state reaches the
		// target and counterexamples are not all empty.
		var values []int
		for _, st := range states {
			values = append(values, int(s.Global(st, 0)))
		}
		slices.Sort(values)
		values = slices.Compact(values)
		target, err := s.Prog.CompileGlobalExpr(fmt.Sprintf("g0 == %d", values[r.Intn(len(values))]))
		if err != nil {
			t.Fatal(err)
		}
		hits := func(st *model.State) bool {
			v, err := s.EvalGlobal(st, target)
			if err != nil {
				t.Fatal(err)
			}
			return v != 0
		}
		// stuck holds the states known not to reach the target: when a
		// forward search fails, so does every state it passed.
		stuck := map[string]bool{}
		reaches := func(st *model.State) bool {
			seen := map[string]bool{st.Key(): true}
			for queue := []*model.State{st}; len(queue) > 0; queue = queue[1:] {
				if hits(queue[0]) {
					return true
				}
				for _, next := range succ(queue[0]) {
					if k := next.Key(); !seen[k] && !stuck[k] {
						seen[k] = true
						queue = append(queue, next)
					}
				}
			}
			for k := range seen {
				stuck[k] = true
			}
			return false
		}
		shallowest := -1
		for _, st := range states {
			if !stuck[st.Key()] && !reaches(st) && shallowest < 0 {
				shallowest = depth[st.Key()]
			}
		}

		res := New(s, Options{}).CheckEventuallyReachable(target)
		if res.OK != (shallowest < 0) {
			t.Fatalf("program %d: AG EF OK=%v (%s), brute force: shallowest stuck state at depth %d\n%s",
				i, res.OK, res.Summary(), shallowest, src)
		}
		if res.OK {
			continue
		}
		if res.Kind != InvariantViolation || res.Trace.Len() != shallowest {
			t.Fatalf("program %d: %s with a %d-step counterexample, want a %d-step one\n%s",
				i, res.Summary(), res.Trace.Len(), shallowest, src)
		}
		ends := follow(s, s.InitialState(), res.Trace.Prefix)
		if !slices.ContainsFunc(ends[len(ends)-1], func(c replayed) bool { return stuck[c.st.Key()] }) {
			t.Fatalf("program %d: the counterexample does not replay to a state that cannot reach the target:\n%s\n%s",
				i, res.Trace, src)
		}
	}
	if checked < 30 {
		t.Fatalf("only %d programs fit under %d states", checked, limit)
	}
}

// stutterLast reaches a terminated state last in its BFS level while
// the other branch goes on, so the build recycles that level's states
// just before expanding the terminated state's stutter successors.
const stutterLast = `
byte g0, g1;
active proctype P() {
	if
	:: g0 = 2; do :: g0 < 9 -> g0 = g0 + 1 :: else -> break od
	:: g0 = 1
	fi
}`

// TestRandomProgramsProductStatesReplay guards the product build's
// state recycling: nodes share states (one per automaton state a step
// reaches, and a stutter step reaches its own state), and a state
// recycled while a node still reads it would store wrong encodings.
// On stutterLast and random programs, half of them ending in states
// that stutter, under multi-state automata (X X X p makes stutter
// steps store new nodes), every node's prefix must replay from the
// initial state to the state its table entry encodes, and the built
// product must hold no *model.State.
func TestRandomProgramsProductStatesReplay(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	checked := 0
	for i := 0; i < 31; i++ {
		src := stutterLast
		if i > 0 {
			src = randomProgram(r)
		}
		if i%2 == 1 {
			src += drainer + spinner
		}
		for _, formula := range []string{"[] (p -> <> q)", "X X X p"} {
			f, err := ltl.Parse(formula)
			if err != nil {
				t.Fatal(err)
			}
			s := sysFromSource(t, src)
			p, err := New(s, Options{MaxStates: 3000}).ltlProduct(f, props(t, s.Prog, map[string]string{"p": "g0 > 0", "q": "g1 > 0"}))
			if err != nil {
				t.Fatal(err)
			}
			if !p.build(&Result{}, nil, nil) {
				continue
			}
			checked++
			if path := statePath(reflect.ValueOf(p).Elem(), "product", map[uintptr]bool{}); path != "" {
				t.Fatalf("program %d, %s: the built product holds a *model.State at %s", i, formula, path)
			}
			for v := range uint32(len(p.q)) {
				want := p.table.entry(uint64(p.sid[v]))
				ends := follow(s, s.InitialState(), p.prefix(v))
				if !slices.ContainsFunc(ends[len(ends)-1], func(c replayed) bool { return bytes.Equal(c.st.AppendKey(nil), want) }) {
					t.Fatalf("program %d, %s: node %d's prefix does not replay to its stored state:\n%s\n%s",
						i, formula, v, &trace.Trace{Prefix: p.prefix(v)}, src)
				}
			}
		}
	}
	if checked < 40 {
		t.Fatalf("only %d products fit under the state limit", checked)
	}
}

// statePath returns the path from v to a *model.State it references,
// or "" when it references none. The checker and the automaton are
// shared with the caller and not walked; seen breaks pointer cycles.
func statePath(v reflect.Value, path string, seen map[uintptr]bool) string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return ""
		}
		if v.Type() == reflect.TypeFor[*model.State]() {
			return path
		}
		seen[v.Pointer()] = true
		return statePath(v.Elem(), path, seen)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return statePath(v.Elem(), path, seen)
	case reflect.Struct:
		for i := range v.NumField() {
			name := v.Type().Field(i).Name
			if v.Type() == reflect.TypeFor[product]() && (name == "c" || name == "aut") {
				continue
			}
			if p := statePath(v.Field(i), path+"."+name, seen); p != "" {
				return p
			}
		}
	case reflect.Slice, reflect.Array:
		if k := v.Type().Elem().Kind(); k <= reflect.Complex128 {
			return "" // elements of a basic kind hold no pointer
		}
		for i := range v.Len() {
			if p := statePath(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); p != "" {
				return p
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if p := statePath(it.Value(), path+"[key]", seen); p != "" {
				return p
			}
		}
	}
	return ""
}
