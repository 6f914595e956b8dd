package checker

import (
	"fmt"
	"slices"
	"time"

	"pnp/internal/ltl"
	"pnp/internal/model"
	"pnp/internal/pml"
	"pnp/internal/trace"
)

// PropsFromSource compiles a map of atomic-proposition names to pml
// global-scope expressions.
func PropsFromSource(prog *pml.Compiled, defs map[string]string) (map[string]pml.RExpr, error) {
	out := make(map[string]pml.RExpr, len(defs))
	for name, src := range defs {
		e, err := prog.CompileGlobalExpr(src)
		if err != nil {
			return nil, fmt.Errorf("checker: proposition %s: %w", name, err)
		}
		out[name] = e
	}
	return out, nil
}

// CheckLTL verifies the system against an LTL formula (Spin syntax). The
// named atomic propositions must all be defined in props as global-state
// predicates. Finite runs are stutter-extended: a deadlocked or
// terminated state repeats forever. Options.WeakFairness and
// Options.StrongFairness restrict counterexamples to weakly or strongly
// fair runs; strong wins when both are set.
//
// The search stores the reachable product of the system and a Büchi
// automaton for the negated formula breadth-first, edges included, then
// splits it into strongly connected components: the formula fails iff
// some component holds an accepting node and a cycle that is fair under
// the rule in force. Memory is O(transitions): about 8 bytes per product
// edge on top of the states.
func (c *Checker) CheckLTL(formula string, props map[string]pml.RExpr) *Result {
	var res *Result
	withPhaseLabel("liveness", func() { res = c.checkLTL(formula, props) })
	return res
}

// fairness is the scheduling assumption a counterexample cycle must meet.
type fairness int

const (
	unfair       fairness = iota
	weaklyFair            // a process enabled at every step of the cycle moves in it
	stronglyFair          // a process enabled at some step of the cycle moves in it
)

var fairnessNames = [...]string{"", " under weak fairness", " under strong fairness"}

// prodKey names a product node: a system state and an automaton state.
type prodKey struct {
	key string
	q   int32
}

// noNode is the BFS parent of a root.
const noNode = ^uint32(0)

// product is the reachable product of the system and the Büchi
// automaton, its nodes numbered in breadth-first order. Edges are kept as
// compressed sparse rows: the edges out of node u are
// to[start[u]:start[u+1]], and movers[e] holds the pids acting on edge e
// (-1 when unused, so a stutter edge is {-1, -1}). No event is stored per
// edge; event re-derives one by expanding the edge's source again.
type product struct {
	c     *Checker
	aut   *ltl.Automaton
	atoms []pml.RExpr
	vals  []bool
	sat   func(int) bool
	fair  fairness
	words int // bitset words per node in enabled; 0 without fairness
	roots int // nodes 0..roots-1 hold the initial state

	index     map[prodKey]uint32
	states    []*model.State
	q         []int32
	parent    []uint32
	start     []uint32
	to        []uint32
	movers    [][2]int16
	enabled   []uint64
	accepting bool // some stored node is accepting
}

func (c *Checker) checkLTL(formula string, props map[string]pml.RExpr) *Result {
	start := time.Now()
	res := &Result{OK: true}
	defer func() { res.Stats.Elapsed = time.Since(start) }()
	m := c.newMeter("liveness")
	defer func() { m.finish(&res.Stats, res.Stats.MaxDepth) }()
	cc := c.newCanceler()

	f, err := ltl.Parse(formula)
	if err != nil {
		return res.fail(RuntimeError, err.Error())
	}
	aut, err := ltl.Translate(ltl.Not(f))
	if err != nil {
		return res.fail(RuntimeError, err.Error())
	}
	p := &product{c: c, aut: aut, index: map[prodKey]uint32{}}
	for _, name := range aut.Atoms {
		e, ok := props[name]
		if !ok {
			return res.fail(RuntimeError, fmt.Sprintf("undefined atomic proposition %q", name))
		}
		p.atoms = append(p.atoms, e)
	}
	p.vals = make([]bool, len(p.atoms))
	p.sat = func(i int) bool { return p.vals[i] }
	switch {
	case c.opts.StrongFairness:
		p.fair = stronglyFair
	case c.opts.WeakFairness:
		p.fair = weaklyFair
	}
	if p.fair != unfair {
		p.words = (c.sys.NumInstances() + 63) / 64
	}

	if !p.build(res, m, cc) || !p.accepting {
		return res
	}
	s := newSCCPass(p, cc)
	entry, moves := s.search()
	if cc.hit() {
		return cc.cancelResult(res)
	}
	if entry == noNode {
		return res
	}
	res.fail(AcceptanceCycle, "LTL property violated"+fairnessNames[p.fair]+": "+f.String())
	res.Trace = &trace.Trace{Prefix: p.prefix(entry), Cycle: s.cycle(entry, moves), Final: res.Message}
	return res
}

// fail marks r as failed with kind and msg.
func (r *Result) fail(kind ViolationKind, msg string) *Result {
	r.OK = false
	r.Kind = kind
	r.Message = msg
	return r
}

// build stores the reachable product breadth-first, one level at a time.
// It reports false when the search ended early — a safety violation
// (with its shortest prefix), an evaluation error, the state limit, or
// cancellation — with res filled in.
func (p *product) build(res *Result, m *meter, cc *canceler) bool {
	c := p.c
	full := func() bool { return c.opts.MaxStates > 0 && len(p.states) > c.opts.MaxStates }
	init := c.sys.InitialState()
	if err := p.label(init); err != nil {
		res.fail(RuntimeError, err.Error())
		return false
	}
	for _, at := range p.aut.InitTrans {
		if at.Sat(p.sat) {
			p.intern(init, at.Dst, noNode, res)
		}
	}
	p.roots = len(p.states)
	for lo, hi, depth := 0, len(p.states), 0; lo < hi; lo, hi, depth = hi, len(p.states), depth+1 {
		res.Stats.MaxDepth = depth
		for i := lo; i < hi; i++ {
			u := uint32(i)
			if cc.hit() {
				cc.cancelResult(res)
				return false
			}
			trs := c.sys.Successors(p.states[u])
			res.Stats.Transitions += len(trs)
			p.start = append(p.start, uint32(len(p.to)))
			for _, tr := range trs {
				if v := tr.Violation; v != "" {
					// Safety violations surface whatever the formula says.
					res.fail(violationKind(v), v)
					res.Trace = &trace.Trace{Prefix: append(p.prefix(u), eventOf(c.sys, tr)), Final: v}
					return false
				}
			}
			err := p.successors(u, trs, func(tr *model.Transition, q int) {
				if !full() {
					p.to = append(p.to, p.intern(tr.Next, q, u, res))
					p.movers = append(p.movers, [2]int16{int16(tr.Proc), int16(tr.Partner)})
				}
			})
			if err != nil {
				res.fail(RuntimeError, err.Error())
				return false
			}
			if full() {
				res.Stats.Truncated = true
				res.fail(SearchLimit, fmt.Sprintf("state limit %d exceeded", c.opts.MaxStates))
				return false
			}
		}
		m.level(&res.Stats, depth, hi-lo, len(p.states)-hi)
	}
	p.start = append(p.start, uint32(len(p.to)))
	return true
}

// intern returns the node of (st, q), storing it first if it is new.
func (p *product) intern(st *model.State, q int, parent uint32, res *Result) uint32 {
	k := prodKey{st.Key(), int32(q)}
	if id, ok := p.index[k]; ok {
		res.Stats.StatesMatched++
		return id
	}
	id := uint32(len(p.states))
	p.index[k] = id
	p.states = append(p.states, st)
	p.q = append(p.q, int32(q))
	p.parent = append(p.parent, parent)
	if p.words > 0 {
		base := len(p.enabled)
		for w := 0; w < p.words; w++ {
			p.enabled = append(p.enabled, 0)
		}
		for pid := 0; pid < p.c.sys.NumInstances(); pid++ {
			if p.c.sys.ProcEnabled(st, pid) {
				p.enabled[base+pid/64] |= 1 << (pid % 64)
			}
		}
	}
	p.accepting = p.accepting || p.aut.States[q].Accepting
	res.Stats.StatesStored++
	return id
}

// label evaluates the automaton's atoms on st into p.vals.
func (p *product) label(st *model.State) error {
	for i, e := range p.atoms {
		v, err := p.c.sys.EvalGlobal(st, e)
		if err != nil {
			return err
		}
		p.vals[i] = v != 0
	}
	return nil
}

// successors calls emit for every product edge out of u, always in the
// same order: each system step of trs (a stutter step when there is
// none), then each automaton move its target's labels allow.
func (p *product) successors(u uint32, trs []model.Transition, emit func(tr *model.Transition, q int)) error {
	if len(trs) == 0 {
		trs = []model.Transition{{Proc: -1, Partner: -1, Ch: -1, Next: p.states[u]}}
	}
	for i := range trs {
		if err := p.label(trs[i].Next); err != nil {
			return err
		}
		for _, at := range p.aut.States[p.q[u]].Trans {
			if at.Sat(p.sat) {
				emit(&trs[i], at.Dst)
			}
		}
	}
	return nil
}

// event re-derives the trace event of edge e out of node u: expansion is
// deterministic, so the edge's position names its transition.
func (p *product) event(u, e uint32) trace.Event {
	ev := stutterEvent
	k := p.start[u]
	p.successors(u, p.c.sys.Successors(p.states[u]), func(tr *model.Transition, _ int) {
		if k == e && tr.Proc >= 0 {
			ev = eventOf(p.c.sys, *tr)
		}
		k++
	})
	return ev
}

// stutterEvent is the step a state without successors repeats forever.
var stutterEvent = trace.Event{Action: "(stutter)"}

// prefix returns the events of the BFS path from a root to node v.
func (p *product) prefix(v uint32) []trace.Event {
	var out []trace.Event
	for ; p.parent[v] != noNode; v = p.parent[v] {
		u := p.parent[v]
		e := p.start[u]
		for p.to[e] != v {
			e++
		}
		out = append(out, p.event(u, e))
	}
	slices.Reverse(out)
	return out
}

func (p *product) enabledSet(v uint32) []uint64 {
	return p.enabled[int(v)*p.words : int(v+1)*p.words]
}

func (p *product) isEnabled(v uint32, pid int) bool {
	return p.enabledSet(v)[pid/64]&(1<<(pid%64)) != 0
}

func (p *product) moves(e uint32, pid int) bool {
	return int(p.movers[e][0]) == pid || int(p.movers[e][1]) == pid
}

// sccPass decomposes node sets of the product into strongly connected
// components with an iterative Tarjan over slices indexed by node id. A
// node takes part in a pass when its tag is the pass's task; a
// component under inspection has its nodes' comp set to stamp.
type sccPass struct {
	p       *product
	cc      *canceler
	tag     []uint32
	index   []uint32 // discovery number in the node's current task, 0 = not yet
	low     []uint32
	onStack []bool
	stack   []uint32
	calls   []sccFrame
	counter uint32
	comp    []uint32
	stamp   uint32
	tasks   uint32
}

type sccFrame struct{ v, e uint32 }

func newSCCPass(p *product, cc *canceler) *sccPass {
	n := len(p.states)
	return &sccPass{
		p: p, cc: cc,
		tag: make([]uint32, n), index: make([]uint32, n), low: make([]uint32, n),
		onStack: make([]bool, n), comp: make([]uint32, n),
	}
}

// search finds, among the components holding an accepting node and a
// cycle fair under p.fair, the one whose lowest-numbered accepting node
// is nearest a root, so the lasso through it has the shortest prefix. It
// returns that node (noNode when there is none) and the pids that move
// inside the component, and leaves s.stamp naming the component. Task 0
// is the whole product; under strong fairness a component that starves a
// pid it enables loses the nodes enabling it, and the rest is decomposed
// again as a new task.
func (s *sccPass) search() (entry uint32, moves []uint64) {
	p := s.p
	type task struct {
		id      uint32
		members []uint32
	}
	roots := make([]uint32, p.roots)
	for i := range roots {
		roots[i] = uint32(i)
	}
	tasks := []task{{0, roots}}
	entry, stamp := noNode, uint32(0)
	for len(tasks) > 0 {
		tk := tasks[len(tasks)-1]
		tasks = tasks[:len(tasks)-1]
		s.run(tk.id, tk.members, func(scc []uint32) {
			s.stamp++
			acc := noNode
			for _, v := range scc {
				s.comp[v] = s.stamp
				if p.aut.States[p.q[v]].Accepting {
					acc = min(acc, v)
				}
			}
			if acc >= entry {
				return // no accepting node, or none nearer than the best so far
			}
			mv, starved := s.judge(scc)
			switch {
			case !slices.ContainsFunc(starved, func(w uint64) bool { return w != 0 }):
				entry, moves, stamp = acc, mv, s.stamp
			case p.fair == stronglyFair:
				if rest := s.prune(scc, starved); len(rest) > 0 {
					tasks = append(tasks, task{s.tasks, rest})
				}
			}
		})
	}
	s.stamp = stamp
	return entry, moves
}

// judge returns the pids that move inside the component stamped s.stamp
// and the pids every cycle in it starves: under weak fairness those
// enabled at all its nodes that never move, under strong fairness those
// enabled at some node that never move. Without fairness both are nil.
func (s *sccPass) judge(scc []uint32) (moves, starved []uint64) {
	p := s.p
	if p.fair == unfair {
		return nil, nil
	}
	moves = make([]uint64, p.words)
	some := make([]uint64, p.words)
	all := make([]uint64, p.words)
	for w := range all {
		all[w] = ^uint64(0)
	}
	for _, v := range scc {
		for e := p.start[v]; e < p.start[v+1]; e++ {
			if s.comp[p.to[e]] != s.stamp {
				continue
			}
			for _, pid := range p.movers[e] {
				if pid >= 0 {
					moves[pid/64] |= 1 << (pid % 64)
				}
			}
		}
		for w, en := range p.enabledSet(v) {
			some[w] |= en
			all[w] &= en
		}
	}
	starved = all
	if p.fair == stronglyFair {
		starved = some
	}
	for w := range starved {
		starved[w] &^= moves[w]
	}
	return moves, starved
}

// prune moves the component's nodes that enable no starved pid into a
// new task and returns them.
func (s *sccPass) prune(scc []uint32, starved []uint64) []uint32 {
	s.tasks++
	var rest []uint32
	for _, v := range scc {
		if !intersects(s.p.enabledSet(v), starved) {
			s.tag[v], s.index[v] = s.tasks, 0
			rest = append(rest, v)
		}
	}
	return rest
}

func intersects(a, b []uint64) bool {
	for w := range a {
		if a[w]&b[w] != 0 {
			return true
		}
	}
	return false
}

// run decomposes the nodes tagged task, reachable from members, calling
// visit with each nontrivial component.
func (s *sccPass) run(task uint32, members []uint32, visit func(scc []uint32)) {
	p := s.p
	for _, root := range members {
		if s.tag[root] != task || s.index[root] != 0 {
			continue
		}
		s.push(root)
		for len(s.calls) > 0 {
			if s.cc.hit() {
				return
			}
			fr := &s.calls[len(s.calls)-1]
			v := fr.v
			if fr.e < p.start[v+1] {
				w := p.to[fr.e]
				fr.e++
				switch {
				case s.tag[w] != task:
				case s.index[w] == 0:
					s.push(w)
				case s.onStack[w]:
					s.low[v] = min(s.low[v], s.index[w])
				}
				continue
			}
			s.calls = s.calls[:len(s.calls)-1]
			if n := len(s.calls); n > 0 {
				u := s.calls[n-1].v
				s.low[u] = min(s.low[u], s.low[v])
			}
			if s.low[v] != s.index[v] {
				continue
			}
			i := len(s.stack) - 1
			for s.stack[i] != v {
				i--
			}
			scc := s.stack[i:]
			for _, w := range scc {
				s.onStack[w] = false
			}
			if len(scc) > 1 || slices.Contains(p.to[p.start[v]:p.start[v+1]], v) {
				visit(scc)
			}
			s.stack = s.stack[:i]
		}
	}
}

func (s *sccPass) push(v uint32) {
	s.counter++
	s.index[v], s.low[v] = s.counter, s.counter
	s.onStack[v] = true
	s.stack = append(s.stack, v)
	s.calls = append(s.calls, sccFrame{v, s.p.start[v]})
}

// cycle returns a cycle through entry inside the component stamped
// s.stamp, as events. Under fairness it moves every pid in moves and,
// under weak fairness, passes a node disabling each pid that does not
// move (judge guaranteed one).
func (s *sccPass) cycle(entry uint32, moves []uint64) []trace.Event {
	p := s.p
	var edges []uint32
	cur := entry
	walk := func(goal func(e uint32) bool) {
		path := s.walk(cur, goal)
		edges = append(edges, path...)
		cur = p.to[path[len(path)-1]]
	}
	served := func(pid int) bool {
		if p.fair == weaklyFair && !p.isEnabled(entry, pid) {
			return true
		}
		for _, e := range edges {
			if p.moves(e, pid) || p.fair == weaklyFair && !p.isEnabled(p.to[e], pid) {
				return true
			}
		}
		return false
	}
	for pid := 0; p.fair != unfair && pid < p.c.sys.NumInstances(); pid++ {
		switch {
		case served(pid):
		case moves[pid/64]&(1<<(pid%64)) != 0:
			walk(func(e uint32) bool { return p.moves(e, pid) })
		case p.fair == weaklyFair:
			walk(func(e uint32) bool { return !p.isEnabled(p.to[e], pid) })
		}
	}
	if len(edges) == 0 || cur != entry {
		walk(func(e uint32) bool { return p.to[e] == entry })
	}
	events := make([]trace.Event, len(edges))
	for i, e := range edges {
		events[i] = p.event(entry, e)
		entry = p.to[e]
	}
	return events
}

// walk returns the shortest path of edges inside the component from u
// whose last edge satisfies goal.
func (s *sccPass) walk(u uint32, goal func(e uint32) bool) []uint32 {
	p := s.p
	type crumb struct{ from, e uint32 }
	via := map[uint32]crumb{u: {noNode, 0}}
	for queue := []uint32{u}; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		for e := p.start[v]; e < p.start[v+1]; e++ {
			w := p.to[e]
			if s.comp[w] != s.stamp {
				continue
			}
			if goal(e) {
				path := []uint32{e}
				for x := v; via[x].from != noNode; x = via[x].from {
					path = append(path, via[x].e)
				}
				slices.Reverse(path)
				return path
			}
			if _, ok := via[w]; !ok {
				via[w] = crumb{v, e}
				queue = append(queue, w)
			}
		}
	}
	panic("checker: no path inside a strongly connected component")
}
