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
// the rule in force. Each system state is stored once, as its canonical
// encoding in the level engine's exact table; on top of that a product
// node costs about 32 bytes (state id, automaton state, BFS parent, edge
// row, index entry), 8 more for its enabled set under fairness, and an
// edge 8. Stats.VisitedBytes reports the total.
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

// noNode is the BFS parent of a root.
const noNode = ^uint32(0)

// product is the reachable product of the system and the Büchi
// automaton, its nodes numbered in breadth-first order. Edges are kept as
// compressed sparse rows: the edges out of node u are
// to[start[u]:start[u+1]], and movers[e] holds the pids acting on edge e
// (-1 when unused, so a stutter edge is {-1, -1}). No event is stored per
// edge; event re-derives one by expanding the edge's source again.
//
// System states are stored the way the level engine stores them: each
// distinct state's vector once, in table, whose dense index is the
// state's id; a node is a (state id, automaton state) pair. No
// node keeps a *model.State: build holds live states for two levels
// only, and the few readers after it (counterexamples, WriteDOT) decode
// a node's state from its encoding.
//
// With a one-state automaton (stateGraph) it is the plain reachable
// state graph that AG EF and WriteDOT read.
type product struct {
	c      *Checker
	aut    *ltl.Automaton
	atoms  []pml.RExpr
	vals   []bool
	sat    func(int) bool
	fair   fairness
	words  int       // bitset words per node in enabled; 0 without fairness
	roots  int       // nodes 0..roots-1 hold the initial state
	limit  int       // build stops once more than limit nodes are stored; 0 = no cap
	graph  bool      // a violating step is left out instead of ending the search, and no stutter edges
	target pml.RExpr // AG EF's target, evaluated into good as nodes are stored; nil for none

	table     *stateTable       // state vectors of system states; single-writer, so a ref is a state id
	index     map[uint64]uint32 // node of (state id, q), keyed id<<32 | q
	sid       []uint32          // node -> state id
	q         []int32
	parent    []uint32
	start     []uint32
	to        []uint32
	movers    [][2]int16
	enabled   []uint64
	good      []bool // target holds at the node's state; nil without target
	targetErr error  // the target's first evaluation error, in node order
	accepting bool   // some stored node is accepting
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
	p, err := c.ltlProduct(f, props)
	if err != nil {
		return res.fail(RuntimeError, err.Error())
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

// ltlProduct returns the unbuilt product of the system and a Büchi
// automaton for ¬f, under the fairness rule of the options.
func (c *Checker) ltlProduct(f *ltl.Formula, props map[string]pml.RExpr) (*product, error) {
	aut, err := ltl.Translate(ltl.Not(f))
	if err != nil {
		return nil, err
	}
	p := &product{c: c, aut: aut, limit: c.opts.MaxStates}
	for _, name := range aut.Atoms {
		e, ok := props[name]
		if !ok {
			return nil, fmt.Errorf("undefined atomic proposition %q", name)
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
	return p, nil
}

// stateGraph returns the reachable state graph of the system, up to
// limit states, as a product with a one-state automaton and no atoms
// (so sat is never called): every reachable state is exactly one node,
// and its edges are the transitions without a safety violation.
func (c *Checker) stateGraph(limit int) *product {
	loop := []ltl.Trans{{Dst: 0}}
	aut := &ltl.Automaton{States: []ltl.AState{{Trans: loop}}, InitTrans: loop}
	return &product{c: c, aut: aut, limit: limit, graph: true}
}

// fail marks r as failed with kind and msg.
func (r *Result) fail(kind ViolationKind, msg string) *Result {
	r.OK = false
	r.Kind = kind
	r.Message = msg
	return r
}

// liveLevel holds each state of one BFS level's nodes, in node order.
// Nodes built from one transition share its state and are adjacent; no
// two transitions share a state, so the level's distinct states are its
// runs of equal pointers.
type liveLevel []*model.State

// retire returns the level's states to a, each once, and empties it.
func (lv *liveLevel) retire(a *model.Arena) {
	for i, st := range *lv {
		if i == 0 || st != (*lv)[i-1] {
			a.Recycle(st)
		}
	}
	*lv = (*lv)[:0]
}

// build stores the reachable product breadth-first, one level at a time.
// It reports false when the search ended early — a safety violation
// (with its shortest prefix) unless in graph mode, an evaluation error,
// the state limit, or cancellation — with res filled in. Every node it
// expanded has its row of edges, even then.
//
// Like the level engine, it expands states from a recycling arena,
// interns each successor's vector directly, and it holds the
// *model.State of the level it expands and of the level it fills, no
// more: a successor that stores no node goes back to the arena at once,
// a level's states once the level is expanded.
func (p *product) build(res *Result, m *meter, cc *canceler) bool {
	c := p.c
	full := func() bool { return p.limit > 0 && len(p.q) > p.limit }
	p.index = map[uint64]uint32{}
	arena := &model.Arena{}
	init := c.sys.InitialState()
	var cur, next liveLevel
	p.table = newStateTable(len(init.Bytes()), 1, nil)
	id := p.table.intern(model.Hash64(init.Bytes()), init.Bytes())
	if err := p.label(init); err != nil {
		res.fail(RuntimeError, err.Error())
		return false
	}
	for _, at := range p.aut.InitTrans {
		if at.Sat(p.sat) {
			if _, ok := p.intern(init, id, at.Dst, noNode, res); ok {
				next = append(next, init)
			}
		}
	}
	p.roots = len(p.q)
	p.start = append(p.start, 0)
	var trs []model.Transition
	for lo, hi, depth := 0, len(p.q), 0; lo < hi; lo, hi, depth = hi, len(p.q), depth+1 {
		res.Stats.MaxDepth = depth
		cur, next = next, cur
		next.retire(arena)
		for i := lo; i < hi; i++ {
			u := uint32(i)
			if cc.hit() {
				cc.cancelResult(res)
				return false
			}
			st := cur[i-lo]
			trs = c.sys.SuccessorsAppend(st, arena, trs[:0])
			res.Stats.Transitions += len(trs)
			for _, tr := range trs {
				if v := tr.Violation; v != "" && !p.graph {
					// Safety violations surface whatever the formula says.
					res.fail(violationKind(v), v)
					res.Trace = &trace.Trace{Prefix: append(p.prefix(u), eventOf(c.sys, tr)), Final: v}
					return false
				}
			}
			mark := len(next)
			var last *model.Transition
			var live *model.State // the state the new nodes of last hold
			err := p.successors(u, st, trs, func(tr *model.Transition, q int) {
				if full() {
					return
				}
				if tr != last {
					last, live = tr, tr.Next
					id = p.table.intern(model.Hash64(tr.Next.Bytes()), tr.Next.Bytes())
				}
				v, ok := p.intern(tr.Next, id, q, u, res)
				p.to = append(p.to, v)
				p.movers = append(p.movers, [2]int16{int16(tr.Proc), int16(tr.Partner)})
				if ok {
					if live == st {
						// A stutter step: st is the expanded level's, so
						// the new level gets its own copy.
						live = p.decode(id)
					}
					next = append(next, live)
				}
			})
			p.start = append(p.start, uint32(len(p.to)))
			if err != nil {
				res.fail(RuntimeError, err.Error())
				return false
			}
			// Successors that stored no node go back to the arena now;
			// the rest are next's, in trs order.
			for j := range trs {
				kept := false
				for ; mark < len(next) && next[mark] == trs[j].Next; mark++ {
					kept = true
				}
				if !kept && trs[j].Violation == "" {
					arena.Recycle(trs[j].Next)
				}
			}
			if full() {
				res.Stats.Truncated = true
				res.fail(SearchLimit, fmt.Sprintf("state limit %d exceeded", p.limit))
				return false
			}
		}
		res.Stats.VisitedBytes = p.bytes()
		m.visited(res.Stats.VisitedBytes)
		m.level(&res.Stats, depth, hi-lo, len(p.q)-hi)
	}
	return true
}

// intern returns the node of (state id, q), storing it first if it is
// new (ok reports that); st is the state itself.
func (p *product) intern(st *model.State, id uint32, q int, parent uint32, res *Result) (node uint32, ok bool) {
	k := uint64(id)<<32 | uint64(q)
	if v, ok := p.index[k]; ok {
		res.Stats.StatesMatched++
		return v, false
	}
	v := uint32(len(p.q))
	p.index[k] = v
	p.sid = append(p.sid, id)
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
	if p.target != nil {
		x, err := p.c.sys.EvalGlobal(st, p.target)
		if err != nil && p.targetErr == nil {
			p.targetErr = err
		}
		p.good = append(p.good, err == nil && x != 0)
	}
	p.accepting = p.accepting || p.aut.States[q].Accepting
	res.Stats.StatesStored++
	return v, true
}

// bytes is the resident size of the product: the state table, the node
// index (counted at 16 bytes an entry) and the per-node and per-edge
// arrays.
func (p *product) bytes() int64 {
	b := p.table.bytes() + int64(len(p.index))*16
	b += int64(cap(p.sid)+cap(p.q)+cap(p.parent)+cap(p.start)+cap(p.to))*4 + int64(cap(p.movers))*4
	return b + int64(cap(p.enabled))*8 + int64(cap(p.good))
}

// decode rebuilds the system state of state id from its encoding.
func (p *product) decode(id uint32) *model.State {
	st, err := model.DecodeKey(p.c.sys.InitialState(), p.table.entry(uint64(id)))
	if err != nil {
		panic("checker: a stored product state does not decode: " + err.Error())
	}
	return st
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

// successors calls emit for every product edge out of u, whose state is
// st, always in the same order: each system step of trs without a
// violation (a stutter step to st when trs is empty, outside graph
// mode), then each automaton move its target's labels allow.
func (p *product) successors(u uint32, st *model.State, trs []model.Transition, emit func(tr *model.Transition, q int)) error {
	if len(trs) == 0 && !p.graph {
		trs = []model.Transition{{Proc: -1, Partner: -1, Ch: -1, Next: st}}
	}
	for i := range trs {
		if trs[i].Violation != "" {
			continue
		}
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
	st := p.decode(p.sid[u])
	p.successors(u, st, p.c.sys.Successors(st), func(tr *model.Transition, _ int) {
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
	n := len(p.q)
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
