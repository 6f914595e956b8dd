package checker

import (
	"bytes"
	"encoding/binary"
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
// automaton for the negated formula breadth-first, then splits it into
// strongly connected components: the formula fails iff some component
// holds an accepting node and a cycle that is fair under the rule in
// force. Each system state is stored once, as its vector in a table of
// the level engine's kind; on top of that a product node costs about
// 30 bytes (its 8-byte (state id, automaton state) entry and its slot
// in a second such table, BFS parent, edge row) and 8 more for its
// enabled set under fairness. An edge is stored only inside an
// automaton component that can carry an accepting cycle, at 4 bytes,
// 8 under fairness. Stats.VisitedBytes reports the total.
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
// to[start[u]:start[u+1]], and under fairness movers[e] holds the pids
// acting on edge e (-1 when unused, so a stutter edge is {-1, -1}). No
// event is stored per edge; event re-derives one by expanding the edge's
// source again.
//
// Only edges an accepting cycle can use are stored (Bloem, Ravi &
// Somenzi, CAV 1999): a product cycle stays inside one automaton
// component, so an edge u→v is stored only when q(u) and q(v) share a
// component holding an accepting state and a transition (keeps), and a
// product component with an accepting node and a cycle keeps them all.
//
// System states are stored the way the level engine stores them: each
// distinct state's vector once, in table, whose dense index is the
// state's id. A node is one 8-byte entry of nodes, the little-endian
// pair (state id, automaton state), and its dense index there is the
// node id. No node keeps a *model.State: build and the few readers
// after it (counterexamples, WriteDOT) decode a node's state from its
// vector.
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
	comp   []int     // automaton component of each automaton state whose edges are stored, or -1
	limit  int       // build stops once more than limit nodes are stored; 0 = no cap
	graph  bool      // a violating step is left out instead of ending the search, and no stutter edges
	target pml.RExpr // AG EF's target, evaluated into good as nodes are stored; nil for none

	table     *stateTable    // state vectors of system states; single-writer, so a ref is a state id
	nodes     *stateTable    // (state id, q) of each node; single-writer, so a ref is a node id
	parent    column[uint32] // columns grow in pages that never move
	start     column[uint32]
	to        column[uint32]
	movers    column[[2]int16] // empty without fairness
	enabled   column[uint64]   // rows of bitset words; width 0 without fairness
	good      column[bool]     // target holds at the node's state; empty without target
	targetErr error            // the target's first evaluation error, in node order
	accepting bool             // some stored node is accepting, in a component whose edges are stored
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
	p := &product{c: c, aut: aut, limit: c.opts.MaxStates, comp: cycleComps(aut)}
	if c.allEdges {
		p.comp = make([]int, len(aut.States))
	}
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
		p.enabled.width = (c.sys.NumInstances() + 63) / 64
	}
	return p, nil
}

// stateGraph returns the reachable state graph of the system, up to
// limit states, as a product with a one-state automaton and no atoms
// (so sat is never called): every reachable state is exactly one node,
// and its edges, all stored (comp puts the one automaton state in a
// component of its own), are the transitions without a safety violation.
func (c *Checker) stateGraph(limit int) *product {
	loop := []ltl.Trans{{Dst: 0}}
	aut := &ltl.Automaton{States: []ltl.AState{{Trans: loop}}, InitTrans: loop}
	return &product{c: c, aut: aut, limit: limit, graph: true, comp: []int{0}}
}

// cycleComps numbers the strongly connected components of aut's states
// (Tarjan) and returns each state's number when its component holds an
// accepting state and a transition between two of its states, and -1
// otherwise: only such a component can carry an accepting cycle.
func cycleComps(aut *ltl.Automaton) []int {
	// A state's index is its 1-based stack position, so low 0 means
	// not yet visited; a finished component's states get low len+1.
	comp, low := make([]int, len(aut.States)), make([]int, len(aut.States))
	var stack []int
	var visit func(q int)
	visit = func(q int) {
		stack = append(stack, q)
		index := len(stack)
		low[q] = index
		for _, t := range aut.States[q].Trans {
			if low[t.Dst] == 0 {
				visit(t.Dst)
			}
			low[q] = min(low[q], low[t.Dst])
		}
		if low[q] != index {
			return
		}
		scc := stack[index-1:]
		stack = stack[:index-1]
		looped := len(scc) > 1 || slices.ContainsFunc(aut.States[q].Trans, func(t ltl.Trans) bool { return t.Dst == q })
		accepting := slices.ContainsFunc(scc, func(r int) bool { return aut.States[r].Accepting })
		for _, r := range scc {
			low[r], comp[r] = len(low)+1, -1
			if looped && accepting {
				comp[r] = q
			}
		}
	}
	for q := range aut.States {
		if low[q] == 0 {
			visit(q)
		}
	}
	return comp
}

// keeps reports whether an edge from automaton state q to r is stored.
func (p *product) keeps(q, r int) bool {
	return p.comp[q] >= 0 && p.comp[q] == p.comp[r]
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
// (with its shortest prefix) unless in graph mode, an evaluation error,
// the state limit, or cancellation — with res filled in. Every node it
// expanded has its row of edges, even then.
//
// Like the level engine, it expands states from a recycling arena and
// interns each successor's vector directly. It holds no state between
// nodes: each node's state is decoded from its stored vector, and it
// and its successors go back to the arena once the node is expanded.
func (p *product) build(res *Result, m *meter, cc *canceler) bool {
	c := p.c
	full := func() bool { return p.limit > 0 && p.nodes.size() > p.limit }
	arena := &model.Arena{}
	init := c.sys.InitialState()
	p.table = newStateTable(len(init.Bytes()), 1, nil)
	p.nodes = newStateTable(8, 1, nil)
	id := p.table.intern(model.Hash64(init.Bytes()), init.Bytes())
	if err := p.label(init); err != nil {
		res.fail(RuntimeError, err.Error())
		return false
	}
	for _, at := range p.aut.InitTrans {
		if at.Sat(p.sat) {
			p.intern(init, id, at.Dst, noNode, res)
		}
	}
	p.start.push(0)
	var trs []model.Transition
	for lo, hi, depth := 0, p.nodes.size(), 0; lo < hi; lo, hi, depth = hi, p.nodes.size(), depth+1 {
		res.Stats.MaxDepth = depth
		for i := lo; i < hi; i++ {
			u := uint32(i)
			if cc.hit() {
				cc.cancelResult(res)
				return false
			}
			// Every entry of table is init's width, so this cannot fail.
			st, _ := arena.Decode(init, p.table.entry(uint64(p.sidOf(u))))
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
			var last *model.Transition
			qu := p.qOf(u)
			err := p.successors(u, st, trs, func(tr *model.Transition, q int) {
				if full() {
					return
				}
				if tr != last {
					last = tr
					id = p.table.intern(model.Hash64(tr.Next.Bytes()), tr.Next.Bytes())
				}
				if v := p.intern(tr.Next, id, q, u, res); p.keeps(qu, q) {
					p.to.push(v)
					if p.fair != unfair {
						p.movers.push([2]int16{int16(tr.Proc), int16(tr.Partner)})
					}
				}
			})
			p.start.push(uint32(p.to.size()))
			if err != nil {
				res.fail(RuntimeError, err.Error())
				return false
			}
			// A violating transition's Next is st itself.
			for j := range trs {
				if trs[j].Violation == "" {
					arena.Recycle(trs[j].Next)
				}
			}
			arena.Recycle(st)
			if full() {
				res.Stats.Truncated = true
				res.fail(SearchLimit, fmt.Sprintf("state limit %d exceeded", p.limit))
				return false
			}
		}
		res.Stats.VisitedBytes = p.bytes()
		m.visited(res.Stats.VisitedBytes)
		m.level(&res.Stats, depth, hi-lo, p.nodes.size()-hi)
	}
	return true
}

// intern returns the node of (state id, q), storing it first if it is
// new; st is the state itself.
func (p *product) intern(st *model.State, id uint32, q int, parent uint32, res *Result) uint32 {
	var k [8]byte
	binary.LittleEndian.PutUint32(k[:4], id)
	binary.LittleEndian.PutUint32(k[4:], uint32(q))
	ref, had := p.nodes.put(0, model.Hash64(k[:]), k[:])
	v := uint32(ref)
	if had {
		res.Stats.StatesMatched++
		return v
	}
	p.parent.push(parent)
	if p.enabled.width > 0 {
		en := p.enabled.grow()
		for pid := 0; pid < p.c.sys.NumInstances(); pid++ {
			if p.c.sys.ProcEnabled(st, pid) {
				en[pid/64] |= 1 << (pid % 64)
			}
		}
	}
	if p.target != nil {
		x, err := p.c.sys.EvalGlobal(st, p.target)
		if err != nil && p.targetErr == nil {
			p.targetErr = err
		}
		p.good.push(err == nil && x != 0)
	}
	p.accepting = p.accepting || p.aut.States[q].Accepting && p.comp[q] >= 0
	res.Stats.StatesStored++
	return v
}

// bytes is the resident size of the product: its two tables and the
// per-node and per-edge arrays.
func (p *product) bytes() int64 {
	b := p.table.bytes() + p.nodes.bytes()
	b += int64(p.parent.capacity()+p.start.capacity()+p.to.capacity()+p.movers.capacity()) * 4
	return b + int64(p.enabled.capacity())*8 + int64(p.good.capacity())
}

// sidOf and qOf read node u's state id and automaton state.
func (p *product) sidOf(u uint32) uint32 {
	return binary.LittleEndian.Uint32(p.nodes.entry(uint64(u)))
}

func (p *product) qOf(u uint32) int {
	return int(binary.LittleEndian.Uint32(p.nodes.entry(uint64(u))[4:]))
}

// decode rebuilds node u's system state from its vector.
func (p *product) decode(u uint32) *model.State {
	st, err := model.DecodeKey(p.c.sys.InitialState(), p.table.entry(uint64(p.sidOf(u))))
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
	moves := p.aut.States[p.qOf(u)].Trans
	for i := range trs {
		if trs[i].Violation != "" {
			continue
		}
		if err := p.label(trs[i].Next); err != nil {
			return err
		}
		for _, at := range moves {
			if at.Sat(p.sat) {
				emit(&trs[i], at.Dst)
			}
		}
	}
	return nil
}

// step re-derives the trace event of the first edge out of node u, in
// emission order, that hit accepts: expansion is deterministic.
func (p *product) step(u uint32, hit func(tr *model.Transition, q int) bool) trace.Event {
	var at *model.Transition
	st := p.decode(u)
	p.successors(u, st, p.c.sys.Successors(st), func(tr *model.Transition, q int) {
		if at == nil && hit(tr, q) {
			at = tr
		}
	})
	if at == nil || at.Proc < 0 {
		return stutterEvent
	}
	return eventOf(p.c.sys, *at)
}

// event re-derives the trace event of stored edge e out of node u, the
// stored edges being those keeps admits.
func (p *product) event(u, e uint32) trace.Event {
	k, qu := p.start.at(u), p.qOf(u)
	return p.step(u, func(_ *model.Transition, q int) bool {
		if !p.keeps(qu, q) {
			return false
		}
		k++
		return k-1 == e
	})
}

// stutterEvent is the step a state without successors repeats forever.
var stutterEvent = trace.Event{Action: "(stutter)"}

// prefix returns the events of the BFS path from a root to node v. The
// tree edge into a node is the first edge its parent emits to it, which
// its parent's row need not hold.
func (p *product) prefix(v uint32) []trace.Event {
	var out []trace.Event
	for ; p.parent.at(v) != noNode; v = p.parent.at(v) {
		q, want := p.qOf(v), p.table.entry(uint64(p.sidOf(v)))
		out = append(out, p.step(p.parent.at(v), func(tr *model.Transition, r int) bool {
			return r == q && bytes.Equal(tr.Next.Bytes(), want)
		}))
	}
	slices.Reverse(out)
	return out
}

func (p *product) isEnabled(v uint32, pid int) bool {
	return p.enabled.row(v)[pid/64]&(1<<(pid%64)) != 0
}

func (p *product) moves(e uint32, pid int) bool {
	return int(p.movers.at(e)[0]) == pid || int(p.movers.at(e)[1]) == pid
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

type sccFrame struct {
	v, e uint32
	loop bool // v has an edge to itself
}

func newSCCPass(p *product, cc *canceler) *sccPass {
	n := p.nodes.size()
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
// is every node in id order, as only the kept edges join nodes; under
// strong fairness a component that starves a pid it enables loses the
// nodes enabling it, and the rest is decomposed again as a new task.
func (s *sccPass) search() (entry uint32, moves []uint64) {
	p := s.p
	type task struct {
		id      uint32
		members []uint32
	}
	var tasks []task
	entry, stamp := noNode, uint32(0)
	visit := func(scc []uint32) {
		s.stamp++
		acc := noNode
		for _, v := range scc {
			s.comp[v] = s.stamp
			if p.aut.States[p.qOf(v)].Accepting {
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
	}
	for v := range uint32(p.nodes.size()) {
		s.run(0, v, visit)
	}
	for len(tasks) > 0 {
		tk := tasks[len(tasks)-1]
		tasks = tasks[:len(tasks)-1]
		for _, v := range tk.members {
			s.run(tk.id, v, visit)
		}
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
	moves = make([]uint64, p.enabled.width)
	some := make([]uint64, p.enabled.width)
	all := make([]uint64, p.enabled.width)
	for w := range all {
		all[w] = ^uint64(0)
	}
	for _, v := range scc {
		for e := p.start.at(v); e < p.start.at(v+1); e++ {
			if s.comp[p.to.at(e)] != s.stamp {
				continue
			}
			for _, pid := range p.movers.at(e) {
				if pid >= 0 {
					moves[pid/64] |= 1 << (pid % 64)
				}
			}
		}
		for w, en := range p.enabled.row(v) {
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
		if !intersects(s.p.enabled.row(v), starved) {
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

// run decomposes the nodes tagged task that root reaches, unless root
// is outside the task or already decomposed or the search is canceled,
// calling visit with each nontrivial component.
func (s *sccPass) run(task, root uint32, visit func(scc []uint32)) {
	p := s.p
	if s.tag[root] != task || s.index[root] != 0 || s.cc.hit() {
		return
	}
	s.push(root)
	for len(s.calls) > 0 {
		if s.cc.hit() {
			return
		}
		fr := &s.calls[len(s.calls)-1]
		v := fr.v
		if fr.e < p.start.at(v+1) {
			w := p.to.at(fr.e)
			fr.e++
			switch {
			case s.tag[w] != task:
			case s.index[w] == 0:
				s.push(w)
			case w == v:
				fr.loop = true
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
		if len(scc) > 1 || fr.loop {
			visit(scc)
		}
		s.stack = s.stack[:i]
	}
}

func (s *sccPass) push(v uint32) {
	s.counter++
	s.index[v], s.low[v] = s.counter, s.counter
	s.onStack[v] = true
	s.stack = append(s.stack, v)
	s.calls = append(s.calls, sccFrame{v: v, e: s.p.start.at(v)})
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
		cur = p.to.at(path[len(path)-1])
	}
	served := func(pid int) bool {
		if p.fair == weaklyFair && !p.isEnabled(entry, pid) {
			return true
		}
		for _, e := range edges {
			if p.moves(e, pid) || p.fair == weaklyFair && !p.isEnabled(p.to.at(e), pid) {
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
			walk(func(e uint32) bool { return !p.isEnabled(p.to.at(e), pid) })
		}
	}
	if len(edges) == 0 || cur != entry {
		walk(func(e uint32) bool { return p.to.at(e) == entry })
	}
	events := make([]trace.Event, len(edges))
	for i, e := range edges {
		events[i] = p.event(entry, e)
		entry = p.to.at(e)
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
		for e := p.start.at(v); e < p.start.at(v+1); e++ {
			w := p.to.at(e)
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

// column is an append-only array of rows of width values (1 when width
// is 0), stored in pages of 2^columnPageLog2 rows: a page, once
// allocated, is never copied, so a growing column costs neither a copy
// nor a second array while it is made.
type column[T any] struct {
	width int
	pages [][]T
	n     uint32 // rows
}

const columnPageLog2 = 12

// grow appends a row of zeros and returns it.
func (a *column[T]) grow() []T {
	if a.n%(1<<columnPageLog2) == 0 {
		a.pages = append(a.pages, make([]T, max(a.width, 1)<<columnPageLog2))
	}
	a.n++
	return a.row(a.n - 1)
}

func (a *column[T]) push(v T) { a.grow()[0] = v }

// row returns row i, which stays valid as the column grows.
func (a *column[T]) row(i uint32) []T {
	w := max(a.width, 1)
	o := int(i%(1<<columnPageLog2)) * w
	return a.pages[i>>columnPageLog2][o : o+w : o+w]
}

// at reads row i of a column of width 1.
func (a *column[T]) at(i uint32) T { return a.pages[i>>columnPageLog2][i%(1<<columnPageLog2)] }

// size is the number of rows; capacity the number of values allocated.
func (a *column[T]) size() int { return int(a.n) }

func (a *column[T]) capacity() int { return len(a.pages) * max(a.width, 1) << columnPageLog2 }
