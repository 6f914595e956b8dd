package checker

import (
	"fmt"
	"strings"
	"time"

	"pnp/internal/model"
	"pnp/internal/pml"
	"pnp/internal/trace"
)

// CheckSafety explores the reachable state space and reports the first
// assertion violation, runtime error, invariant violation, or invalid end
// state (deadlock). PartialOrder and ReportUnreached need a stack and
// run the sequential DFS whatever else is set; otherwise Workers >= 1 or
// BFS runs the level engine (shortest counterexamples); otherwise DFS.
func (c *Checker) CheckSafety() *Result {
	var res *Result
	needsStack := c.opts.PartialOrder || c.opts.ReportUnreached
	if !needsStack && (c.opts.Workers >= 1 || c.opts.BFS) {
		withPhaseLabel("safety-par-bfs", func() { res = c.searchLevels("safety-par-bfs", nil) })
	} else {
		phase := "safety-dfs"
		if c.opts.PartialOrder {
			phase = "safety-dfs-por"
		}
		withPhaseLabel(phase, func() { res = c.checkSafetyDFS() })
	}
	return res
}

// stateProblem checks invariants and deadlock for a state; it returns a
// non-nil partial result on violation.
func (c *Checker) stateProblem(st *model.State, numSucc int) (ViolationKind, string) {
	for _, inv := range c.opts.Invariants {
		v, err := c.sys.EvalGlobal(st, inv.Expr)
		if err != nil {
			return RuntimeError, fmt.Sprintf("invariant %s: %s", inv.Name, err)
		}
		if v == 0 {
			return InvariantViolation, fmt.Sprintf("invariant %s violated", inv.Name)
		}
	}
	if numSucc == 0 && !c.opts.IgnoreDeadlock {
		var stuck []string
		for i := range c.sys.Instances() {
			if !c.sys.AtEndState(st, i) {
				stuck = append(stuck, c.sys.ProcName(i))
			}
		}
		if len(stuck) > 0 {
			return Deadlock, "processes blocked outside valid end states: " + strings.Join(stuck, ", ")
		}
	}
	return NoViolation, ""
}

// collectUnreached lists edges of every instantiated proctype that were
// never executed.
func (c *Checker) collectUnreached(executed map[*pml.Edge]bool) []string {
	seenProc := map[string]bool{}
	var out []string
	for _, inst := range c.sys.Instances() {
		p := inst.Proc
		if seenProc[p.Name] {
			continue
		}
		seenProc[p.Name] = true
		for ni := range p.Nodes {
			for ei := range p.Nodes[ni].Edges {
				e := &p.Nodes[ni].Edges[ei]
				if !executed[e] {
					out = append(out, fmt.Sprintf("%s: %s at %s", p.Name, e.Label, e.Pos))
				}
			}
		}
	}
	return out
}

func violationKind(msg string) ViolationKind {
	if msg == "assertion violated" {
		return Assertion
	}
	return RuntimeError
}

type dfsFrame struct {
	st  *model.State
	key string
	in  model.Transition // transition that produced this frame; Edge==nil at root
	trs []model.Transition
	idx int
}

func (c *Checker) checkSafetyDFS() *Result {
	start := time.Now()
	visited := c.newVisited()
	res := &Result{OK: true}
	defer func() { res.Stats.Elapsed = time.Since(start) }()
	phase := "safety-dfs"
	if c.opts.PartialOrder {
		phase = "safety-dfs-por"
	}
	m := c.newMeter(phase)
	defer func() { m.finish(&res.Stats, res.Stats.MaxDepth) }()
	cc := c.newCanceler()

	var executed map[*pml.Edge]bool
	if c.opts.ReportUnreached && !c.opts.PartialOrder {
		executed = make(map[*pml.Edge]bool)
	}
	mark := func(trs []model.Transition) {
		if executed == nil {
			return
		}
		for _, tr := range trs {
			if tr.Violation != "" {
				continue
			}
			executed[tr.Edge] = true
			if tr.PartnerEdge != nil {
				executed[tr.PartnerEdge] = true
			}
		}
	}

	// onStack supports the partial-order reduction's cycle proviso: an
	// ample set whose successor closes a cycle on the DFS stack could
	// postpone other processes forever, so such states expand fully.
	onStack := map[string]bool{}
	succsOf := func(st *model.State) []model.Transition {
		if c.opts.PartialOrder {
			if trs, ok := c.sys.AmpleSuccessors(st); ok {
				closes := false
				for _, tr := range trs {
					if tr.Violation == "" && onStack[tr.Next.Key()] {
						closes = true
						break
					}
				}
				if !closes {
					res.Stats.Reduced++
					return trs
				}
			}
		}
		return c.sys.Successors(st)
	}

	pathEvents := func(stack []dfsFrame, extra *model.Transition) *trace.Trace {
		t := &trace.Trace{}
		for i := 1; i < len(stack); i++ {
			t.Prefix = append(t.Prefix, eventOf(c.sys, stack[i].in))
		}
		if extra != nil {
			t.Prefix = append(t.Prefix, eventOf(c.sys, *extra))
		}
		return t
	}

	fail := func(stack []dfsFrame, extra *model.Transition, kind ViolationKind, msg string) *Result {
		res.OK = false
		res.Kind = kind
		res.Message = msg
		res.Trace = pathEvents(stack, extra)
		res.Trace.Final = msg
		return res
	}

	init := c.sys.InitialState()
	initKey := init.Key()
	visited.seen(initKey)
	onStack[initKey] = true
	res.Stats.StatesStored = 1

	initTrs := succsOf(init)
	mark(initTrs)
	res.Stats.Transitions += len(initTrs)
	stack := []dfsFrame{{st: init, key: initKey, trs: initTrs}}
	if kind, msg := c.stateProblem(init, len(initTrs)); kind != NoViolation {
		return fail(stack, nil, kind, msg)
	}

	for len(stack) > 0 {
		if cc.hit() {
			return cc.cancelResult(res)
		}
		if len(stack) > res.Stats.MaxDepth {
			res.Stats.MaxDepth = len(stack)
		}
		top := &stack[len(stack)-1]
		if top.idx >= len(top.trs) {
			delete(onStack, top.key)
			stack = stack[:len(stack)-1]
			continue
		}
		tr := top.trs[top.idx]
		top.idx++

		if tr.Violation != "" {
			return fail(stack, &tr, violationKind(tr.Violation), tr.Violation)
		}
		key := tr.Next.Key()
		if visited.seen(key) {
			res.Stats.StatesMatched++
			continue
		}
		res.Stats.StatesStored++
		m.tick(&res.Stats, len(stack))
		if c.opts.MaxStates > 0 && res.Stats.StatesStored > c.opts.MaxStates {
			res.Stats.Truncated = true
			res.OK = false
			res.Kind = SearchLimit
			res.Message = fmt.Sprintf("state limit %d exceeded", c.opts.MaxStates)
			return res
		}
		if c.opts.MaxDepth > 0 && len(stack) >= c.opts.MaxDepth {
			res.Stats.Truncated = true
			continue
		}
		onStack[key] = true
		succ := succsOf(tr.Next)
		mark(succ)
		res.Stats.Transitions += len(succ)
		stack = append(stack, dfsFrame{st: tr.Next, key: key, in: tr, trs: succ})
		if kind, msg := c.stateProblem(tr.Next, len(succ)); kind != NoViolation {
			return fail(stack, nil, kind, msg)
		}
	}
	if res.Stats.Truncated {
		res.OK = false
		res.Kind = SearchLimit
		res.Message = fmt.Sprintf("depth limit %d reached; search incomplete", c.opts.MaxDepth)
	}
	if executed != nil && !res.Stats.Truncated {
		res.Unreached = c.collectUnreached(executed)
	}
	return res
}

// CheckReachable searches breadth-first for a state satisfying target.
// Result.OK reports that the target IS reachable, with the shortest
// witness in Result.Trace. Assertion violations and deadlocks encountered
// along the way are not reported; only reachability is decided.
func (c *Checker) CheckReachable(target pml.RExpr) *Result {
	var res *Result
	withPhaseLabel("reachability-par", func() { res = c.searchLevels("reachability-par", target) })
	return res
}

// CheckEventuallyReachable decides AG EF target: from every reachable
// state, a state satisfying target remains reachable. Result.OK reports
// the property holds; on failure, Result.Trace leads to a state from
// which the target has become unreachable (e.g. a message was
// irrecoverably lost). This is the fairness-independent way to check
// "nothing is ever permanently lost".
func (c *Checker) CheckEventuallyReachable(target pml.RExpr) *Result {
	var res *Result
	withPhaseLabel("ag-ef", func() { res = c.checkEventuallyReachable(target) })
	return res
}

func (c *Checker) checkEventuallyReachable(target pml.RExpr) *Result {
	start := time.Now()
	res := &Result{}
	defer func() { res.Stats.Elapsed = time.Since(start) }()
	m := c.newMeter("ag-ef")
	defer func() { m.finish(&res.Stats, res.Stats.MaxDepth) }()
	cc := c.newCanceler()

	// Forward pass: build the full reachable graph. add enforces
	// MaxStates the way the other searches do — count the state, tick
	// the meter, then flag the overrun — so the search stops within one
	// state of the limit instead of finishing the whole expansion.
	type graphNode struct {
		st     *model.State
		parent int
		in     model.Transition
	}
	index := map[string]int{}
	var arena []graphNode
	var succs [][]int
	limitHit := false
	add := func(st *model.State, parent int, in model.Transition) int {
		key := st.Key()
		if i, ok := index[key]; ok {
			res.Stats.StatesMatched++
			return i
		}
		index[key] = len(arena)
		arena = append(arena, graphNode{st: st, parent: parent, in: in})
		succs = append(succs, nil)
		res.Stats.StatesStored++
		m.tick(&res.Stats, 0)
		if c.opts.MaxStates > 0 && res.Stats.StatesStored > c.opts.MaxStates {
			limitHit = true
		}
		return len(arena) - 1
	}
	limitResult := func() *Result {
		res.Stats.Truncated = true
		res.Kind = SearchLimit
		res.Message = fmt.Sprintf("state limit %d exceeded", c.opts.MaxStates)
		return res
	}
	add(c.sys.InitialState(), -1, model.Transition{})
	if limitHit {
		return limitResult()
	}
	for head := 0; head < len(arena); head++ {
		if cc.hit() {
			return cc.cancelResult(res)
		}
		trs := c.sys.Successors(arena[head].st)
		res.Stats.Transitions += len(trs)
		for _, tr := range trs {
			if tr.Violation != "" {
				continue
			}
			succs[head] = append(succs[head], add(tr.Next, head, tr))
			if limitHit {
				return limitResult()
			}
		}
	}

	// Backward pass: states from which a target state is reachable.
	good := make([]bool, len(arena))
	preds := make([][]int, len(arena))
	var queue []int
	for i := range arena {
		v, err := c.sys.EvalGlobal(arena[i].st, target)
		if err != nil {
			res.Kind = RuntimeError
			res.Message = err.Error()
			return res
		}
		if v != 0 {
			good[i] = true
			queue = append(queue, i)
		}
		for _, j := range succs[i] {
			preds[j] = append(preds[j], i)
		}
	}
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, p := range preds[i] {
			if !good[p] {
				good[p] = true
				queue = append(queue, p)
			}
		}
	}
	for i := range arena {
		if good[i] {
			continue
		}
		// Found a reachable state from which the target is unreachable.
		res.Kind = InvariantViolation
		res.Message = "target became unreachable"
		var rev []trace.Event
		for j := i; j > 0; j = arena[j].parent {
			rev = append(rev, eventOf(c.sys, arena[j].in))
		}
		t := &trace.Trace{Final: res.Message}
		for k := len(rev) - 1; k >= 0; k-- {
			t.Prefix = append(t.Prefix, rev[k])
		}
		res.Trace = t
		return res
	}
	res.OK = true
	return res
}
