package checker

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"pnp/internal/model"
	"pnp/internal/pml"
	"pnp/internal/trace"
)

// CheckSafety explores the reachable state space breadth-first on the
// level engine and reports the first assertion violation, runtime
// error, invariant violation, or invalid end state (deadlock), with a
// shortest counterexample.
func (c *Checker) CheckSafety() *Result {
	var res *Result
	withPhaseLabel("safety-par-bfs", func() { res = c.searchLevels("safety-par-bfs", nil) })
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
//
// The search stores the reachable state graph breadth-first (the
// product CheckLTL builds, and WriteDOT draws, with a one-state
// automaton), noting per state whether target holds as it is stored,
// then marks the states reaching target over the reversed edges:
// O(transitions) memory, each state's encoding once plus about 40 bytes
// a state and 12 an edge (Stats.VisitedBytes counts the stored graph).
// Stats.MaxDepth is the breadth-first depth; the counterexample is a
// shortest path to the first state, in breadth-first order, that cannot
// reach target.
func (c *Checker) CheckEventuallyReachable(target pml.RExpr) *Result {
	var res *Result
	withPhaseLabel("ag-ef", func() { res = c.checkEventuallyReachable(target) })
	return res
}

func (c *Checker) checkEventuallyReachable(target pml.RExpr) *Result {
	start := time.Now()
	res := &Result{OK: true}
	defer func() { res.Stats.Elapsed = time.Since(start) }()
	m := c.newMeter("ag-ef")
	defer func() { m.finish(&res.Stats, res.Stats.MaxDepth) }()

	p := c.stateGraph(c.opts.MaxStates)
	p.target = target
	if !p.build(res, m, c.newCanceler()) {
		return res
	}
	if p.targetErr != nil {
		return res.fail(RuntimeError, p.targetErr.Error())
	}
	// The reversed edges as compressed sparse rows: the predecessors of
	// node v are in[from[v]:from[v+1]].
	n := uint32(p.nodes.size())
	from := make([]uint32, n+1)
	for e := range uint32(p.to.size()) {
		from[p.to.at(e)+1]++
	}
	for v := range n {
		from[v+1] += from[v]
	}
	in := make([]uint32, p.to.size())
	next := slices.Clone(from[:n])
	for u := range n {
		for e := p.start.at(u); e < p.start.at(u+1); e++ {
			v := p.to.at(e)
			in[next[v]] = u
			next[v]++
		}
	}

	var stack []uint32
	for v := range n {
		if p.good.at(v) {
			stack = append(stack, v)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range in[from[v]:from[v+1]] {
			if !p.good.at(u) {
				p.good.row(u)[0] = true
				stack = append(stack, u)
			}
		}
	}
	for v := range n {
		if !p.good.at(v) {
			res.fail(InvariantViolation, "target became unreachable")
			res.Trace = &trace.Trace{Prefix: p.prefix(v), Final: res.Message}
			break
		}
	}
	return res
}
