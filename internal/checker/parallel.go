package checker

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pnp/internal/model"
	"pnp/internal/obs"
	"pnp/internal/pml"
	"pnp/internal/trace"
)

// The level engine is the checker's one breadth-first search: safety
// under Options.BFS or Options.Workers >= 1, and every CheckReachable.
// It explores one level at a time: all frontier nodes of depth d are
// expanded (by Options.Workers goroutines pulling from a shared index,
// or inline on the caller's goroutine at one worker) before any node of
// depth d+1 is looked at. The barrier is what makes the search
// worker-count-independent: the set of states at depth d+1 is exactly
// successors(level d) minus the visited set after level d, no matter
// how workers interleave, so verdicts, StatesStored, and counterexample
// lengths match at every worker count. Violations found while expanding
// a level are collected and adjudicated deterministically at the
// barrier (see bestProblem) instead of racing to report first.

// parNode is one frontier entry. parent indexes the previous level's
// slice (-1 in levels[0]); idx is the position of the transition that
// produced the node in its parent's deterministic SuccessorsAppend
// order. st is nil once the node's level is retired (see advance):
// counterexamples are replayed from levels[0], not read off the nodes.
type parNode struct {
	st          *model.State
	parent, idx int32
}

// nodeEnc is a live node's canonical encoding and section ends (from
// State.AppendComponentKeys), kept beside its level — level[i]'s is
// encs[i] — rather than in parNode, so retired levels cost 16 bytes a
// node. A successor's encoding is built from its parent's
// (AppendComponentKeysFrom), and the checkpoint log and violation
// adjudication read these bytes instead of re-encoding.
type nodeEnc struct {
	enc  []byte
	ends []int
}

// add appends enc and ends to s, a worker's slab — the concatenated
// encodings and ends of the nodes it stored for one level — and returns
// the new node's nodeEnc, which aliases the slab.
func (s *nodeEnc) add(enc []byte, ends []int) nodeEnc {
	b, e := len(s.enc), len(s.ends)
	s.enc = append(s.enc, enc...)
	s.ends = append(s.ends, ends...)
	return nodeEnc{enc: s.enc[b:len(s.enc):len(s.enc)], ends: s.ends[e:len(s.ends):len(s.ends)]}
}

// parProblem is one violation candidate found while working a level.
// trIdx is the index of the violating transition in its node's
// (deterministic) successor order, or -1 when the node's own state is
// the problem (invariant violation, deadlock, eval error, or — in the
// reachability search — a target hit, kind NoViolation).
type parProblem struct {
	node  int
	trIdx int
	kind  ViolationKind
	msg   string
}

// parWorker is the per-goroutine scratch: a state arena, a reusable key
// buffer, a reusable transition slice, and local accumulators flushed
// at each level barrier so the hot loop touches no shared counters
// except the visited set and the stored-states total.
//
// slabs hold the encodings of the nodes this worker stored, by level
// parity: expanding level d writes level d+1's into the slab of level
// d-1, which every reader has retired by then (the barrier orders the
// writes before the reads).
type parWorker struct {
	arena    *model.Arena
	scratch  []byte
	ends     []int
	trs      []model.Transition
	slabs    [2]nodeEnc
	slab     *nodeEnc // the slab expand writes
	next     []parNode
	nextEnc  []nodeEnc
	problems []parProblem
	trans    int
	matched  int
	busy     time.Duration
	cc       *canceler
}

// parRunner holds the cross-worker state of one parallel search.
type parRunner struct {
	c       *Checker
	workers []*parWorker
	visited parVisited
	stored  atomic.Int64 // states stored so far, root included
	stop    atomic.Bool  // cancel or state limit: workers drain promptly
	limit   atomic.Bool
	cancel  atomic.Bool

	gFrontier, gWorkers, gVisitedBytes *obs.Gauge
	cBusy                              *obs.Counter
}

func (c *Checker) newParRunner(phase string) *parRunner {
	w := c.opts.Workers
	if w < 1 {
		w = 1
	}
	r := &parRunner{c: c}
	var contention, spilled *obs.Counter
	if reg := c.opts.Metrics; reg != nil {
		contention = reg.Counter(obs.Labels("checker_visited_shard_contention_total", "phase", phase))
		spilled = reg.Counter(obs.Labels("checker_visited_spilled_states_total", "phase", phase))
		r.cBusy = reg.Counter(obs.Labels("checker_worker_busy_ns_total", "phase", phase))
		r.gFrontier = reg.Gauge(obs.Labels("checker_frontier_states", "phase", phase))
		r.gWorkers = reg.Gauge(obs.Labels("checker_workers", "phase", phase))
		r.gVisitedBytes = reg.Gauge(obs.Labels("checker_visited_bytes", "phase", phase))
	}
	r.gWorkers.Set(int64(w))
	r.visited = c.newParVisited(contention, spilled)
	r.workers = make([]*parWorker, w)
	for i := range r.workers {
		r.workers[i] = &parWorker{arena: &model.Arena{}, cc: c.newCanceler()}
	}
	return r
}

// seedRoot records the initial state in the visited set and returns the
// one-node root level and its encoding.
func (r *parRunner) seedRoot() ([][]parNode, []nodeEnc) {
	init := r.c.sys.InitialState()
	enc, ends := init.AppendComponentKeys(nil, nil)
	r.visited.seen(model.Hash64(enc), enc, ends)
	r.stored.Store(1)
	return [][]parNode{{{st: init, parent: -1}}}, []nodeEnc{{enc: enc, ends: ends}}
}

// close releases visited-set resources (spill segment mappings and
// files) once the search is over.
func (r *parRunner) close() {
	if s, ok := r.visited.(*spillSet); ok {
		s.close()
	}
}

// abort flags a worker-side stop condition. Cancellation and the state
// limit drain the level early (their stats are best-effort, as in the
// sequential DFS); violations do NOT stop the level — it must
// complete so the stored set stays deterministic.
func (r *parRunner) abortCancel() { r.cancel.Store(true); r.stop.Store(true) }
func (r *parRunner) abortLimit()  { r.limit.Store(true); r.stop.Store(true) }

// runLevel drives work(worker, nodeIndex) over every index of cur,
// spreading indices across the workers. With one worker it runs inline,
// goroutine-free.
func (r *parRunner) runLevel(n int, work func(w *parWorker, i int)) {
	var idx atomic.Int64
	loop := func(w *parWorker) {
		t0 := time.Now()
		for !r.stop.Load() {
			i := int(idx.Add(1) - 1)
			if i >= n {
				break
			}
			if w.cc.hit() {
				r.abortCancel()
				break
			}
			work(w, i)
		}
		w.busy += time.Since(t0)
	}
	if len(r.workers) == 1 {
		loop(r.workers[0])
		return
	}
	var wg sync.WaitGroup
	for _, w := range r.workers {
		wg.Add(1)
		go func(w *parWorker) {
			defer wg.Done()
			loop(w)
		}(w)
	}
	wg.Wait()
}

// expandLevel expands every node of cur, levels[li], whose encodings
// are curEnc, and collects the next level at the barrier.
func (r *parRunner) expandLevel(res *Result, li int, cur []parNode, curEnc []nodeEnc, safety bool) ([]parNode, []nodeEnc, []parProblem) {
	for _, w := range r.workers {
		w.slab = &w.slabs[(li+1)%2]
		w.slab.enc, w.slab.ends = w.slab.enc[:0], w.slab.ends[:0]
	}
	r.runLevel(len(cur), func(w *parWorker, i int) { w.expand(r, cur, curEnc, i, safety) })
	return r.collect(res)
}

// collect flushes every worker's level-local accumulators into the
// result stats and returns the concatenated next frontier, its
// encodings, and the problem list. Concatenation order varies between
// runs; everything downstream is order-insensitive (sets and
// min-adjudication).
func (r *parRunner) collect(res *Result) (next []parNode, nextEnc []nodeEnc, problems []parProblem) {
	for _, w := range r.workers {
		res.Stats.Transitions += w.trans
		res.Stats.StatesMatched += w.matched
		w.trans, w.matched = 0, 0
		next = append(next, w.next...)
		w.next = w.next[:0]
		nextEnc = append(nextEnc, w.nextEnc...)
		w.nextEnc = w.nextEnc[:0]
		problems = append(problems, w.problems...)
		w.problems = w.problems[:0]
		r.cBusy.Add(w.busy.Nanoseconds())
		w.busy = 0
	}
	res.Stats.StatesStored = int(r.stored.Load())

	// Barrier-granularity memory accounting: record the peak before any
	// spill (that is what the search actually needed resident), let the
	// spill tier flush if the budget is exceeded, then publish the
	// current footprint.
	if b := r.visited.bytes(); b > res.Stats.VisitedBytes {
		res.Stats.VisitedBytes = b
	}
	if s, ok := r.visited.(*spillSet); ok {
		s.maybeSpill()
		res.Stats.SpilledStates = int(s.spilled.Load())
	}
	r.gVisitedBytes.Set(r.visited.bytes())
	return next, nextEnc, problems
}

// limitResult finishes a search that crossed MaxStates. StatesStored is
// clamped to limit+1 — the value the sequential DFS reports when it
// stores the first state past the limit and stops.
func (r *parRunner) limitResult(res *Result) *Result {
	if res.Stats.StatesStored > r.c.opts.MaxStates+1 {
		res.Stats.StatesStored = r.c.opts.MaxStates + 1
	}
	res.Stats.Truncated = true
	res.OK = false
	res.Kind = SearchLimit
	res.Message = fmt.Sprintf("state limit %d exceeded", r.c.opts.MaxStates)
	return res
}

// cancelResult finishes a canceled search. Only a worker whose canceler
// fired sets r.cancel, and every worker's canceler polls the one
// Options.Context, so any of them can render the verdict.
func (r *parRunner) cancelResult(res *Result) *Result {
	return r.workers[0].cc.cancelResult(res)
}

// bestProblem picks the violation to report, deterministically: state
// problems (counterexample length = node depth) before violating
// transitions (length = depth+1), then smallest state encoding (curEnc,
// the level's), then smallest transition index. The order is a pure
// function of the level set, so every worker count reports the same
// counterexample.
func bestProblem(curEnc []nodeEnc, problems []parProblem) *parProblem {
	rank := func(p *parProblem) int {
		if p.trIdx < 0 {
			return 0
		}
		return 1
	}
	less := func(p, q *parProblem) bool {
		if rank(p) != rank(q) {
			return rank(p) < rank(q)
		}
		c := bytes.Compare(curEnc[p.node].enc, curEnc[q.node].enc)
		return c < 0 || c == 0 && p.trIdx < q.trIdx
	}
	var best *parProblem
	for i := range problems {
		if p := &problems[i]; best == nil || less(p, best) {
			best = p
		}
	}
	return best
}

// parTrace rebuilds the path to levels[depth][node] by replaying the
// recorded successor indices from its ancestor in levels[0], then, when
// trIdx >= 0, appends the node's violating transition trIdx.
func (c *Checker) parTrace(levels [][]parNode, depth, node, trIdx int) *trace.Trace {
	idxs := make([]int, depth, depth+1)
	for li := depth; li > 0; li-- {
		n := &levels[li][node]
		idxs[li-1] = int(n.idx)
		node = int(n.parent)
	}
	if trIdx >= 0 {
		idxs = append(idxs, trIdx)
	}
	st := levels[0][node].st
	t := &trace.Trace{}
	for _, i := range idxs {
		tr := c.sys.Successors(st)[i]
		t.Prefix = append(t.Prefix, eventOf(c.sys, tr))
		st = tr.Next
	}
	return t
}

// advance appends the collected level next to levels and retires the
// level it was expanded from, levels[li], unless that is levels[0]:
// every later read of it goes through parTrace's replay. Its states go
// to the worker arenas, whose next clones reuse their outer arrays, so
// the search holds two levels of states, not all of them.
func (r *parRunner) advance(levels [][]parNode, li int, next []parNode) [][]parNode {
	if li > 0 {
		for i := range levels[li] {
			r.workers[i%len(r.workers)].arena.Recycle(levels[li][i].st)
			levels[li][i].st = nil
		}
	}
	return append(levels, next)
}

// expand is the per-node work of one level: generate the successors of
// cur[i], encode each from cur[i]'s encoding curEnc[i], and feed them
// through the visited set into w.next. A safety search also records the
// node's own state problem and every violating transition as
// adjudication candidates; a reachability search decides only
// reachability and skips violating transitions.
func (w *parWorker) expand(r *parRunner, cur []parNode, curEnc []nodeEnc, i int, safety bool) {
	c := r.c
	node, pe := &cur[i], &curEnc[i]
	w.trs = c.sys.SuccessorsAppend(node.st, w.arena, w.trs[:0])
	w.trans += len(w.trs)
	if safety {
		if kind, msg := c.stateProblem(node.st, len(w.trs)); kind != NoViolation {
			w.problems = append(w.problems, parProblem{node: i, trIdx: -1, kind: kind, msg: msg})
		}
	}
	// Expand fully even after recording a problem: the level's stored
	// set must not depend on which worker saw what first.
	for ti := range w.trs {
		tr := w.trs[ti]
		if tr.Violation != "" {
			if safety {
				w.problems = append(w.problems, parProblem{
					node: i, trIdx: ti, kind: violationKind(tr.Violation), msg: tr.Violation,
				})
			}
			continue
		}
		w.scratch, w.ends = tr.Next.AppendComponentKeysFrom(node.st, pe.enc, pe.ends, w.scratch[:0], w.ends[:0])
		if r.visited.seen(model.Hash64(w.scratch), w.scratch, w.ends) {
			w.matched++
			w.arena.Recycle(tr.Next)
			continue
		}
		n := r.stored.Add(1)
		if c.opts.MaxStates > 0 && int(n) > c.opts.MaxStates {
			r.abortLimit()
			return
		}
		w.next = append(w.next, parNode{st: tr.Next, parent: int32(i), idx: int32(ti)})
		w.nextEnc = append(w.nextEnc, w.slab.add(w.scratch, w.ends))
	}
}

// scanTarget is the reachability search's pre-expansion pass: the whole
// frontier is tested against target before any of it is expanded, so
// the witness is shortest and the stored-state count is the same at
// every worker count. It reports whether the search is over (witness
// found, evaluation error, or cancellation), with res filled in.
func (r *parRunner) scanTarget(levels [][]parNode, li int, curEnc []nodeEnc, target pml.RExpr, res *Result) bool {
	cur := levels[li]
	r.runLevel(len(cur), func(w *parWorker, i int) {
		v, err := r.c.sys.EvalGlobal(cur[i].st, target)
		if err != nil {
			w.problems = append(w.problems, parProblem{node: i, trIdx: -1, kind: RuntimeError, msg: err.Error()})
		} else if v != 0 {
			w.problems = append(w.problems, parProblem{node: i, trIdx: -1, kind: NoViolation})
		}
	})
	_, _, hits := r.collect(res)
	if r.cancel.Load() {
		r.cancelResult(res)
		return true
	}
	// A target hit wins over an evaluation error at the same level: the
	// search is asked for a witness, and both choices are adjudicated by
	// smallest key, independent of worker count.
	var sats, errs []parProblem
	for _, p := range hits {
		if p.kind == NoViolation {
			sats = append(sats, p)
		} else {
			errs = append(errs, p)
		}
	}
	if p := bestProblem(curEnc, sats); p != nil {
		res.OK = true
		res.Trace = r.c.parTrace(levels, li, p.node, -1)
		res.Trace.Final = "target state reached"
		return true
	}
	if p := bestProblem(curEnc, errs); p != nil {
		res.Kind = RuntimeError
		res.Message = p.msg
		return true
	}
	return false
}

// searchLevels is the one breadth-first engine: restore or seed the
// root level, then per level expand, collect at the barrier, honour
// cancellation and the state limit, adjudicate, append the new level to
// the checkpoint log. With a nil target it is the safety search
// (assertions, runtime errors, invariants, deadlock; shortest
// counterexamples). With a target it is the reachability search:
// Result.OK reports that the target IS reachable, violations met along
// the way are ignored, and each level is scanned for the target before
// it is expanded.
func (c *Checker) searchLevels(phase string, target pml.RExpr) *Result {
	safety := target == nil
	start := time.Now()
	res := &Result{OK: safety}
	defer func() { res.Stats.Elapsed = time.Since(start) }()
	m := c.newMeter(phase)
	defer func() { m.finish(&res.Stats, res.Stats.MaxDepth) }()

	r := c.newParRunner(phase)
	defer r.close()
	ck := c.newCheckpointer(phase)
	defer func() { ck.finish(res) }()
	// On resume, levels[0] is the checkpointed frontier at depth base;
	// counterexample prefixes then start at that frontier (the path from
	// the root was discarded with the crashed process). Verdicts, stats,
	// and counterexample lengths are unaffected.
	levels, rootEnc, base, resumed := ck.restore(r, res)
	if !resumed {
		levels, rootEnc = r.seedRoot()
		res.Stats.StatesStored = 1
		base = 0
	}
	curEnc := rootEnc

	for li := 0; li < len(levels); li++ {
		depth := base + li
		cur := levels[li]
		if len(cur) == 0 {
			break
		}
		if depth > res.Stats.MaxDepth {
			res.Stats.MaxDepth = depth
		}
		r.gFrontier.Set(int64(len(cur)))

		if !safety && r.scanTarget(levels, li, curEnc, target, res) {
			return res
		}
		prevStored := res.Stats.StatesStored
		next, nextEnc, problems := r.expandLevel(res, li, cur, curEnc, safety)
		m.level(&res.Stats, depth, len(cur), res.Stats.StatesStored-prevStored)

		if r.cancel.Load() {
			return r.cancelResult(res)
		}
		if r.limit.Load() {
			return r.limitResult(res)
		}
		if p := bestProblem(curEnc, problems); p != nil {
			res.OK = false
			res.Kind = p.kind
			res.Message = p.msg
			res.Trace = c.parTrace(levels, li, p.node, p.trIdx)
			res.Trace.Final = p.msg
			return res
		}
		if safety && c.opts.MaxDepth > 0 && depth+1 > c.opts.MaxDepth && len(next) > 0 {
			res.Stats.Truncated = true
			res.OK = false
			res.Kind = SearchLimit
			res.Message = fmt.Sprintf("depth limit %d reached; search incomplete", c.opts.MaxDepth)
			return res
		}
		ck.barrier(depth+1, rootEnc, nextEnc, &res.Stats)
		levels = r.advance(levels, li, next)
		curEnc = nextEnc
	}
	if !safety {
		res.Message = "target state is unreachable"
	}
	return res
}
