package checker

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pnp/internal/model"
	"pnp/internal/obs"
	"pnp/internal/pml"
	"pnp/internal/trace"
)

// The level engine is the checker's one safety search and every
// CheckReachable. It explores one level at a time: all frontier nodes
// of depth d are expanded before any node of depth d+1 is looked at —
// inline on the caller's goroutine at one worker, otherwise by
// Options.Workers goroutines that each expand the segment of the level
// it stored, in chunks, then steal chunks of the others' (see
// runLevel). The barrier is what makes the search
// worker-count-independent: the set of states at depth d+1 is exactly
// successors(level d) minus the visited set after level d, no matter
// how workers interleave, so verdicts, StatesStored, and counterexample
// lengths match at every worker count. Violations found while expanding
// a level are collected and adjudicated deterministically at the
// barrier (see bestProblem) instead of racing to report first, and
// partial-order reduction decides at the barrier too (see ampleLevel).

// parNode is one frontier entry. parent indexes the previous level's
// slice (-1 in levels[0]); idx is the position of the transition that
// produced the node in its parent's deterministic SuccessorsAppend
// order. st is nil once the node's level is retired (see advance):
// counterexamples are replayed from levels[0], not read off the nodes.
// A live node's state vector (st.Bytes()) is its canonical encoding,
// which the visited set, the checkpoint log and violation adjudication
// read.
type parNode struct {
	st          *model.State
	parent, idx int32
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

// parWorker is the per-goroutine scratch: a state arena, a reusable
// transition slice, and local accumulators flushed at each level
// barrier so the hot loop touches no shared memory but the visited set
// (and, under Options.MaxStates, the stored-states total the limit
// needs).
type parWorker struct {
	k        int // the worker's index: its segment, cursor and visited-set arena
	arena    *model.Arena
	trs      []model.Transition
	next     []parNode
	problems []parProblem
	executed map[*pml.Edge]bool // ReportUnreached only; merged at the end
	trans    int
	matched  int
	reduced  int
	stored   int // new states, unless MaxStates is set: then parRunner.stored counts them
	// runLevel's wall time splits per worker into startup (until its
	// goroutine runs), busy (working nodes) and wait (at the barrier).
	startup, busy, wait time.Duration
	start, end          time.Time // of the running level
	cc                  *canceler
}

// parRunner holds the cross-worker state of one parallel search.
type parRunner struct {
	c       *Checker
	workers []*parWorker
	visited parVisited
	gate    *growGate    // the visited set's: workers pass it at every node, so the exact set can grow mid-level
	stored  atomic.Int64 // states stored, root included: as of the last barrier, or of the last store under MaxStates
	stop    atomic.Bool  // cancel or state limit: workers drain promptly
	limit   atomic.Bool
	cancel  atomic.Bool
	// ample[i] is the process whose ample set the current level's node i
	// expands, or -1 for a full expansion; nil without PartialOrder.
	ample []int32
	// cursors are runLevel's claim positions, one per worker.
	cursors []levelCursor

	gFrontier, gFrontierBytes, gWorkers *obs.Gauge
	cStartup, cBusy, cWait              *obs.Counter
}

func (c *Checker) newParRunner(phase string) *parRunner {
	w := min(max(c.opts.Workers, 1), maxWorkers)
	r := &parRunner{c: c}
	var contention, spilled *obs.Counter
	if reg := c.opts.Metrics; reg != nil {
		contention = reg.Counter(obs.Labels("checker_visited_shard_contention_total", "phase", phase))
		spilled = reg.Counter(obs.Labels("checker_visited_spilled_states_total", "phase", phase))
		r.cStartup = reg.Counter(obs.Labels("checker_worker_startup_ns_total", "phase", phase))
		r.cBusy = reg.Counter(obs.Labels("checker_worker_busy_ns_total", "phase", phase))
		r.cWait = reg.Counter(obs.Labels("checker_worker_barrier_wait_ns_total", "phase", phase))
		r.gFrontier = reg.Gauge(obs.Labels("checker_frontier_states", "phase", phase))
		r.gFrontierBytes = reg.Gauge(obs.Labels("checker_frontier_bytes", "phase", phase))
		r.gWorkers = reg.Gauge(obs.Labels("checker_workers", "phase", phase))
	}
	r.gWorkers.Set(int64(w))
	r.visited = c.newParVisited(phase, w, contention, spilled)
	r.gate = visitedGate(r.visited)
	r.workers = make([]*parWorker, w)
	r.cursors = make([]levelCursor, w)
	for i := range r.workers {
		r.workers[i] = &parWorker{k: i, arena: &model.Arena{}, cc: c.newCanceler()}
		if c.opts.ReportUnreached && !c.opts.PartialOrder {
			r.workers[i].executed = make(map[*pml.Edge]bool)
		}
	}
	return r
}

// seedRoot records the initial state in the visited set and returns the
// one-node root level.
func (r *parRunner) seedRoot() [][]parNode {
	init := r.c.sys.InitialState()
	r.visited.seen(0, model.Hash64(init.Bytes()), init.Bytes())
	r.stored.Store(1)
	return [][]parNode{{{st: init, parent: -1}}}
}

// close releases visited-set resources (spill segment mappings and
// files) once the search is over.
func (r *parRunner) close() {
	if s, ok := r.visited.(*spillSet); ok {
		s.close()
	}
}

// abort flags a worker-side stop condition. Cancellation and the state
// limit drain the level early (their stats are best-effort);
// violations do NOT stop the level — it must complete so the stored
// set stays deterministic.
func (r *parRunner) abortCancel() { r.cancel.Store(true); r.stop.Store(true) }
func (r *parRunner) abortLimit()  { r.limit.Store(true); r.stop.Store(true) }

// levelCursor is the next unclaimed index of one worker's segment of a
// level and the segment's end, padded to its own cache line so claims
// on different segments never contend for one.
type levelCursor struct {
	next atomic.Int64
	end  int64
	_    [48]byte
}

// runLevel drives work(worker, nodeIndex) over every index of a level
// of n nodes. Worker k owns segment [bounds[k], bounds[k+1]) — the
// nodes it stored (see collect), whose states its own arena holds — and
// claims chunks of it until it is exhausted, then steals chunks from
// the other segments in turn. Bounds that do not split n among the
// workers (the root, a resumed level) are replaced by an even split.
// Every worker polls stop, its canceler and the grow gate before each
// node. With one worker it runs inline, goroutine-free, in index order,
// and all of the level's time is busy. It returns the level's wall time,
// which the workers' startup, busy and wait times split exactly.
func (r *parRunner) runLevel(n int, bounds []int, work func(w *parWorker, i int)) time.Duration {
	t0 := time.Now()
	bounds = r.segments(n, bounds)
	for k := range r.cursors {
		r.cursors[k].next.Store(int64(bounds[k]))
		r.cursors[k].end = int64(bounds[k+1])
	}
	chunk := int64(max(1, min(64, n/(8*len(r.workers)))))
	r.gate.enter(len(r.workers))
	if len(r.workers) == 1 {
		w := r.workers[0]
		r.claim(w, chunk, work)
		r.gate.leave()
		d := time.Since(t0)
		w.busy += d
		return d
	}
	var wg sync.WaitGroup
	for _, w := range r.workers {
		wg.Add(1)
		go func(w *parWorker) {
			defer wg.Done()
			w.start = time.Now()
			r.claim(w, chunk, work)
			r.gate.leave()
			w.end = time.Now()
		}(w)
	}
	wg.Wait()
	t1 := time.Now()
	for _, w := range r.workers {
		w.startup += w.start.Sub(t0)
		w.busy += w.end.Sub(w.start)
		w.wait += t1.Sub(w.end)
	}
	return t1.Sub(t0)
}

// claim is worker w.k's share of runLevel: chunks of its own segment,
// then of segments k+1, k+2, ... (mod workers) until every chunk is
// claimed or the level stops. A claim past a segment's end claims
// nothing, so each index is worked exactly once.
func (r *parRunner) claim(w *parWorker, chunk int64, work func(w *parWorker, i int)) {
	for j := range r.cursors {
		c := &r.cursors[(w.k+j)%len(r.cursors)]
		for {
			lo := c.next.Add(chunk) - chunk
			if lo >= c.end {
				break
			}
			for i := lo; i < min(lo+chunk, c.end); i++ {
				if r.stop.Load() {
					return
				}
				if w.cc.hit() {
					r.abortCancel()
					return
				}
				r.gate.poll()
				work(w, int(i))
			}
		}
	}
}

// segments returns bounds if they split a level of n nodes into one
// segment per worker, and an even split otherwise.
func (r *parRunner) segments(n int, bounds []int) []int {
	w := len(r.workers)
	if len(bounds) == w+1 && bounds[0] == 0 && bounds[w] == n && slices.IsSorted(bounds) {
		return bounds
	}
	even := make([]int, w+1)
	for k := range even {
		even[k] = k * n / w
	}
	return even
}

// expandLevel expands every node of cur, whose worker segments are
// bounds, and collects the next level at the barrier.
func (r *parRunner) expandLevel(res *Result, cur []parNode, bounds []int, safety bool) ([]parNode, []int, []parProblem) {
	r.runLevel(len(cur), bounds, func(w *parWorker, i int) { w.expand(r, cur, i, safety) })
	return r.collect(res)
}

// collect flushes every worker's level-local accumulators into the
// result stats and returns the concatenated next frontier, the bounds
// of each worker's segment of it (worker k's nodes are
// next[bounds[k]:bounds[k+1]]), and the problem list. Concatenation
// order varies between runs; everything downstream is
// order-insensitive (sets and min-adjudication).
func (r *parRunner) collect(res *Result) (next []parNode, bounds []int, problems []parProblem) {
	bounds = make([]int, 1, len(r.workers)+1)
	n := 0
	for _, w := range r.workers {
		n += len(w.next)
	}
	next = make([]parNode, 0, n)
	stored := 0
	for _, w := range r.workers {
		res.Stats.Transitions += w.trans
		res.Stats.StatesMatched += w.matched
		res.Stats.Reduced += w.reduced
		stored += w.stored
		w.trans, w.matched, w.reduced, w.stored = 0, 0, 0, 0
		next = append(next, w.next...)
		bounds = append(bounds, len(next))
		w.next = w.next[:0]
		problems = append(problems, w.problems...)
		w.problems = w.problems[:0]
		r.cStartup.Add(w.startup.Nanoseconds())
		r.cBusy.Add(w.busy.Nanoseconds())
		r.cWait.Add(w.wait.Nanoseconds())
		w.startup, w.busy, w.wait = 0, 0, 0
	}
	res.Stats.StatesStored = int(r.stored.Add(int64(stored)))

	// Barrier-granularity memory accounting: the peak before the spill
	// tier indexes the level (that is what the search actually needed
	// resident). The spill itself waits until the level is logged.
	if b := r.visited.bytes(); b > res.Stats.VisitedBytes {
		res.Stats.VisitedBytes = b
	}
	return next, bounds, problems
}

// limitResult finishes a search that crossed MaxStates. StatesStored is
// clamped to limit+1, the first state past the limit, whichever worker
// stored it.
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
// transitions (length = depth+1), then smallest state encoding of the
// node in cur, then smallest transition index. The order is a pure
// function of the level set, so every worker count reports the same
// counterexample.
func bestProblem(cur []parNode, problems []parProblem) *parProblem {
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
		c := bytes.Compare(cur[p.node].st.Bytes(), cur[q.node].st.Bytes())
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
// level it was expanded from, levels[li], whose worker segments are
// bounds, unless that is levels[0]: every later read of it goes through
// parTrace's replay. Each segment's states go back to the arena of the
// worker that produced them, whose next clones reuse their vectors, so
// the search holds two levels of states, not all of them, and no
// worker's memory drifts to another.
func (r *parRunner) advance(levels [][]parNode, li int, bounds []int, next []parNode) [][]parNode {
	if li > 0 {
		cur := levels[li]
		bounds = r.segments(len(cur), bounds)
		for k, w := range r.workers {
			for i := bounds[k]; i < bounds[k+1]; i++ {
				w.arena.Recycle(cur[i].st)
				cur[i].st = nil
			}
		}
	}
	return append(levels, next)
}

// expand is the per-node work of one level: generate the successors of
// cur[i] and feed their vectors through the visited set into w.next. A node the pre-pass reduced
// takes only its ample process's run of the successors; the indices
// stay positions in the full order, which parTrace replays. A safety
// search also records the node's own state problem and every violating
// transition as adjudication candidates; a reachability search decides
// only reachability and skips violating transitions.
func (w *parWorker) expand(r *parRunner, cur []parNode, i int, safety bool) {
	c := r.c
	node := &cur[i]
	w.trs = c.sys.SuccessorsAppend(node.st, w.arena, w.trs[:0])
	if safety {
		if kind, msg := c.stateProblem(node.st, len(w.trs)); kind != NoViolation {
			w.problems = append(w.problems, parProblem{node: i, trIdx: -1, kind: kind, msg: msg})
		}
	}
	lo, hi := 0, len(w.trs)
	if r.ample != nil && r.ample[i] >= 0 {
		p := int(r.ample[i])
		lo = slices.IndexFunc(w.trs, func(tr model.Transition) bool { return tr.Proc == p })
		for hi = lo; hi < len(w.trs) && w.trs[hi].Proc == p; hi++ {
		}
		w.recycle(w.trs[:lo])
		w.recycle(w.trs[hi:])
	}
	w.trans += hi - lo
	// Expand fully even after recording a problem: the level's stored
	// set must not depend on which worker saw what first.
	for ti := lo; ti < hi; ti++ {
		tr := w.trs[ti]
		if tr.Violation != "" {
			if safety {
				w.problems = append(w.problems, parProblem{
					node: i, trIdx: ti, kind: violationKind(tr.Violation), msg: tr.Violation,
				})
			}
			continue
		}
		if w.executed != nil {
			w.executed[tr.Edge] = true
			if tr.PartnerEdge != nil {
				w.executed[tr.PartnerEdge] = true
			}
		}
		if enc := tr.Next.Bytes(); r.visited.seen(w.k, model.Hash64(enc), enc) {
			w.matched++
			w.arena.Recycle(tr.Next)
			continue
		}
		if c.opts.MaxStates <= 0 {
			w.stored++
		} else if int(r.stored.Add(1)) > c.opts.MaxStates {
			r.abortLimit()
			return
		}
		w.next = append(w.next, parNode{st: tr.Next, parent: int32(i), idx: int32(ti)})
	}
}

// recycle returns the successor states of trs to the worker's arena.
// A violating transition's Next is its source state and stays.
func (w *parWorker) recycle(trs []model.Transition) {
	for _, tr := range trs {
		if tr.Violation == "" {
			w.arena.Recycle(tr.Next)
		}
	}
}

// ampleLevel is partial-order reduction's pre-pass over cur, run before
// any state of the next level is stored: it fills r.ample with each
// node's decision. A node expands only its ample set
// (model.AmpleSuccessors) if none of the ample successors is already
// stored, that is, in the levels up to cur's. That proviso reads only
// the set frozen at the barrier, so the decisions are a function of
// the level set, identical at every worker count and storage tier; and
// it is sound: on every cycle, the node at the deepest level has a
// cycle successor already stored, so that node expands fully.
func (r *parRunner) ampleLevel(cur []parNode, bounds []int) {
	r.ample = slices.Grow(r.ample[:0], len(cur))[:len(cur)]
	r.runLevel(len(cur), bounds, func(w *parWorker, i int) {
		w.trs = r.c.sys.AmpleSuccessors(cur[i].st, w.arena, w.trs[:0])
		r.ample[i] = -1
		if len(w.trs) > 0 && !slices.ContainsFunc(w.trs, func(tr model.Transition) bool {
			if tr.Violation != "" {
				return false
			}
			enc := tr.Next.Bytes()
			return r.visited.contains(model.Hash64(enc), enc)
		}) {
			r.ample[i] = int32(w.trs[0].Proc)
			w.reduced++
		}
		w.recycle(w.trs)
	})
}

// scanTarget is the reachability search's pre-expansion pass: the whole
// frontier is tested against target before any of it is expanded, so
// the witness is shortest and the stored-state count is the same at
// every worker count. It reports whether the search is over (witness
// found, evaluation error, or cancellation), with res filled in.
func (r *parRunner) scanTarget(levels [][]parNode, li int, bounds []int, target pml.RExpr, res *Result) bool {
	cur := levels[li]
	r.runLevel(len(cur), bounds, func(w *parWorker, i int) {
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
	if p := bestProblem(cur, sats); p != nil {
		res.OK = true
		res.Trace = r.c.parTrace(levels, li, p.node, -1)
		res.Trace.Final = "target state reached"
		return true
	}
	if p := bestProblem(cur, errs); p != nil {
		res.Kind = RuntimeError
		res.Message = p.msg
		return true
	}
	return false
}

// searchLevels is the one breadth-first engine: restore or seed the
// root level, then per level expand, collect at the barrier, honour
// cancellation and the state limit, adjudicate, append the new level to
// the level log and let the spill tier index it. With a nil target it
// is the safety search (assertions, runtime errors, invariants,
// deadlock; shortest counterexamples). With a target it is the
// reachability search: Result.OK reports that the target IS reachable,
// violations met along the way are ignored, and each level is scanned
// for the target before it is expanded.
func (c *Checker) searchLevels(phase string, target pml.RExpr) *Result {
	safety := target == nil
	start := time.Now()
	res := &Result{OK: safety}
	defer func() { res.Stats.Elapsed = time.Since(start) }()
	m := c.newMeter(phase)
	defer func() { m.finish(&res.Stats, res.Stats.MaxDepth) }()

	r := c.newParRunner(phase)
	defer r.close()
	spill, _ := r.visited.(*spillSet)
	ck := c.newCheckpointer(phase, spill)
	defer func() { ck.finish(res) }()
	// On resume, levels[0] is the checkpointed frontier at depth base;
	// counterexample prefixes then start at that frontier (the path from
	// the root was discarded with the crashed process). Verdicts, stats,
	// and counterexample lengths are unaffected.
	levels, base, resumed := ck.restore(r, res)
	if !resumed {
		levels = r.seedRoot()
		res.Stats.StatesStored = 1
		base = 0
	}
	// curBounds are levels[li]'s worker segments; the root and a resumed
	// frontier have none, so their levels are split evenly.
	var curBounds []int

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

		if !safety && r.scanTarget(levels, li, curBounds, target, res) {
			return res
		}
		if safety && c.opts.PartialOrder {
			r.ampleLevel(cur, curBounds)
		}
		prevStored := res.Stats.StatesStored
		next, nextBounds, problems := r.expandLevel(res, cur, curBounds, safety)
		// Every live node is one vector: the two live levels hold this many.
		r.gFrontierBytes.Set(int64((len(cur) + len(next)) * len(cur[0].st.Bytes())))
		m.visited(r.visited.bytes())
		m.level(&res.Stats, depth, len(cur), res.Stats.StatesStored-prevStored)

		if r.cancel.Load() {
			return r.cancelResult(res)
		}
		if r.limit.Load() {
			return r.limitResult(res)
		}
		if p := bestProblem(cur, problems); p != nil {
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
		ck.barrier(depth+1, levels[0], next, &res.Stats)
		levels = r.advance(levels, li, curBounds, next)
		curBounds = nextBounds
	}
	if !safety {
		res.Message = "target state is unreachable"
	}
	if executed := r.workers[0].executed; safety && executed != nil {
		for _, w := range r.workers[1:] {
			maps.Copy(executed, w.executed)
		}
		res.Unreached = c.collectUnreached(executed)
	}
	return res
}
