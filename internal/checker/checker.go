// Package checker is the finite-state verifier of the Plug-and-Play
// toolchain: explicit-state safety search (assertions, deadlocks, global
// invariants) with DFS or BFS, LTL checking via Büchi products and nested
// depth-first search, optional bitstate hashing, and counterexample
// reconstruction as traces.
//
// It plays the role Spin plays in the paper: systems composed from the
// building-block models are explored exhaustively and verdicts come with
// readable counterexamples.
package checker

import (
	"context"
	"fmt"
	"time"

	"pnp/internal/model"
	"pnp/internal/obs"
	"pnp/internal/obs/tracing"
	"pnp/internal/pml"
	"pnp/internal/trace"
)

// ViolationKind classifies a verification failure.
type ViolationKind int

// Violation kinds.
const (
	NoViolation ViolationKind = iota
	Assertion
	Deadlock
	InvariantViolation
	RuntimeError
	AcceptanceCycle
	SearchLimit
	Canceled
)

var violationNames = map[ViolationKind]string{
	NoViolation:        "none",
	Assertion:          "assertion violation",
	Deadlock:           "invalid end state (deadlock)",
	InvariantViolation: "invariant violation",
	RuntimeError:       "runtime error",
	AcceptanceCycle:    "acceptance cycle (liveness violation)",
	SearchLimit:        "search limit reached",
	Canceled:           "search canceled",
}

// String names the violation kind.
func (k ViolationKind) String() string { return violationNames[k] }

// ParseViolationKind resolves a violation-kind name (as produced by
// String, e.g. in a cached PropertyVerdict's verdict field) back to its
// kind. Consumers ranking or grouping verdicts that crossed a JSON
// boundary use it instead of string comparison.
func ParseViolationKind(s string) (ViolationKind, bool) {
	for k, name := range violationNames {
		if name == s {
			return k, true
		}
	}
	return NoViolation, false
}

// Invariant is a named global-state predicate that must hold in every
// reachable state.
type Invariant struct {
	Name string
	Expr pml.RExpr
}

// Options configures a verification run.
type Options struct {
	// MaxStates bounds the number of stored states (0 = unlimited).
	MaxStates int
	// MaxDepth bounds DFS depth (0 = unlimited).
	MaxDepth int
	// BFS searches breadth-first, yielding shortest counterexamples: the
	// safety search runs on the level engine (see Workers) instead of
	// the DFS. Precedence: PartialOrder or ReportUnreached force the
	// sequential DFS whatever BFS and Workers say (both need a stack);
	// otherwise BFS or Workers >= 1 selects the level engine; otherwise
	// DFS. CheckReachable is always breadth-first.
	BFS bool
	// Invariants are checked in every reachable state.
	Invariants []Invariant
	// IgnoreDeadlock disables invalid-end-state detection.
	IgnoreDeadlock bool
	// ReportUnreached records which compiled transitions never executed
	// during the safety search and lists them in Result.Unreached.
	// Incompatible with PartialOrder (the reduction legitimately skips
	// transitions).
	ReportUnreached bool
	// PartialOrder enables ample-set partial-order reduction in the DFS
	// safety search: states where some process has only process-private
	// (Local) moves expand only that process, with the cycle proviso
	// guaranteeing soundness. Verdicts are unchanged; state counts drop.
	PartialOrder bool
	// WeakFairness restricts LTL acceptance-cycle search to weakly fair
	// runs (every continuously enabled process eventually moves), via the
	// Choueka copy construction — Spin's -f option. It multiplies the
	// product state space by the number of processes plus two.
	WeakFairness bool
	// StrongFairness restricts LTL acceptance-cycle search to strongly
	// fair runs (every infinitely-often-enabled process moves infinitely
	// often), via fair-SCC decomposition. Takes precedence over
	// WeakFairness; the full product graph is materialized.
	StrongFairness bool
	// Workers is the level engine's goroutine count: N >= 2 expands
	// each BFS level on N goroutines over a sharded visited set; 1 — and
	// 0 when BFS is set or for CheckReachable — runs the same engine
	// inline on the caller's goroutine. Verdicts, StatesStored, and
	// counterexample lengths are identical at every worker count
	// (counterexamples stay shortest); which shortest counterexample is
	// reported may vary. 0 — the default — without BFS selects the
	// sequential DFS for safety; the CLIs and verifyd default to
	// runtime.GOMAXPROCS(0). PartialOrder and ReportUnreached take the
	// DFS regardless (see BFS); liveness search (LTL, weak/strong
	// fairness) and AG-EF goal checks are always sequential — Workers is
	// a documented no-op there.
	Workers int
	// Storage groups the visited-set storage knobs; see StorageOptions.
	Storage StorageOptions
	// Durability, when non-nil, makes the level engine durable: at each
	// level barrier the level just completed is appended to a log under
	// Durability.Dir, and a search restarted with Durability.Resume
	// continues from the log's last commit instead of state zero. Like
	// Progress and Metrics it never influences verdicts — a resumed search
	// stores exactly the states an uninterrupted one would. No-op for the
	// sequential DFS and liveness search (see DurabilityOptions).
	Durability *DurabilityOptions
	// Progress, when non-nil, receives a periodic exploration snapshot
	// every ProgressInterval plus one final snapshot — Spin-style
	// progress lines for long searches.
	Progress func(Progress)
	// ProgressInterval is the minimum time between Progress snapshots
	// (default 1s).
	ProgressInterval time.Duration
	// Metrics, when non-nil, receives checker counters and gauges
	// (states stored/matched, transitions, depth, heap) labeled by
	// exploration phase. Updates happen at snapshot granularity, so the
	// exploration hot path is unaffected.
	Metrics *obs.Registry
	// Context, when non-nil, aborts the search when it is canceled or its
	// deadline passes: the search stops with a Canceled verdict and
	// Stats.Truncated set. The context is polled once per
	// cancelPollEvery iterations, so cancellation latency is bounded but
	// the hot path pays only a counter decrement.
	Context context.Context
	// Tracer, when non-nil, records one span per search phase into the
	// flight recorder, parented to the current span in Context (so a
	// verifyd job's trace nests its checker phases). The level engine
	// adds one event per level carrying the frontier size; snapshots
	// otherwise drive the span, so the hot path is unaffected. Like
	// Progress and Metrics, Tracer never influences verdicts or cache
	// keys.
	Tracer *tracing.Recorder
}

// Stats summarizes the exploration.
type Stats struct {
	StatesStored  int
	StatesMatched int
	Transitions   int
	MaxDepth      int
	// Reduced counts states expanded with an ample set instead of the
	// full successor set (partial-order reduction).
	Reduced   int
	Truncated bool
	Elapsed   time.Duration
	// VisitedBytes is the peak resident size of the level engine's
	// visited set (sampled at level barriers); 0 for DFS and bitstate
	// runs. SpilledStates counts entries moved to disk segments under
	// Options.Storage.MemLimit. Both are observability fields: they vary
	// with storage mode and budget while the verdict does not.
	VisitedBytes  int64
	SpilledStates int
}

// Result is the outcome of a verification run.
type Result struct {
	OK      bool
	Kind    ViolationKind
	Message string
	Trace   *trace.Trace
	Stats   Stats
	// Unreached lists transitions never executed during an exhaustive
	// safety search (Spin's "unreached in proctype" report) — possible
	// dead code in the component or block models. Populated only when
	// Options.ReportUnreached is set and the search was not truncated.
	Unreached []string
}

// Summary renders a one-line verdict.
func (r *Result) Summary() string {
	var s string
	if r.OK {
		s = fmt.Sprintf("verified: %d states, %d transitions, depth %d",
			r.Stats.StatesStored, r.Stats.Transitions, r.Stats.MaxDepth)
		if r.Stats.Reduced > 0 {
			s += fmt.Sprintf(", %d reduced", r.Stats.Reduced)
		}
	} else {
		s = fmt.Sprintf("%s: %s (%d states explored)", r.Kind, r.Message, r.Stats.StatesStored)
	}
	if r.Stats.Elapsed > 0 {
		s += fmt.Sprintf(" in %s", fmtElapsed(r.Stats.Elapsed))
	}
	return s
}

// fmtElapsed rounds a duration for display without collapsing sub-ms
// runs to "0s".
func fmtElapsed(d time.Duration) time.Duration {
	if r := d.Round(time.Millisecond); r > 0 {
		return r
	}
	return d.Round(time.Microsecond)
}

// Checker verifies one instantiated system.
type Checker struct {
	sys  *model.System
	opts Options
}

// New creates a Checker for a system with the given options.
func New(sys *model.System, opts Options) *Checker {
	return &Checker{sys: sys, opts: opts}
}

// InvariantFromSource parses src as a global-scope pml expression and
// wraps it as a named invariant.
func InvariantFromSource(prog *pml.Compiled, name, src string) (Invariant, error) {
	e, err := prog.CompileGlobalExpr(src)
	if err != nil {
		return Invariant{}, fmt.Errorf("checker: invariant %s: %w", name, err)
	}
	return Invariant{Name: name, Expr: e}, nil
}

// eventOf converts a model transition to a trace event.
func eventOf(sys *model.System, tr model.Transition) trace.Event {
	ev := trace.Event{
		Proc:   sys.ProcName(tr.Proc),
		Action: tr.Edge.Label,
		Msg:    sys.FormatMsg(tr),
		Note:   tr.Violation,
	}
	if tr.Ch >= 0 {
		ev.Ch = sys.ChannelName(tr.Ch)
	}
	if tr.Partner >= 0 {
		ev.Partner = sys.ProcName(tr.Partner)
	}
	return ev
}

// visitedSet is the exploration's duplicate detector.
type visitedSet interface {
	// seen tests-and-sets the key, reporting whether it was present.
	seen(key string) bool
	// size returns the number of stored entries (approximate for bitstate).
	size() int
}

type mapSet struct {
	m map[string]struct{}
}

func newMapSet() *mapSet { return &mapSet{m: make(map[string]struct{}, 1024)} }

func (s *mapSet) seen(key string) bool {
	if _, ok := s.m[key]; ok {
		return true
	}
	s.m[key] = struct{}{}
	return false
}

func (s *mapSet) size() int { return len(s.m) }

// bitstateSet is a double-hash Bloom-style bitstate table, the classic
// Spin supertrace structure.
type bitstateSet struct {
	bits  []uint64
	mask  uint64
	count int
}

func newBitstateSet(bitsLog2 uint) *bitstateSet {
	if bitsLog2 < 10 {
		bitsLog2 = 10
	}
	n := uint64(1) << bitsLog2
	return &bitstateSet{bits: make([]uint64, n/64), mask: n - 1}
}

// bitstateHashes is the double-hash pair of the bitstate tables: FNV-1a
// with two different offset bases, shared by the sequential and parallel
// (sharded) implementations so both mark identical bit positions. The
// primary hash is exactly model.Hash64 (h1 of the full encoding equals
// State.Fingerprint); the secondary derives its seeds from the same
// constants rather than restating them.
func bitstateHashes[T ~string | ~[]byte](key T, mask uint64) (uint64, uint64) {
	offset, prime := model.Hash64Seeds()
	h1 := offset
	h2 := prime*31 + 7
	for i := 0; i < len(key); i++ {
		h1 = (h1 ^ uint64(key[i])) * prime
		h2 = (h2 ^ uint64(key[i])) * (prime + 2)
	}
	return h1 & mask, h2 & mask
}

func (s *bitstateSet) seen(key string) bool {
	a, b := bitstateHashes(key, s.mask)
	hadA := s.bits[a/64]&(1<<(a%64)) != 0
	hadB := s.bits[b/64]&(1<<(b%64)) != 0
	if hadA && hadB {
		return true
	}
	s.bits[a/64] |= 1 << (a % 64)
	s.bits[b/64] |= 1 << (b % 64)
	s.count++
	return false
}

func (s *bitstateSet) size() int { return s.count }

func (c *Checker) newVisited() visitedSet {
	if c.opts.Storage.Bitstate {
		bits := c.opts.Storage.BitstateBits
		if bits == 0 {
			bits = 24
		}
		return newBitstateSet(bits)
	}
	return newMapSet()
}

// cancelPollEvery bounds how often search loops consult the context: once
// per this many calls to canceler.hit.
const cancelPollEvery = 2048

// canceler polls Options.Context from the search hot loops. A nil
// canceler (no context configured) makes hit a constant false.
type canceler struct {
	ctx       context.Context
	countdown int
	done      bool
}

// newCanceler arms a canceler, or returns nil when no context is set.
func (c *Checker) newCanceler() *canceler {
	if c.opts.Context == nil {
		return nil
	}
	return &canceler{ctx: c.opts.Context, countdown: 1}
}

// hit reports whether the search should abort. Once true, always true.
func (cc *canceler) hit() bool {
	if cc == nil {
		return false
	}
	if cc.done {
		return true
	}
	cc.countdown--
	if cc.countdown > 0 {
		return false
	}
	cc.countdown = cancelPollEvery
	if cc.ctx.Err() != nil {
		cc.done = true
	}
	return cc.done
}

// cancelResult fills res with the Canceled verdict for the armed context.
func (cc *canceler) cancelResult(res *Result) *Result {
	res.OK = false
	res.Kind = Canceled
	res.Stats.Truncated = true
	if err := cc.ctx.Err(); err != nil {
		res.Message = err.Error()
	} else {
		res.Message = "context canceled"
	}
	return res
}
