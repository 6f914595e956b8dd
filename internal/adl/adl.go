// Package adl implements a small textual architecture description
// language for Plug-and-Play systems — the scriptable stand-in for the
// paper's ArchStudio-based prototype tool. An ADL file names component
// models (pml sources), declares connectors as block triples, attaches
// component instances to connector endpoints, and states the properties
// to verify. Swapping a port kind is a one-token edit.
//
// Example:
//
//	system bridge {
//	    components "cars.pml"
//
//	    connector BlueEnter {
//	        send    syn-blocking
//	        channel fifo(2)
//	        receive blocking
//	    }
//
//	    instance car0 = Car(send BlueEnter, send RedExit, 0)
//	    instance ctl  = Controller(recv BlueEnter, recv BlueExit, 1, 1)
//
//	    invariant safety "!(blueOn > 0 && redOn > 0)"
//	    ltl eventually_crossed "<> crossed" { crossed = "done > 0" }
//
//	    faults {
//	        seed 42
//	        drop BlueEnter 30
//	        duplicate * 10 count 2 after 3
//	    }
//	}
//
// The faults block declares a deterministic runtime fault plan (package
// faults): each rule is kind, target connector (or * for all), a percent
// rate, and optional count/after/delay clauses. The plan does not change
// the formal model — use a `lossy(N)` channel for that — but it is part
// of the system's verification cache identity.
package adl

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"pnp/internal/api"
	"pnp/internal/blocks"
	"pnp/internal/checker"
	"pnp/internal/faults"
	"pnp/internal/model"
	"pnp/internal/obs/tracing"
	"pnp/internal/pml"
)

// LTLProperty is a named LTL formula with its atomic propositions.
type LTLProperty struct {
	Name    string
	Formula string
	Props   map[string]pml.RExpr
}

// Goal is a named AG EF property: the expression must stay reachable from
// every reachable state (fairness-independent delivery guarantees).
type Goal struct {
	Name string
	Expr pml.RExpr
}

// PropertySource records the declared source form of one property. The
// verification service hashes it (together with the composed model and
// the canonicalized checker options) to content-address cached results.
type PropertySource struct {
	Kind string // "invariant", "goal", or "ltl"
	Name string // result key: "safety" for invariants, else the property name
	Text string // canonical source text of the property
}

// System is a loaded, fully composed architecture ready for verification.
type System struct {
	Name       string
	Builder    *blocks.Builder
	Connectors map[string]*blocks.Connector
	Invariants []checker.Invariant
	Goals      []Goal
	LTL        []LTLProperty
	// Sources lists every declared property in canonical source form, in
	// the order VerifyAll keys them ("safety" first when any invariant is
	// declared).
	Sources []PropertySource
	// Faults is the system's declared fault plan (nil when the file has no
	// faults block). It drives runtime injection when the system is
	// executed and joins the verification service's cache key, so the same
	// design under a different plan is a different cache entry.
	Faults *faults.Plan
	// Modules is the design's module DAG in compilation order — library,
	// components, linked program, connectors — with per-module reuse
	// flags; the counters summarize it.
	Modules         []api.ModuleInfo
	ModulesReused   int
	ModulesCompiled int
}

// Resolver loads referenced component files; path is the string given in
// the ADL `components` clause.
type Resolver func(path string) (string, error)

// Error reports an ADL syntax or composition error with its source
// position (Col is 1-based; 0 when only the line is known).
type Error struct {
	Line int
	Col  int
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Col > 0 {
		return fmt.Sprintf("adl: line %d, col %d: %s", e.Line, e.Col, e.Msg)
	}
	return fmt.Sprintf("adl: line %d: %s", e.Line, e.Msg)
}

var sendKinds = map[string]blocks.SendPortKind{
	"asyn-nonblocking":  blocks.AsynNonblockingSend,
	"asyn-blocking":     blocks.AsynBlockingSend,
	"asyn-checking":     blocks.AsynCheckingSend,
	"syn-blocking":      blocks.SynBlockingSend,
	"syn-checking":      blocks.SynCheckingSend,
	"AsynNbSendPort":    blocks.AsynNonblockingSend,
	"AsynBlSendPort":    blocks.AsynBlockingSend,
	"AsynCheckSendPort": blocks.AsynCheckingSend,
	"SynBlSendPort":     blocks.SynBlockingSend,
	"SynCheckSendPort":  blocks.SynCheckingSend,
}

var recvKinds = map[string]blocks.RecvPortKind{
	"blocking":    blocks.BlockingRecv,
	"nonblocking": blocks.NonblockingRecv,
	"BlRecvPort":  blocks.BlockingRecv,
	"NbRecvPort":  blocks.NonblockingRecv,
}

var chanKinds = map[string]blocks.ChannelKind{
	"single-slot": blocks.SingleSlot,
	"fifo":        blocks.FIFOQueue,
	"priority":    blocks.PriorityQueue,
	"dropping":    blocks.DroppingBuffer,
	"lossy":       blocks.LossyBuffer,
}

// --- parsed (pre-composition) form ---

type parsedConnector struct {
	name string
	spec blocks.ConnectorSpec
	line int
	col  int
}

type parsedArg struct {
	kind string // "send", "recv", "int"
	conn string
	n    int64
	line int
	col  int
}

type parsedInstance struct {
	name  string
	count int
	proc  string
	args  []parsedArg
	line  int
	col   int
}

type parsedFaultRule struct {
	rule faults.Rule
	line int
	col  int
}

type parsedFaults struct {
	seed  uint64
	rules []parsedFaultRule
	line  int
	col   int
}

type parsedFile struct {
	name       string
	components []string // paths
	connectors []parsedConnector
	instances  []parsedInstance
	invariants [][2]string // name, expr
	goals      [][2]string // name, expr
	ltl        []parsedLTL
	faults     *parsedFaults
}

type parsedLTL struct {
	name    string
	formula string
	props   map[string]string
}

// resolveComponents fetches every referenced component file, in
// declaration order.
func resolveComponents(pf *parsedFile, resolve Resolver) ([]string, error) {
	texts := make([]string, 0, len(pf.components))
	for _, path := range pf.components {
		if resolve == nil {
			return nil, fmt.Errorf("adl: system references %q but no resolver was given", path)
		}
		text, err := resolve(path)
		if err != nil {
			return nil, fmt.Errorf("adl: loading %q: %w", path, err)
		}
		texts = append(texts, text)
	}
	return texts, nil
}

// compose instantiates the parsed design against an already-built
// Builder: connectors, instances, properties, and the fault plan.
func compose(pf *parsedFile, b *blocks.Builder) (*System, error) {
	sys := &System{
		Name:       pf.name,
		Builder:    b,
		Connectors: make(map[string]*blocks.Connector, len(pf.connectors)),
	}
	for _, pc := range pf.connectors {
		if _, dup := sys.Connectors[pc.name]; dup {
			return nil, &Error{Line: pc.line, Col: pc.col, Msg: fmt.Sprintf("duplicate connector %q", pc.name)}
		}
		conn, err := b.NewConnector(pc.name, pc.spec)
		if err != nil {
			return nil, &Error{Line: pc.line, Col: pc.col, Msg: err.Error()}
		}
		sys.Connectors[pc.name] = conn
	}
	for _, pi := range pf.instances {
		for k := 0; k < pi.count; k++ {
			label := pi.name
			if pi.count > 1 {
				label = fmt.Sprintf("%s%d", pi.name, k)
			}
			args := make([]model.Arg, 0, len(pi.args)*2)
			for ai, pa := range pi.args {
				switch pa.kind {
				case "int":
					args = append(args, model.Int(pa.n))
				case "send", "recv":
					conn, ok := sys.Connectors[pa.conn]
					if !ok {
						return nil, &Error{Line: pa.line, Col: pa.col, Msg: fmt.Sprintf("unknown connector %q", pa.conn)}
					}
					var ep blocks.Endpoint
					var err error
					epName := fmt.Sprintf("%s.arg%d", label, ai)
					if pa.kind == "send" {
						ep, err = conn.AddSender(epName)
					} else {
						ep, err = conn.AddReceiver(epName)
					}
					if err != nil {
						return nil, &Error{Line: pa.line, Col: pa.col, Msg: err.Error()}
					}
					args = append(args, model.Chan(ep.Sig), model.Chan(ep.Dat))
				}
			}
			if _, err := b.Spawn(pi.proc, args...); err != nil {
				return nil, &Error{Line: pi.line, Col: pi.col, Msg: err.Error()}
			}
		}
	}
	for _, inv := range pf.invariants {
		ci, err := checker.InvariantFromSource(b.Program(), inv[0], inv[1])
		if err != nil {
			return nil, err
		}
		sys.Invariants = append(sys.Invariants, ci)
	}
	for _, g := range pf.goals {
		expr, err := b.Program().CompileGlobalExpr(g[1])
		if err != nil {
			return nil, fmt.Errorf("adl: goal %s: %w", g[0], err)
		}
		sys.Goals = append(sys.Goals, Goal{Name: g[0], Expr: expr})
	}
	for _, pl := range pf.ltl {
		props, err := checker.PropsFromSource(b.Program(), pl.props)
		if err != nil {
			return nil, err
		}
		sys.LTL = append(sys.LTL, LTLProperty{Name: pl.name, Formula: pl.formula, Props: props})
	}
	sys.Sources = propertySources(pf)
	if pf.faults != nil {
		plan := &faults.Plan{Seed: pf.faults.seed}
		for _, pr := range pf.faults.rules {
			// Message-site rules must target a declared connector; crash
			// rules name supervised runtime components the ADL cannot see.
			if pr.rule.Kind != faults.Crash && pr.rule.Target != "*" && pr.rule.Target != "" {
				if _, ok := sys.Connectors[pr.rule.Target]; !ok {
					return nil, &Error{Line: pr.line, Col: pr.col,
						Msg: fmt.Sprintf("fault rule targets unknown connector %q", pr.rule.Target)}
				}
			}
			plan.Rules = append(plan.Rules, pr.rule)
		}
		if err := plan.Validate(); err != nil {
			return nil, &Error{Line: pf.faults.line, Col: pf.faults.col, Msg: err.Error()}
		}
		sys.Faults = plan
	}
	return sys, nil
}

// propertySources derives the canonical source record of every property,
// keyed the way VerifyAll keys its results. The safety entry concatenates
// all invariants sorted by name, so declaration order does not affect the
// content address; LTL proposition definitions are likewise sorted.
func propertySources(pf *parsedFile) []PropertySource {
	invs := append([][2]string(nil), pf.invariants...)
	sort.Slice(invs, func(i, j int) bool { return invs[i][0] < invs[j][0] })
	var b strings.Builder
	for _, inv := range invs {
		fmt.Fprintf(&b, "%s=%q;", inv[0], inv[1])
	}
	out := []PropertySource{{Kind: "invariant", Name: "safety", Text: b.String()}}
	for _, g := range pf.goals {
		out = append(out, PropertySource{Kind: "goal", Name: g[0], Text: fmt.Sprintf("%q", g[1])})
	}
	for _, pl := range pf.ltl {
		names := make([]string, 0, len(pl.props))
		for n := range pl.props {
			names = append(names, n)
		}
		sort.Strings(names)
		var lb strings.Builder
		fmt.Fprintf(&lb, "%q{", pl.formula)
		for _, n := range names {
			fmt.Fprintf(&lb, "%s=%q;", n, pl.props[n])
		}
		lb.WriteByte('}')
		out = append(out, PropertySource{Kind: "ltl", Name: pl.name, Text: lb.String()})
	}
	return out
}

// CheckpointKey is the checkpoint key of this property's search under
// a submission-wide key: one submission carries several searchable
// properties, so each gets its own checkpoint log.
func (ps PropertySource) CheckpointKey(key string) string { return key + "-" + ps.Name }

// Check runs the checker for one declared property: for the
// "invariant" source the safety search with every invariant, for a goal
// its AG EF search, for an LTL property its product search.
func (s *System) Check(ps PropertySource, opts checker.Options) *checker.Result {
	switch ps.Kind {
	case "invariant":
		opts.Invariants = append(append([]checker.Invariant(nil), opts.Invariants...), s.Invariants...)
		return checker.New(s.Builder.System(), opts).CheckSafety()
	case "goal":
		for _, g := range s.Goals {
			if g.Name == ps.Name {
				return checker.New(s.Builder.System(), opts).CheckEventuallyReachable(g.Expr)
			}
		}
	case "ltl":
		for _, p := range s.LTL {
			if p.Name == ps.Name {
				return checker.New(s.Builder.System(), opts).CheckLTL(p.Formula, p.Props)
			}
		}
	}
	return &checker.Result{OK: false, Kind: checker.RuntimeError,
		Message: fmt.Sprintf("unknown property %s %q", ps.Kind, ps.Name)}
}

// VerifyAll checks every declared property in Sources order: the safety
// search with all invariants, then each goal and LTL property. Results
// are keyed by property name; the safety run is keyed "safety". A
// caller-provided checkpoint key is suffixed per property
// (CheckpointKey). With opts.Tracer set, each property gets a
// "property:<name>" span wrapping its checker phases — the same
// hierarchy the verification service records for remote jobs.
func (s *System) VerifyAll(opts checker.Options) map[string]*checker.Result {
	out := make(map[string]*checker.Result, len(s.Sources))
	for _, ps := range s.Sources {
		o := opts
		if o.Durability != nil && o.Durability.Key != "" {
			ck := *o.Durability
			ck.Key = ps.CheckpointKey(ck.Key)
			o.Durability = &ck
		}
		var span *tracing.Span
		if o.Tracer != nil {
			ctx := o.Context
			if ctx == nil {
				ctx = context.Background()
			}
			o.Context, span = o.Tracer.StartSpan(ctx, "property:"+ps.Name, tracing.A("kind", ps.Kind))
		}
		res := s.Check(ps, o)
		span.SetAttr("ok", fmt.Sprint(res.OK))
		span.End()
		out[ps.Name] = res
	}
	return out
}
