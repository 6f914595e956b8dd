package model

import (
	"fmt"
	"strings"

	"pnp/internal/pml"
)

// Transition is one executed step: the acting process, the edge it took,
// an optional rendezvous partner, the message involved (if any), and the
// resulting state. A non-empty Violation marks a failed assertion or a
// runtime evaluation error (such as division by zero); the Next state of a
// violating transition is the unchanged source state.
type Transition struct {
	Proc        int
	Edge        *pml.Edge
	Partner     int // rendezvous receiver pid, -1 if none
	PartnerEdge *pml.Edge
	Ch          ChanID // channel involved, -1 if none
	Msg         []int64
	Next        *State
	Violation   string
}

// env adapts (System, State, pid) to pml.EvalEnv. tmo is the system-wide
// timeout condition for this evaluation pass.
type env struct {
	s    *System
	st   *State
	proc int
	tmo  bool
}

func (e env) Global(i int) int64 { return e.st.l.globals[i].get(e.st.v) }
func (e env) Local(i int) int64  { return e.st.l.locals[e.proc][i].get(e.st.v) }
func (e env) Pid() int64         { return int64(e.proc) }
func (e env) Timeout() bool      { return e.tmo }

func (e env) ChanLen(ref pml.ChanRef) int {
	id := e.s.resolveChanFor(e.s.insts[e.proc], ref)
	return e.st.l.chans[id].len(e.st.v)
}

func (e env) ChanCap(ref pml.ChanRef) int {
	id := e.s.resolveChanFor(e.s.insts[e.proc], ref)
	return e.s.shapes[id].cap
}

// Successors computes every transition enabled in st, honoring atomic
// sections (while a process holds atomicity and can move, only it moves)
// and Spin's timeout semantics: timeout-guarded transitions become
// executable exactly when nothing else in the system is.
func (s *System) Successors(st *State) []Transition {
	return s.SuccessorsAppend(st, nil, nil)
}

// SuccessorsAppend is the allocation-lean form of Successors used by the
// parallel explorer: transitions are appended to out (which callers
// reuse across expansions) and successor states draw their storage from
// the per-worker arena. Both a nil arena and a nil out are valid.
func (s *System) SuccessorsAppend(st *State, a *Arena, out []Transition) []Transition {
	base := len(out)
	out = s.successorsPass(st, false, a, out)
	if len(out) == base {
		out = s.successorsPass(st, true, a, out)
	}
	return out
}

func (s *System) successorsPass(st *State, tmo bool, a *Arena, out []Transition) []Transition {
	if h := st.holder(); h >= 0 {
		return s.procSuccessors(st, int(h), tmo, a, out)
	}
	for p := range s.insts {
		out = s.procSuccessors(st, p, tmo, a, out)
	}
	return out
}

// AmpleSuccessors attempts a partial-order reduction: when some process's
// current control location offers only Local edges (process-private
// guards, assignments, skips), its transitions are independent of every
// other process and invisible to global properties, so exploring only
// that process's moves preserves all safety verdicts (the checker adds
// the cycle proviso). It appends the first such process's enabled
// transitions to out, or nothing when the state expands fully, drawing
// states from a as SuccessorsAppend does. The appended transitions are
// exactly the run of SuccessorsAppend's transitions whose Proc is theirs.
func (s *System) AmpleSuccessors(st *State, a *Arena, out []Transition) []Transition {
	if st.holder() >= 0 {
		return out // atomic execution is already exclusive
	}
	for p := range s.insts {
		node := &s.insts[p].Proc.Nodes[st.pc(p)]
		if len(node.Edges) == 0 {
			continue
		}
		allLocal := true
		for ei := range node.Edges {
			if !node.Edges[ei].Local {
				allLocal = false
				break
			}
		}
		if !allLocal {
			continue
		}
		if more := s.procSuccessors(st, p, false, a, out); len(more) > len(out) {
			return more
		}
	}
	return out
}

// procSuccessors appends the transitions process p can take from st.
// Else edges fire only when no sibling edge is executable.
func (s *System) procSuccessors(st *State, p int, tmo bool, a *Arena, out []Transition) []Transition {
	node := &s.insts[p].Proc.Nodes[st.pc(p)]
	hasElse := false
	for ei := range node.Edges {
		e := &node.Edges[ei]
		if e.Kind == pml.EdgeElse {
			hasElse = true
			continue
		}
		out = s.execEdge(st, p, e, tmo, a, out)
	}
	if !hasElse {
		return out
	}
	// A rendezvous receive is enabled when a matching sender is ready but
	// fires via the sender's pairing, so enabledness is checked on its
	// own rather than read off the transitions produced above.
	for ei := range node.Edges {
		if e := &node.Edges[ei]; e.Kind != pml.EdgeElse && s.edgeEnabled(st, p, e, tmo) {
			return out
		}
	}
	for ei := range node.Edges {
		e := &node.Edges[ei]
		if e.Kind == pml.EdgeElse {
			out = append(out, s.advance(st, p, e, -1, nil, -1, nil, a))
		}
	}
	return out
}

// execEdge appends the transitions from executing one (non-else) edge.
func (s *System) execEdge(st *State, p int, e *pml.Edge, tmo bool, a *Arena, out []Transition) []Transition {
	ev := env{s: s, st: st, proc: p, tmo: tmo}
	switch e.Kind {
	case pml.EdgeGuard:
		v, err := pml.Eval(e.Cond, ev)
		if err != nil {
			return append(out, s.violate(st, p, e, err.Error()))
		}
		if v == 0 {
			return out
		}
		return append(out, s.advance(st, p, e, -1, nil, -1, nil, a))
	case pml.EdgeSkip:
		return append(out, s.advance(st, p, e, -1, nil, -1, nil, a))
	case pml.EdgeAssert:
		v, err := pml.Eval(e.Cond, ev)
		if err != nil {
			return append(out, s.violate(st, p, e, err.Error()))
		}
		if v == 0 {
			return append(out, s.violate(st, p, e, "assertion violated"))
		}
		return append(out, s.advance(st, p, e, -1, nil, -1, nil, a))
	case pml.EdgeAssign:
		v, err := pml.Eval(e.RHS, ev)
		if err != nil {
			return append(out, s.violate(st, p, e, err.Error()))
		}
		ref := e.Var
		if e.VarIdx != nil {
			i, err := pml.Eval(e.VarIdx, ev)
			if err != nil {
				return append(out, s.violate(st, p, e, err.Error()))
			}
			if i < 0 || i >= int64(e.VarLen) {
				return append(out, s.violate(st, p, e, pml.ErrIndexOutOfRange.Error()))
			}
			ref.Idx += int(i)
		}
		next := st.clone(a)
		next.store(p, ref, v)
		next.setPC(p, e.Dst)
		s.normalizeAtomic(next, p)
		return append(out, Transition{Proc: p, Edge: e, Partner: -1, Ch: -1, Next: next})
	case pml.EdgeSend:
		return s.execSend(st, p, e, tmo, a, out)
	case pml.EdgeRecv:
		return s.execRecv(st, p, e, tmo, a, out)
	default:
		return append(out, s.violate(st, p, e, fmt.Sprintf("internal: unexpected edge kind %d", e.Kind)))
	}
}

func (s *System) execSend(st *State, p int, e *pml.Edge, tmo bool, a *Arena, out []Transition) []Transition {
	ev := env{s: s, st: st, proc: p, tmo: tmo}
	id := s.resolveChanFor(s.insts[p], e.Ch)
	shape := &s.shapes[id]
	vals := make([]int64, len(e.SendArgs))
	for i, arg := range e.SendArgs {
		v, err := pml.Eval(arg, ev)
		if err != nil {
			return append(out, s.violate(st, p, e, err.Error()))
		}
		vals[i] = shape.fields[i].Truncate(v)
	}
	if shape.cap == 0 {
		return s.rendezvous(st, p, e, id, vals, tmo, a, out)
	}
	c := &st.l.chans[id]
	n := c.len(st.v)
	if n >= c.cap {
		return out // buffer full: blocked
	}
	next := st.clone(a)
	c.send(next.v, n, vals, e.Sorted)
	next.setPC(p, e.Dst)
	s.normalizeAtomic(next, p)
	return append(out, Transition{Proc: p, Edge: e, Partner: -1, Ch: ChanID(id), Msg: vals, Next: next})
}

// rendezvous pairs a send on a zero-capacity channel with every matching
// receive another process is currently offering; each pairing is one
// combined transition.
func (s *System) rendezvous(st *State, p int, e *pml.Edge, id int, vals []int64, tmo bool, a *Arena, out []Transition) []Transition {
	for _, site := range s.rendezvousSites().recv[id] {
		q, er := int(site.proc), site.e
		if q == p || st.pc(q) != site.node {
			continue
		}
		ok, err := s.patternMatches(st, q, er.RecvArgs, vals, tmo)
		if err != nil {
			out = append(out, s.violate(st, q, er, err.Error()))
			continue
		}
		if !ok {
			continue
		}
		next := st.clone(a)
		next.applyBinds(q, er.RecvArgs, vals)
		next.setPC(p, e.Dst)
		next.setPC(q, er.Dst)
		s.normalizeAtomic(next, p)
		out = append(out, Transition{
			Proc: p, Edge: e, Partner: q, PartnerEdge: er,
			Ch: ChanID(id), Msg: vals, Next: next,
		})
	}
	return out
}

// rvSite is one rendezvous operation on offer: process proc, when its
// PC is node, may take edge e, a send or receive on a zero-capacity
// channel.
type rvSite struct {
	proc, node int32
	e          *pml.Edge
}

// rvIndex is the rendezvous partner index: for each channel id, the
// receive and send sites on it in (process, node, edge) order, nil for
// a buffered channel. Channel arguments are bound at Spawn and never
// change, so the sites whose node is their process's current PC are,
// in this order, exactly what a scan of every process's current node
// would find.
type rvIndex struct {
	recv, send [][]rvSite
}

// rendezvousSites returns the partner index, building it after a Spawn
// or AddChannel cleared it. Concurrent searches may each build it; the
// builds are equal.
func (s *System) rendezvousSites() *rvIndex {
	if x := s.rv.Load(); x != nil {
		return x
	}
	x := &rvIndex{recv: make([][]rvSite, len(s.shapes)), send: make([][]rvSite, len(s.shapes))}
	for p, inst := range s.insts {
		for ni := range inst.Proc.Nodes {
			for ei := range inst.Proc.Nodes[ni].Edges {
				e := &inst.Proc.Nodes[ni].Edges[ei]
				if e.Kind != pml.EdgeSend && e.Kind != pml.EdgeRecv {
					continue
				}
				id := s.resolveChanFor(inst, e.Ch)
				if s.shapes[id].cap != 0 {
					continue
				}
				site := rvSite{proc: int32(p), node: int32(ni), e: e}
				if e.Kind == pml.EdgeRecv {
					x.recv[id] = append(x.recv[id], site)
				} else {
					x.send[id] = append(x.send[id], site)
				}
			}
		}
	}
	s.rv.Store(x)
	return x
}

func (s *System) execRecv(st *State, p int, e *pml.Edge, tmo bool, a *Arena, out []Transition) []Transition {
	id := s.resolveChanFor(s.insts[p], e.Ch)
	c := &st.l.chans[id]
	if c.cap == 0 {
		return out // rendezvous receives execute via the sender's pairing
	}
	n := c.len(st.v)
	if n == 0 {
		return out
	}
	limit := 1
	if e.Random {
		limit = n
	}
	msg := make([]int64, len(c.fields))
	for i := 0; i < limit; i++ {
		c.msg(st.v, i, msg)
		ok, err := s.patternMatches(st, p, e.RecvArgs, msg, tmo)
		if err != nil {
			return append(out, s.violate(st, p, e, err.Error()))
		}
		if !ok {
			continue
		}
		next := st.clone(a)
		next.applyBinds(p, e.RecvArgs, msg)
		c.remove(next.v, i, n)
		next.setPC(p, e.Dst)
		s.normalizeAtomic(next, p)
		return append(out, Transition{Proc: p, Edge: e, Partner: -1, Ch: ChanID(id), Msg: msg, Next: next})
	}
	return out
}

// patternMatches checks a receive pattern against message values without
// mutating anything. Match expressions evaluate in the receiver's context.
func (s *System) patternMatches(st *State, p int, args []pml.RRecvArg, vals []int64, tmo bool) (bool, error) {
	ev := env{s: s, st: st, proc: p, tmo: tmo}
	for i, a := range args {
		if a.Kind != pml.RArgMatch {
			continue
		}
		want, err := pml.Eval(a.X, ev)
		if err != nil {
			return false, err
		}
		if want != vals[i] {
			return false, nil
		}
	}
	return true, nil
}

// applyBinds stores message fields into process p's bind targets,
// truncating to the target variable's type; st is a fresh clone.
func (st *State) applyBinds(p int, args []pml.RRecvArg, vals []int64) {
	for i, a := range args {
		if a.Kind == pml.RArgBind {
			st.store(p, a.Var, vals[i])
		}
	}
}

// store writes v, truncated to ref's type, to variable ref of process
// p; st is a fresh clone.
func (st *State) store(p int, ref pml.VarRef, v int64) {
	sl := st.l.globals
	if !ref.Global {
		sl = st.l.locals[p]
	}
	sl[ref.Idx].set(st.v, ref.Type.Truncate(v))
}

// advance clones st, moves p along e, and renormalizes atomicity.
func (s *System) advance(st *State, p int, e *pml.Edge, partner int, pe *pml.Edge, ch ChanID, msg []int64, a *Arena) Transition {
	next := st.clone(a)
	next.setPC(p, e.Dst)
	s.normalizeAtomic(next, p)
	return Transition{Proc: p, Edge: e, Partner: partner, PartnerEdge: pe, Ch: ch, Msg: msg, Next: next}
}

func (s *System) violate(st *State, p int, e *pml.Edge, msg string) Transition {
	return Transition{Proc: p, Edge: e, Partner: -1, Ch: -1, Next: st, Violation: msg}
}

// normalizeAtomic sets st's atomic token canonically: the actor keeps
// atomicity only if its new location is inside an atomic region and it
// can initiate at least one transition there (Spin's semantics: a
// blocked atomic sequence loses exclusivity). A rendezvous receive does
// not count — it fires via the sending process, which exclusivity would
// lock out — so atomicity is released at receive points and re-acquired
// afterwards.
func (s *System) normalizeAtomic(st *State, actor int) {
	node := &s.insts[actor].Proc.Nodes[st.pc(actor)]
	if node.Atomic && s.procCanInitiate(st, actor) {
		st.setHolder(actor)
	} else {
		st.setHolder(-1)
	}
}

// procCanInitiate reports whether process p can itself drive a transition
// from st: like procHasEnabled, but rendezvous receives (sender-initiated)
// do not count, and neither does an else edge suppressed only by such
// receives.
func (s *System) procCanInitiate(st *State, p int) bool {
	node := &s.insts[p].Proc.Nodes[st.pc(p)]
	hasElse := false
	anyEnabled := false
	for ei := range node.Edges {
		e := &node.Edges[ei]
		if e.Kind == pml.EdgeElse {
			hasElse = true
			continue
		}
		if !s.edgeEnabled(st, p, e, false) {
			continue
		}
		anyEnabled = true
		if e.Kind == pml.EdgeRecv {
			id := s.resolveChanFor(s.insts[p], e.Ch)
			if s.shapes[id].cap == 0 {
				continue // sender-initiated: p cannot drive it
			}
		}
		return true
	}
	return hasElse && !anyEnabled
}

// ProcEnabled reports whether process p has any executable edge in st —
// used by the checker's weak-fairness construction.
func (s *System) ProcEnabled(st *State, p int) bool {
	return s.procHasEnabled(st, p)
}

// procHasEnabled reports whether process p has any executable edge in st.
// A node with an else edge always does.
func (s *System) procHasEnabled(st *State, p int) bool {
	node := &s.insts[p].Proc.Nodes[st.pc(p)]
	hasElse := false
	for ei := range node.Edges {
		e := &node.Edges[ei]
		if e.Kind == pml.EdgeElse {
			hasElse = true
			continue
		}
		if s.edgeEnabled(st, p, e, false) {
			return true
		}
	}
	return hasElse
}

// edgeEnabled conservatively reports executability of a non-else edge.
// Evaluation errors count as enabled so that executing the edge surfaces
// the violation.
func (s *System) edgeEnabled(st *State, p int, e *pml.Edge, tmo bool) bool {
	ev := env{s: s, st: st, proc: p, tmo: tmo}
	switch e.Kind {
	case pml.EdgeGuard:
		v, err := pml.Eval(e.Cond, ev)
		return err != nil || v != 0
	case pml.EdgeAssign, pml.EdgeAssert, pml.EdgeSkip:
		return true
	case pml.EdgeSend:
		id := s.resolveChanFor(s.insts[p], e.Ch)
		if c := &st.l.chans[id]; c.cap > 0 {
			return c.len(st.v) < c.cap
		}
		return s.rendezvousReceiverReady(st, p, e, id, tmo)
	case pml.EdgeRecv:
		id := s.resolveChanFor(s.insts[p], e.Ch)
		c := &st.l.chans[id]
		if c.cap == 0 {
			return s.rendezvousSenderReady(st, p, e, id, tmo)
		}
		n := c.len(st.v)
		if n == 0 {
			return false
		}
		limit := 1
		if e.Random {
			limit = n
		}
		var buf [8]int64
		msg := buf[:min(len(c.fields), len(buf))]
		if len(c.fields) > len(buf) {
			msg = make([]int64, len(c.fields))
		}
		for i := 0; i < limit; i++ {
			c.msg(st.v, i, msg)
			ok, err := s.patternMatches(st, p, e.RecvArgs, msg, tmo)
			if err != nil || ok {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// rendezvousReceiverReady reports whether some other process offers a
// receive matching p's rendezvous send on channel id.
func (s *System) rendezvousReceiverReady(st *State, p int, e *pml.Edge, id int, tmo bool) bool {
	ev := env{s: s, st: st, proc: p, tmo: tmo}
	vals := make([]int64, len(e.SendArgs))
	for i, a := range e.SendArgs {
		v, err := pml.Eval(a, ev)
		if err != nil {
			return true // "enabled": execution will surface the error
		}
		vals[i] = s.shapes[id].fields[i].Truncate(v)
	}
	for _, site := range s.rendezvousSites().recv[id] {
		q := int(site.proc)
		if q == p || st.pc(q) != site.node {
			continue
		}
		if ok, err := s.patternMatches(st, q, site.e.RecvArgs, vals, tmo); err != nil || ok {
			return true
		}
	}
	return false
}

// rendezvousSenderReady reports whether some process offers a rendezvous
// send on channel id whose values match p's receive pattern. Used for
// else-semantics and atomic renormalization on the receiving side.
func (s *System) rendezvousSenderReady(st *State, p int, e *pml.Edge, id int, tmo bool) bool {
	for _, site := range s.rendezvousSites().send[id] {
		q, es := int(site.proc), site.e
		if q == p || st.pc(q) != site.node {
			continue
		}
		ev := env{s: s, st: st, proc: q, tmo: tmo}
		vals := make([]int64, len(es.SendArgs))
		bad := false
		for i, a := range es.SendArgs {
			v, err := pml.Eval(a, ev)
			if err != nil {
				bad = true
				break
			}
			vals[i] = s.shapes[id].fields[i].Truncate(v)
		}
		if bad {
			return true
		}
		ok, err := s.patternMatches(st, p, e.RecvArgs, vals, tmo)
		if err != nil || ok {
			return true
		}
	}
	return false
}

// FormatMsg renders a transition's message values, using mtype constant
// names for mtype-typed fields, e.g. "SEND_SUCC,2".
func (s *System) FormatMsg(tr Transition) string {
	if tr.Msg == nil {
		return ""
	}
	var b strings.Builder
	for i, v := range tr.Msg {
		if i > 0 {
			b.WriteByte(',')
		}
		if tr.Ch >= 0 && i < len(s.shapes[tr.Ch].fields) && s.shapes[tr.Ch].fields[i] == pml.TypeMtype {
			b.WriteString(s.Prog.MtypeName(v))
		} else {
			fmt.Fprintf(&b, "%d", v)
		}
	}
	return b.String()
}

// ProcName returns the display name of instance i.
func (s *System) ProcName(i int) string {
	if i < 0 || i >= len(s.insts) {
		return ""
	}
	return s.insts[i].Name
}

// FormatTransition renders a transition for counterexample traces, e.g.
// "Car[2] enter! REQ,2".
func (s *System) FormatTransition(tr Transition) string {
	var b strings.Builder
	b.WriteString(s.insts[tr.Proc].Name)
	b.WriteByte(' ')
	b.WriteString(tr.Edge.Label)
	if msg := s.FormatMsg(tr); msg != "" {
		b.WriteByte(' ')
		b.WriteString(msg)
	}
	if tr.Partner >= 0 {
		b.WriteString(" -> ")
		b.WriteString(s.insts[tr.Partner].Name)
	}
	if tr.Violation != "" {
		b.WriteString(" [")
		b.WriteString(tr.Violation)
		b.WriteByte(']')
	}
	return b.String()
}
