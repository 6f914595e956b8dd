// Package model executes the formal semantics of compiled pml programs:
// it instantiates proctypes into processes, binds channel parameters, and
// generates successor states (including rendezvous pairing, sorted sends,
// random receives, and atomic sections) for state-space exploration.
package model

import (
	"fmt"
	"io"
	"sync/atomic"

	"pnp/internal/pml"
)

// ChanID identifies a channel within a System. Global channels occupy
// IDs 0..len(GlobalChans)-1 in declaration order; channels created by
// AddChannel or by local channel declarations follow.
type ChanID int

// chanShape is the runtime shape of one channel.
type chanShape struct {
	name   string
	cap    int
	fields []pml.Type
}

// Instance is one running process: a proctype plus its bindings.
type Instance struct {
	Proc       *pml.Proc
	Pid        int
	Name       string // display name, e.g. "Car[2]"
	ChanBind   []int  // chan slot -> ChanID
	initLocals []int64
}

// Arg is an argument passed to Spawn: an integer or a channel.
type Arg struct {
	isChan bool
	i      int64
	ch     ChanID
}

// Int makes an integer Spawn argument.
func Int(v int64) Arg { return Arg{i: v} }

// Chan makes a channel Spawn argument.
func Chan(id ChanID) Arg { return Arg{isChan: true, ch: id} }

// System is an instantiated model: a compiled program, a set of channels,
// and a set of process instances.
type System struct {
	Prog   *pml.Compiled
	shapes []chanShape
	insts  []*Instance
	byName map[string]ChanID
	// rv is the rendezvous partner index (see rendezvousSites) and lay
	// the state layout (see layout), each built on first use; Spawn and
	// AddChannel clear both.
	rv  atomic.Pointer[rvIndex]
	lay atomic.Pointer[layout]
}

// New creates a System over a compiled program, materializing its global
// channels.
func New(prog *pml.Compiled) *System {
	s := &System{Prog: prog, byName: make(map[string]ChanID)}
	for _, ci := range prog.GlobalChans {
		id := ChanID(len(s.shapes))
		s.shapes = append(s.shapes, chanShape{name: ci.Name, cap: ci.Cap, fields: ci.Fields})
		s.byName[ci.Name] = id
	}
	return s
}

// AddChannel creates an additional channel (beyond the program's global
// declarations) and returns its ID. Capacity 0 makes it a rendezvous
// channel.
func (s *System) AddChannel(name string, capacity int, fields []pml.Type) ChanID {
	id := ChanID(len(s.shapes))
	s.shapes = append(s.shapes, chanShape{name: name, cap: capacity, fields: fields})
	if name != "" {
		s.byName[name] = id
	}
	s.rv.Store(nil)
	s.lay.Store(nil)
	return id
}

// ChannelByName finds a channel by name.
func (s *System) ChannelByName(name string) (ChanID, bool) {
	id, ok := s.byName[name]
	return id, ok
}

// ChannelName returns the display name of a channel.
func (s *System) ChannelName(id ChanID) string { return s.shapes[id].name }

// NumChannels returns the number of channels in the system.
func (s *System) NumChannels() int { return len(s.shapes) }

// NumInstances returns the number of spawned processes.
func (s *System) NumInstances() int { return len(s.insts) }

// Instances returns the spawned processes in pid order.
func (s *System) Instances() []*Instance { return s.insts }

// Spawn instantiates a proctype with the given arguments and returns the
// new process. Channel parameters are checked for arity against every
// send/receive the proctype performs on them.
func (s *System) Spawn(procName string, args ...Arg) (*Instance, error) {
	proc := s.Prog.Proc(procName)
	if proc == nil {
		return nil, fmt.Errorf("model: unknown proctype %q", procName)
	}
	if len(args) != len(proc.Params) {
		return nil, fmt.Errorf("model: proctype %s takes %d arguments, got %d",
			procName, len(proc.Params), len(args))
	}
	inst := &Instance{
		Proc:       proc,
		Pid:        len(s.insts),
		Name:       fmt.Sprintf("%s[%d]", procName, len(s.insts)),
		ChanBind:   make([]int, len(proc.ChanSlots)),
		initLocals: make([]int64, len(proc.IntVars)),
	}
	for i, v := range proc.IntVars {
		inst.initLocals[i] = v.Init
	}
	for pi, prm := range proc.Params {
		a := args[pi]
		if prm.IsChan != a.isChan {
			return nil, fmt.Errorf("model: proctype %s parameter %q: argument kind mismatch",
				procName, prm.Name)
		}
		if prm.IsChan {
			if int(a.ch) < 0 || int(a.ch) >= len(s.shapes) {
				return nil, fmt.Errorf("model: proctype %s parameter %q: invalid channel", procName, prm.Name)
			}
			inst.ChanBind[prm.Slot] = int(a.ch)
		} else {
			inst.initLocals[prm.Slot] = prm.Type.Truncate(a.i)
		}
	}
	// Materialize local channel declarations: one fresh channel per slot.
	for slot, cs := range proc.ChanSlots {
		if cs.IsParam {
			continue
		}
		id := s.AddChannel(fmt.Sprintf("%s.%s", inst.Name, cs.Name), cs.Decl.Cap, cs.Decl.Fields)
		inst.ChanBind[slot] = int(id)
	}
	if err := s.checkChanArity(inst); err != nil {
		return nil, err
	}
	s.insts = append(s.insts, inst)
	s.rv.Store(nil)
	s.lay.Store(nil)
	return inst, nil
}

// SpawnActive instantiates every `active` proctype the declared number of
// times. Active proctypes must be parameterless.
func (s *System) SpawnActive() error {
	for _, p := range s.Prog.Procs {
		if p.Active == 0 {
			continue
		}
		if len(p.Params) > 0 {
			return fmt.Errorf("model: active proctype %s has parameters", p.Name)
		}
		for i := 0; i < p.Active; i++ {
			if _, err := s.Spawn(p.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkChanArity validates that every channel operation the instance can
// perform matches the width of the channel actually bound.
func (s *System) checkChanArity(inst *Instance) error {
	for ni := range inst.Proc.Nodes {
		for ei := range inst.Proc.Nodes[ni].Edges {
			e := &inst.Proc.Nodes[ni].Edges[ei]
			var n int
			switch e.Kind {
			case pml.EdgeSend:
				n = len(e.SendArgs)
			case pml.EdgeRecv:
				n = len(e.RecvArgs)
			default:
				continue
			}
			id := s.resolveChanFor(inst, e.Ch)
			if w := len(s.shapes[id].fields); w != n {
				return fmt.Errorf(
					"model: %s: %s on channel %s at %s: channel carries %d fields, operation has %d",
					inst.Name, e.Label, s.shapes[id].name, e.Pos, w, n)
			}
		}
	}
	return nil
}

// resolveChanFor maps a compiled channel reference to a concrete channel
// for the given instance.
func (s *System) resolveChanFor(inst *Instance, ref pml.ChanRef) int {
	if ref.Global {
		return ref.Idx
	}
	return inst.ChanBind[ref.Idx]
}

// InitialState builds the initial state of the system.
func (s *System) InitialState() *State {
	l := s.layout()
	st := &State{v: make([]byte, l.size), l: l}
	for i, v := range s.Prog.GlobalVars {
		l.globals[i].set(st.v, v.Init)
	}
	for p, inst := range s.insts {
		l.pcs[p].set(st.v, int64(inst.Proc.Entry))
		for i, v := range inst.initLocals {
			l.locals[p][i].set(st.v, v)
		}
	}
	return st
}

// EvalGlobal evaluates a global-scope expression (from
// pml.Compiled.CompileGlobalExpr) in a state. The expression must not
// reference process-local variables; the resolver enforces this.
func (s *System) EvalGlobal(st *State, e pml.RExpr) (int64, error) {
	return pml.Eval(e, env{s: s, st: st, proc: 0})
}

// AtEndState reports whether instance i is at a valid end location in st
// (its final node or an end-labeled node).
func (s *System) AtEndState(st *State, i int) bool {
	n := &s.insts[i].Proc.Nodes[st.pc(i)]
	return n.Final || n.EndLabel
}

// WriteFingerprint writes a canonical structural description of the
// instantiated system — channel shapes, process instances, parameter
// bindings — to w. Together with the compiled program's source text it
// content-addresses the composed model: two systems with equal
// fingerprints and equal program sources explore identical state spaces.
func (s *System) WriteFingerprint(w io.Writer) {
	fmt.Fprintf(w, "chans:%d;", len(s.shapes))
	for _, sh := range s.shapes {
		fmt.Fprintf(w, "%s cap=%d fields=%v;", sh.name, sh.cap, sh.fields)
	}
	fmt.Fprintf(w, "insts:%d;", len(s.insts))
	for _, in := range s.insts {
		fmt.Fprintf(w, "%s proc=%s bind=%v locals=%v;", in.Name, in.Proc.Name, in.ChanBind, in.initLocals)
	}
}
