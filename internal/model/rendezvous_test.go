package model

import (
	"fmt"
	"slices"
	"testing"

	"pnp/internal/pml"
)

// linearScan is the partner search the rendezvous index replaced, kept
// as its oracle: every other process's current node, its edges in
// order, each receive (or send) whose channel reference resolves to id
// through the process's bindings. Its methods are the scan's versions
// of System.rendezvous, rendezvousReceiverReady and
// rendezvousSenderReady.
type linearScan struct{ s *System }

func (l linearScan) rendezvous(st *State, p int, e *pml.Edge, id int, vals []int64, tmo bool, a *Arena, out []Transition) []Transition {
	s := l.s
	for q := range s.insts {
		if q == p {
			continue
		}
		node := &s.insts[q].Proc.Nodes[st.pc(q)]
		for ei := range node.Edges {
			er := &node.Edges[ei]
			if er.Kind != pml.EdgeRecv {
				continue
			}
			if s.resolveChanFor(s.insts[q], er.Ch) != id {
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
	}
	return out
}

func (l linearScan) receiverReady(st *State, p int, e *pml.Edge, id int, tmo bool) bool {
	s := l.s
	ev := env{s: s, st: st, proc: p, tmo: tmo}
	vals := make([]int64, len(e.SendArgs))
	for i, a := range e.SendArgs {
		v, err := pml.Eval(a, ev)
		if err != nil {
			return true
		}
		vals[i] = s.shapes[id].fields[i].Truncate(v)
	}
	for q := range s.insts {
		if q == p {
			continue
		}
		node := &s.insts[q].Proc.Nodes[st.pc(q)]
		for ei := range node.Edges {
			er := &node.Edges[ei]
			if er.Kind != pml.EdgeRecv || s.resolveChanFor(s.insts[q], er.Ch) != id {
				continue
			}
			if ok, err := s.patternMatches(st, q, er.RecvArgs, vals, tmo); err != nil || ok {
				return true
			}
		}
	}
	return false
}

func (l linearScan) senderReady(st *State, p int, e *pml.Edge, id int, tmo bool) bool {
	s := l.s
	for q := range s.insts {
		if q == p {
			continue
		}
		node := &s.insts[q].Proc.Nodes[st.pc(q)]
		for ei := range node.Edges {
			es := &node.Edges[ei]
			if es.Kind != pml.EdgeSend || s.resolveChanFor(s.insts[q], es.Ch) != id {
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
	}
	return false
}

// rendezvousOracleSrc has several senders and receivers on one [0]
// channel with match patterns and binds, an else beside a rendezvous
// receive, a match whose evaluation can fail, an atomic that ends in a
// rendezvous send, a node offering a send and a receive on one channel
// (no process pairs with itself), and channels passed as proctype
// parameters: Sender and Matcher are spawned on c and on e, so the
// sites depend on ChanBind.
const rendezvousOracleSrc = `
chan c = [0] of { byte, byte };
chan e = [0] of { byte, byte };
chan d = [0] of { byte };
byte g;

proctype Sender(chan out; byte id) {
	out!id,1;
	out!id,0
}

proctype Matcher(chan in) {
	byte v;
	end: do
	:: in?1,v -> g = v
	:: in?2,v
	:: in?v,1
	od
}

proctype Poller(chan in) {
	byte a, b;
	do
	:: if
	   :: in?a,b
	   :: in!3,1
	   :: else -> g = (g + 1) % 3
	   fi
	:: in?eval(4 / g),b -> break
	od
}

active proctype Atom() {
	byte n;
	do
	:: n < 2 -> atomic { n = n + 1; d!n }
	:: n >= 2 -> break
	od
}

active proctype Sink() {
	byte x;
	end: do
	:: d?x
	:: d?2 -> g = 0
	od
}
`

func rendezvousOracleSystem(t *testing.T) *System {
	t.Helper()
	s := mustSystem(t, rendezvousOracleSrc)
	c, _ := s.ChannelByName("c")
	e, _ := s.ChannelByName("e")
	for _, sp := range []struct {
		proc string
		args []Arg
	}{
		{"Sender", []Arg{Chan(c), Int(1)}},
		{"Matcher", []Arg{Chan(c)}},
		{"Sender", []Arg{Chan(c), Int(2)}},
		{"Poller", []Arg{Chan(c)}},
		{"Matcher", []Arg{Chan(e)}},
		{"Sender", []Arg{Chan(e), Int(2)}},
	} {
		if _, err := s.Spawn(sp.proc, sp.args...); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestRendezvousIndexMatchesScan: at every reachable state, for every
// rendezvous send or receive on offer, the three partner searches
// through the index (rendezvous, rendezvousReceiverReady,
// rendezvousSenderReady) give what the linear scan gives: the same
// combined transitions, element by element and in order — the order
// Successors emits, which parTrace replays by position and the
// checkpoint log relies on — and the same readiness, with and without
// timeout. These three calls are the only place Successors consults the
// index.
func TestRendezvousIndexMatchesScan(t *testing.T) {
	s := rendezvousOracleSystem(t)
	scan := linearScan{s}
	a := &Arena{}
	var paired, elses, violations, pairings int
	pairedOn := map[ChanID]bool{}
	seen := map[string]bool{}
	frontier := []*State{s.InitialState()}
	seen[frontier[0].Key()] = true
	for len(frontier) > 0 {
		var next []*State
		for _, st := range frontier {
			for p, inst := range s.insts {
				node := &inst.Proc.Nodes[st.pc(p)]
				for ei := range node.Edges {
					e := &node.Edges[ei]
					if e.Kind != pml.EdgeSend && e.Kind != pml.EdgeRecv {
						continue
					}
					id := s.resolveChanFor(inst, e.Ch)
					if s.shapes[id].cap != 0 {
						continue
					}
					for _, tmo := range []bool{false, true} {
						if e.Kind == pml.EdgeRecv {
							if got, want := s.rendezvousSenderReady(st, p, e, id, tmo), scan.senderReady(st, p, e, id, tmo); got != want {
								t.Fatalf("state %x, process %d: sender ready %v through the index, %v through the scan", st.Key(), p, got, want)
							}
							continue
						}
						if got, want := s.rendezvousReceiverReady(st, p, e, id, tmo), scan.receiverReady(st, p, e, id, tmo); got != want {
							t.Fatalf("state %x, process %d: receiver ready %v through the index, %v through the scan", st.Key(), p, got, want)
						}
						vals, ok := sendValues(s, st, p, e, id, tmo)
						if !ok {
							continue // execSend reports the error before pairing
						}
						got := s.rendezvous(st, p, e, id, vals, tmo, a, nil)
						want := scan.rendezvous(st, p, e, id, vals, tmo, a, nil)
						if len(got) != len(want) {
							t.Fatalf("state %x, process %d: %d pairings through the index, %d through the scan", st.Key(), p, len(got), len(want))
						}
						for i := range got {
							if d := transitionDiff(got[i], want[i]); d != "" {
								t.Fatalf("state %x, process %d, pairing %d: %s", st.Key(), p, i, d)
							}
						}
						pairings += len(got)
					}
				}
			}
			for _, tr := range s.Successors(st) {
				switch {
				case tr.Violation != "":
					violations++
					continue
				case tr.Partner >= 0:
					paired++
					pairedOn[tr.Ch] = true
				case tr.Edge.Kind == pml.EdgeElse:
					elses++
				}
				if k := tr.Next.Key(); !seen[k] {
					seen[k] = true
					next = append(next, tr.Next)
				}
			}
		}
		frontier = next
	}
	// The program must exercise what the index could get wrong.
	if len(seen) < 1000 || paired < 1000 || pairings < 2*paired || elses == 0 || violations == 0 || len(pairedOn) != 3 {
		t.Fatalf("weak oracle: %d states, %d rendezvous on %d channels (%d pairings compared), %d else steps, %d violations",
			len(seen), paired, len(pairedOn), pairings, elses, violations)
	}
}

// sendValues evaluates send edge e's arguments as execSend does; ok is
// false when one fails.
func sendValues(s *System, st *State, p int, e *pml.Edge, id int, tmo bool) (vals []int64, ok bool) {
	ev := env{s: s, st: st, proc: p, tmo: tmo}
	vals = make([]int64, len(e.SendArgs))
	for i, arg := range e.SendArgs {
		v, err := pml.Eval(arg, ev)
		if err != nil {
			return nil, false
		}
		vals[i] = s.shapes[id].fields[i].Truncate(v)
	}
	return vals, true
}

// transitionDiff describes the first field where a and b differ, or
// returns "".
func transitionDiff(a, b Transition) string {
	switch {
	case a.Proc != b.Proc:
		return fmt.Sprintf("Proc %d, want %d", a.Proc, b.Proc)
	case a.Edge != b.Edge:
		return fmt.Sprintf("Edge %q, want %q", a.Edge.Label, b.Edge.Label)
	case a.Partner != b.Partner:
		return fmt.Sprintf("Partner %d, want %d", a.Partner, b.Partner)
	case a.PartnerEdge != b.PartnerEdge:
		return "PartnerEdge differs"
	case a.Ch != b.Ch:
		return fmt.Sprintf("Ch %d, want %d", a.Ch, b.Ch)
	case !slices.Equal(a.Msg, b.Msg):
		return fmt.Sprintf("Msg %v, want %v", a.Msg, b.Msg)
	case a.Next.Key() != b.Next.Key():
		return "Next differs"
	case a.Violation != b.Violation:
		return fmt.Sprintf("Violation %q, want %q", a.Violation, b.Violation)
	}
	return ""
}

// TestRendezvousIndexRebuiltAfterSpawn: Spawn and AddChannel clear the
// index, so a process spawned after a search started still pairs.
func TestRendezvousIndexRebuiltAfterSpawn(t *testing.T) {
	s := mustSystem(t, `
proctype Snd(chan out) { out!7 }
proctype Rcv(chan in) { byte v; in?v }
`)
	ch := s.AddChannel("r", 0, []pml.Type{pml.TypeByte})
	if _, err := s.Spawn("Snd", Chan(ch)); err != nil {
		t.Fatal(err)
	}
	if trs := s.Successors(s.InitialState()); len(trs) != 0 {
		t.Fatalf("a lone sender paired: %d transitions", len(trs))
	}
	if _, err := s.Spawn("Rcv", Chan(ch)); err != nil {
		t.Fatal(err)
	}
	trs := s.Successors(s.InitialState())
	if len(trs) != 1 || trs[0].Partner != 1 || trs[0].Msg[0] != 7 {
		t.Fatalf("after spawning a receiver: %+v", trs)
	}
	other := s.AddChannel("r2", 0, []pml.Type{pml.TypeByte})
	if x := s.rendezvousSites(); len(x.recv) <= int(other) {
		t.Fatalf("index not rebuilt after AddChannel: %d channels", len(x.recv))
	}
}
