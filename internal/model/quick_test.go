package model

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pnp/internal/pml"
)

// TestQuickSortedInsertMatchesStableSort: inserting messages one at a
// time with a sorted send yields the same buffer as a stable sort of
// the whole batch — Spin's sorted-send semantics.
func TestQuickSortedInsertMatchesStableSort(t *testing.T) {
	s := New(&pml.Compiled{})
	id := s.AddChannel("c", 255, []pml.Type{pml.TypeByte, pml.TypeShort})
	c := &s.layout().chans[id]
	f := func(raw []uint8) bool {
		// Build messages (key, seq) so stability is observable.
		var msgs [][]int64
		for i, v := range raw {
			msgs = append(msgs, []int64{int64(v % 5), int64(i)})
		}
		st := s.InitialState()
		for n, m := range msgs {
			c.send(st.v, n, m, true)
		}
		ref := make([][]int64, len(msgs))
		copy(ref, msgs)
		sort.SliceStable(ref, func(i, j int) bool { return ref[i][0] < ref[j][0] })
		got := s.Messages(st, id)
		if len(got) != len(ref) {
			return false
		}
		for i, m := range ref {
			if got[i][0] != m[0] || got[i][1] != m[1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickChannelOpsMatchReference drives a random sequence of sends and
// receives through a compiled pml program and checks the channel contents
// against a plain Go queue after every step.
func TestQuickChannelOpsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(20260706))
	for iter := 0; iter < 60; iter++ {
		nOps := 1 + r.Intn(12)
		type op struct {
			send bool
			val  int
		}
		var ops []op
		depth := 0
		for i := 0; i < nOps; i++ {
			if depth == 0 || (depth < 6 && r.Intn(2) == 0) {
				ops = append(ops, op{send: true, val: r.Intn(200)})
				depth++
			} else {
				ops = append(ops, op{send: false})
				depth--
			}
		}
		// Generate the straight-line pml program.
		src := "chan c = [6] of { byte };\nactive proctype P() {\n\tbyte x;\n"
		for _, o := range ops {
			if o.send {
				src += fmt.Sprintf("\tc!%d;\n", o.val)
			} else {
				src += "\tc?x;\n"
			}
		}
		src += "}\n"
		prog, err := pml.CompileSource(src)
		if err != nil {
			t.Fatalf("iter %d: compile: %v\n%s", iter, err, src)
		}
		sys := New(prog)
		if err := sys.SpawnActive(); err != nil {
			t.Fatal(err)
		}
		id, _ := sys.ChannelByName("c")
		st := sys.InitialState()
		var ref []int64
		for step, o := range ops {
			trs := sys.Successors(st)
			if len(trs) != 1 {
				t.Fatalf("iter %d step %d: %d transitions", iter, step, len(trs))
			}
			st = trs[0].Next
			if o.send {
				ref = append(ref, int64(o.val))
			} else {
				ref = ref[1:]
			}
			got := sys.Messages(st, id)
			if len(got) != len(ref) {
				t.Fatalf("iter %d step %d: contents %v, want %v", iter, step, got, ref)
			}
			for i := range ref {
				if got[i][0] != ref[i] {
					t.Fatalf("iter %d step %d: contents %v, want %v", iter, step, got, ref)
				}
			}
		}
	}
}

// quickSystem has one process, one global and two byte channels, so
// random states of it can be written through the layout.
func quickSystem(t *testing.T) (*System, *layout) {
	t.Helper()
	s := mustSystem(t, `
int g;
chan c = [3] of { byte };
chan d = [3] of { byte };
active proctype P() { do :: g = g + 1 od }`)
	return s, s.layout()
}

// fill writes pc, global g and channel contents into a fresh state.
func fill(s *System, l *layout, pc, g int64, chans ...[]uint8) *State {
	st := s.InitialState()
	l.pcs[0].set(st.v, pc)
	l.globals[0].set(st.v, int64(int32(g)))
	for id, msgs := range chans {
		for n, m := range msgs {
			l.chans[id].send(st.v, n, []int64{int64(m)}, false)
		}
	}
	return st
}

// TestQuickStateKeyInjective: distinct states (different PCs, globals, or
// channel contents) must have distinct keys; equal ones equal keys.
func TestQuickStateKeyInjective(t *testing.T) {
	s, l := quickSystem(t)
	nodes := len(s.Instances()[0].Proc.Nodes)
	f := func(pc1, pc2 uint8, g1, g2 int32, c1, c2 []uint8) bool {
		c1, c2 = c1[:min(len(c1), 3)], c2[:min(len(c2), 3)]
		s1 := fill(s, l, int64(pc1)%int64(nodes), int64(g1), c1)
		s2 := fill(s, l, int64(pc2)%int64(nodes), int64(g2), c2)
		same := int(pc1)%nodes == int(pc2)%nodes && g1 == g2 && string(c1) == string(c2)
		return (s1.Key() == s2.Key()) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickKeyDistinguishesBoundaries: moving a value across a channel
// boundary (from one channel to the next) must change the key.
func TestQuickKeyDistinguishesBoundaries(t *testing.T) {
	s, l := quickSystem(t)
	s1 := fill(s, l, 0, 0, []uint8{1, 2}, nil)
	s2 := fill(s, l, 0, 0, []uint8{1}, []uint8{2})
	if s1.Key() == s2.Key() {
		t.Error("keys collide across channel boundaries")
	}
}

// TestQuickSuccessorsDoNotMutateSource: successor generation must never
// modify the source state (states are immutable).
func TestQuickSuccessorsDoNotMutateSource(t *testing.T) {
	prog, err := pml.CompileSource(`
chan c = [2] of { byte };
byte g;
active proctype A() {
	do
	:: c!1
	:: g = g + 1
	od
}
active proctype B() {
	byte x;
	do
	:: c?x
	:: x = 0
	od
}`)
	if err != nil {
		t.Fatal(err)
	}
	sys := New(prog)
	if err := sys.SpawnActive(); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	st := sys.InitialState()
	for step := 0; step < 200; step++ {
		before := st.Key()
		trs := sys.Successors(st)
		if st.Key() != before {
			t.Fatalf("step %d: Successors mutated the source state", step)
		}
		if len(trs) == 0 {
			break
		}
		st = trs[r.Intn(len(trs))].Next
	}
}
