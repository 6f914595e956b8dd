package model

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pnp/internal/pml"
)

// typesSrc declares every type of the subset — bit, bool, byte, short,
// int, mtype — as scalars and arrays, globals and locals, and moves
// values through a buffered channel with sorted sends and random
// receives, a rendezvous and an atomic section.
const typesSrc = `
mtype = { RED, GREEN };
bit flag;
bool done;
byte counter = 250;
short temp = -3;
int big = 2147483000;
bit bits[3];
chan q = [3] of { mtype, short, bool };
chan rv = [0] of { byte, int };

active proctype Producer() {
	short s = -32768;
	byte i;
	do
	:: i < 3 -> q!!GREEN, s, i % 2; s = s + 20000; i = i + 1
	:: i < 2 -> q!RED, -s, 1; i = i + 1
	:: else -> break
	od;
	atomic { flag = 1; bits[1] = 1; counter = counter + 10 };
	rv!counter, big
}

active proctype Consumer() {
	mtype m; short v; bool b; byte n; int w; bit seen[2];
	do
	:: q??GREEN, v, b -> seen[b] = 1; n = n + 1
	:: q?m, v, b -> temp = v
	:: rv?n, w -> big = w + 1000; done = 1; break
	od
}`

// cowSrc writes one channel from several processes and receives from
// the middle of its queue: two sends into the same buffered channel, a
// random receive, and a receive binding three fields into one
// process's locals.
const cowSrc = `
chan c = [4] of { byte, byte };
chan d = [1] of { byte, byte, byte };
active proctype S1() { c!4,4; c!1,1 }
active proctype S2() { c!5,5; c!2,2 }
active proctype R() { byte x; c??2,x; c?x,x }
active proctype B() { byte u, v, w; d!7,8,9; d?u,v,w }`

// view renders st through the exported accessors alone: the atomic
// holder, each process's PC and locals, the globals, and each
// channel's messages.
func view(s *System, st *State) string {
	var b strings.Builder
	fmt.Fprintf(&b, "atomic=%d", s.AtomicHolder(st))
	for p, inst := range s.Instances() {
		fmt.Fprintf(&b, " %s@%d", inst.Name, s.PC(st, p))
		for i := range inst.Proc.IntVars {
			fmt.Fprintf(&b, ",%d", s.Local(st, p, i))
		}
	}
	for i := range s.Prog.GlobalVars {
		fmt.Fprintf(&b, " g%d=%d", i, s.Global(st, i))
	}
	for id := 0; id < s.NumChannels(); id++ {
		fmt.Fprintf(&b, " c%d=%v", id, s.Messages(st, ChanID(id)))
	}
	return b.String()
}

// checkRepresentation walks every reachable state of s and fails
// unless vector and view determine each other: a vector with two views
// is ambiguous, a view with two vectors is not canonical. It returns
// the number of reachable states.
func checkRepresentation(t *testing.T, s *System) int {
	t.Helper()
	byVector := map[string]string{}
	byView := map[string]string{}
	init := s.InitialState()
	queue := []*State{init}
	byVector[init.Key()] = view(s, init)
	for i := 0; i < len(queue); i++ {
		for _, tr := range s.Successors(queue[i]) {
			if tr.Violation != "" {
				continue
			}
			k, v := tr.Next.Key(), view(s, tr.Next)
			if old, ok := byVector[k]; ok {
				if old != v {
					t.Fatalf("vector %x has two views:\n%s\n%s", k, old, v)
				}
				continue
			}
			byVector[k] = v
			queue = append(queue, tr.Next)
		}
	}
	for k, v := range byVector {
		if old, ok := byView[v]; ok {
			t.Fatalf("view %s has two vectors:\n%x\n%x", v, old, k)
		}
		byView[v] = k
		st, err := DecodeKey(init, []byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CheckState(st); err != nil {
			t.Fatalf("reachable state %s rejected: %v", v, err)
		}
		checkTruncated(t, s, st)
	}
	return len(byVector)
}

// checkTruncated fails unless every value of st equals its Truncate to
// the type it was declared with.
func checkTruncated(t *testing.T, s *System, st *State) {
	t.Helper()
	ok := func(what string, typ pml.Type, v int64) {
		if typ.Truncate(v) != v {
			t.Fatalf("%s: %s value %d out of range in %x", what, typ, v, st.Key())
		}
	}
	for i, g := range s.Prog.GlobalVars {
		ok(g.Name, g.Type, s.Global(st, i))
	}
	for p, inst := range s.Instances() {
		for i, v := range inst.Proc.IntVars {
			ok(inst.Name+"."+v.Name, v.Type, s.Local(st, p, i))
		}
	}
	for id := 0; id < s.NumChannels(); id++ {
		for _, m := range s.Messages(st, ChanID(id)) {
			for k, v := range m {
				ok(s.ChannelName(ChanID(id)), s.shapes[id].fields[k], v)
			}
		}
	}
}

// The representation oracle: on every reachable state of programs that
// use every type, sorted sends, random receives, rendezvous and atomic
// sections, the state vector and its view through the accessors are a
// bijection, and every vector passes CheckState.
func TestStateVectorIsCanonical(t *testing.T) {
	for name, src := range map[string]string{"types": typesSrc, "cow": cowSrc, "components": componentsSrc} {
		t.Run(name, func(t *testing.T) {
			n := checkRepresentation(t, mustSystem(t, src))
			if n < 20 {
				t.Fatalf("%d reachable states: too few to exercise the layout", n)
			}
		})
	}
}

// Every bit of the vector belongs to at most one slot and every byte to
// some slot: the vector is its slots plus the unused bits of each
// packed bit byte.
func TestLayoutSlotsAreDisjoint(t *testing.T) {
	s := mustSystem(t, typesSrc)
	l := s.layout()
	owner := make([]string, 8*l.size)
	claim := func(name string, sl slot) {
		bits := []int{}
		switch sl.kind {
		case slotBit:
			bits = append(bits, 8*int(sl.off)+int(sl.bit))
		default:
			w := map[slotKind]int{slotU8: 1, slotU16: 2, slotI16: 2, slotI32: 4}[sl.kind]
			for b := 8 * int(sl.off); b < 8*(int(sl.off)+w); b++ {
				bits = append(bits, b)
			}
		}
		for _, b := range bits {
			if owner[b] != "" {
				t.Fatalf("bit %d of the vector belongs to %s and %s", b, owner[b], name)
			}
			owner[b] = name
		}
	}
	claim("atomic", l.atomic)
	for p, sl := range l.pcs {
		claim(fmt.Sprintf("pc%d", p), sl)
	}
	for i, sl := range l.globals {
		claim(s.Prog.GlobalVars[i].Name, sl)
	}
	for p := range l.locals {
		for i, sl := range l.locals[p] {
			claim(fmt.Sprintf("%d.%s", p, s.insts[p].Proc.IntVars[i].Name), sl)
		}
	}
	for id := range l.chans {
		c := &l.chans[id]
		if c.cap == 0 {
			continue
		}
		claim(fmt.Sprintf("c%d.count", id), c.count)
		for i := 0; i < c.cap; i++ {
			for k, f := range c.fields {
				claim(fmt.Sprintf("c%d[%d].%d", id, i, k), f.at(c.data+i*c.width))
			}
		}
	}
	for i := 0; i < l.size; i++ {
		used := false
		for b := 8 * i; b < 8*i+8; b++ {
			used = used || owner[b] != ""
		}
		if !used {
			t.Errorf("byte %d of the vector belongs to no slot", i)
		}
	}
	// 1 atomic + 2 PCs; globals: byte, short, int, then flag, done and
	// bits[0..2] in one byte; Producer: short, byte; Consumer: mtype,
	// short, byte, int, then b and seen[0..1] in one byte; q: a count
	// and 3 messages of mtype, short, bool.
	if want := 3 + (1 + 2 + 4 + 1) + (2 + 1) + (1 + 2 + 1 + 4 + 1) + (1 + 3*4); l.size != want {
		t.Errorf("vector of %d bytes, want %d", l.size, want)
	}
}

// Boundary values round-trip through their slots: short and int at
// both ends of their range, a byte store that wraps, and eight packed
// bits that do not clobber each other.
func TestSlotsRoundTripBoundaryValues(t *testing.T) {
	s := mustSystem(t, `
short sh; int in; byte by;
bit b0, b1, b2, b3; bool b4, b5, b6, b7;
active proctype P() { skip }`)
	l := s.layout()
	global := func(name string) (pml.VarRef, slot) {
		for i, g := range s.Prog.GlobalVars {
			if g.Name == name {
				return pml.VarRef{Global: true, Idx: i, Type: g.Type, Name: name}, l.globals[i]
			}
		}
		t.Fatalf("no global %s", name)
		return pml.VarRef{}, slot{}
	}
	st := s.InitialState()
	for _, c := range []struct {
		name    string
		in, out int64
	}{
		{"sh", -32768, -32768}, {"sh", 32767, 32767}, {"sh", 32768, -32768}, {"sh", -1, -1},
		{"in", math.MinInt32, math.MinInt32}, {"in", math.MaxInt32, math.MaxInt32}, {"in", -1, -1},
		{"by", 255, 255}, {"by", 256, 0}, {"by", -1, 255},
	} {
		ref, sl := global(c.name)
		st.store(0, ref, c.in)
		if got := sl.get(st.v); got != c.out {
			t.Errorf("%s = %d stored, %d read back, want %d", c.name, c.in, got, c.out)
		}
		if got := s.Global(st, ref.Idx); got != c.out {
			t.Errorf("%s = %d: Global reads %d, want %d", c.name, c.in, got, c.out)
		}
	}
	ref, sl := global("by")
	st.store(0, ref, 255)
	st.store(0, ref, sl.get(st.v)+1)
	if got := s.Global(st, ref.Idx); got != 0 {
		t.Errorf("byte 255 + 1 = %d, want 0", got)
	}
	names := []string{"b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7"}
	for mask := 0; mask < 256; mask++ {
		for i, n := range names {
			ref, _ := global(n)
			st.store(0, ref, int64(mask>>i&1)*7) // any non-zero value stores 1
		}
		for i, n := range names {
			ref, _ := global(n)
			if got, want := s.Global(st, ref.Idx), int64(mask>>i&1); got != want {
				t.Fatalf("bits %08b: %s reads %d, want %d", mask, n, got, want)
			}
		}
		if err := s.CheckState(st); err != nil {
			t.Fatalf("bits %08b: %v", mask, err)
		}
	}
	if _, sl0 := global("b0"); sl0.kind != slotBit || l.size != 1+1+(2+4+1+1) {
		t.Errorf("eight bits take more than one byte: vector of %d bytes", l.size)
	}
}

// CheckState rejects every vector a reachable state's bytes turn into
// when a padding bit is set or a byte past a channel's count is not
// zero.
func TestCheckStateRejectsNonCanonical(t *testing.T) {
	s := mustSystem(t, typesSrc)
	l := s.layout()
	st := s.InitialState()
	if err := s.CheckState(st); err != nil {
		t.Fatal(err)
	}
	flip := func(name string, off int, mask byte) {
		bad := st.clone(nil)
		bad.v[off] ^= mask
		if s.CheckState(bad) == nil {
			t.Errorf("%s: non-canonical vector %x accepted", name, bad.v)
		}
	}
	bitByte := l.globals[len(l.globals)-1].off // bits[2], the last of five packed bits
	flip("padding bit", int(bitByte), 0x80)
	q, _ := s.ChannelByName("q")
	flip("byte past the count", l.chans[q].data, 1)
	flip("count past capacity", int(l.chans[q].count.off), 4)
	flip("pc past the nodes", int(l.pcs[0].off), 0xff)
	flip("atomic holder", int(l.atomic.off), 3)

	// A bool message field holding 7 is not a Truncate'd value.
	bad := st.clone(nil)
	c := &l.chans[q]
	c.count.set(bad.v, 1)
	c.put(bad.v, 0, []int64{1, -5, 1})
	if err := s.CheckState(bad); err != nil {
		t.Fatalf("one message in q: %v", err)
	}
	c.fields[2].at(c.data).set(bad.v, 7)
	if s.CheckState(bad) == nil {
		t.Errorf("bool message field of 7 accepted")
	}
}
