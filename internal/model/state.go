package model

import (
	"encoding/binary"

	"pnp/internal/pml"
)

// State is one global state of the system: program counters and local
// stores of every process, global variables, channel contents, and the
// identity of the process holding atomic control. It is one byte
// vector laid out once per System (see layout), and the vector is the
// state's canonical encoding: equal states have equal bytes, so the
// visited sets, the collapse tables, the liveness product and the
// checkpoint log store the vector itself, and a successor costs one
// copy of its parent's vector plus the writes of its step.
//
// States are immutable once a successor generator returns them.
type State struct {
	v []byte  // the vector
	l *layout // its system's layout
}

// clone copies the state's vector. A non-nil arena recycles the storage
// of previously discarded states.
func (st *State) clone(a *Arena) *State {
	n := a.take()
	n.v = append(n.v[:0], st.v...)
	n.l = st.l
	return n
}

// Arena recycles successor-generation scratch for one explorer (a level
// engine worker, or the liveness product's build): states discarded as
// duplicates, or retired once nothing reads them, hand back their State
// and vector, so the next clone allocates neither. It also carves the
// message values of transitions (Transition.Msg) from a slab. An Arena
// must not be shared between goroutines; a nil *Arena disables both
// (every clone and message allocates fresh storage).
type Arena struct {
	free []*State
	msgs []int64 // the slab: values past len are unused, values before it are never rewritten
}

// arenaMsgSlab is the value count of one message slab.
const arenaMsgSlab = 512

// msg returns a copy of vals that stays valid as long as it is read:
// carved from the slab, which is replaced rather than reused once full,
// so a retained message is never overwritten.
func (a *Arena) msg(vals []int64) []int64 {
	if a == nil {
		return append(make([]int64, 0, len(vals)), vals...)
	}
	if a.msgs == nil || cap(a.msgs)-len(a.msgs) < len(vals) {
		a.msgs = make([]int64, 0, max(arenaMsgSlab, len(vals)))
	}
	n := len(a.msgs)
	a.msgs = append(a.msgs, vals...)
	return a.msgs[n:len(a.msgs):len(a.msgs)]
}

// Recycle returns a discarded state's storage to the arena. The caller
// must hold the only reference: recycle states it just rejected (for
// example a successor whose key was already in the visited set) or
// states no frontier, visited structure, or trace still reads.
func (a *Arena) Recycle(st *State) {
	if a == nil || st == nil {
		return
	}
	a.free = append(a.free, st)
}

// take pops a recycled state, whose fields clone overwrites, or
// allocates a fresh one.
func (a *Arena) take() *State {
	if a == nil || len(a.free) == 0 {
		return &State{}
	}
	st := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	return st
}

// Key returns the state's canonical encoding as a string, usable as a
// map key. Searches store encodings, not Key strings; Key serves tests
// and tools that keep a map of states.
func (st *State) Key() string {
	return string(st.v)
}

// AppendKey appends the state's canonical encoding (the same bytes Key
// returns) to buf and returns the extended slice.
func (st *State) AppendKey(buf []byte) []byte {
	return append(buf, st.v...)
}

// Bytes returns the state's vector, its canonical encoding, without
// copying it. The caller must not modify it, and must not read it once
// the state went back to an Arena.
func (st *State) Bytes() []byte {
	return st.v
}

// slotKind is how one value is stored in a state vector.
type slotKind uint8

const (
	slotU8  slotKind = iota // byte, mtype, message bit and bool fields; 1-byte PCs, counts, atomic token
	slotU16                 // 2-byte PCs, counts, atomic token
	slotI16                 // short
	slotI32                 // int; a PC past 65,535 nodes
	slotBit                 // bit and bool variables: one bit of a packed byte
)

// slot is where one value lives in a state vector: a byte offset, how
// it is stored, and, for slotBit, the bit within the byte. Multi-byte
// values are little-endian.
type slot struct {
	off  int32
	kind slotKind
	bit  uint8
}

// get reads the slot's value from vector v.
func (sl slot) get(v []byte) int64 {
	switch sl.kind {
	case slotU8:
		return int64(v[sl.off])
	case slotBit:
		return int64(v[sl.off] >> sl.bit & 1)
	case slotU16:
		return int64(binary.LittleEndian.Uint16(v[sl.off:]))
	case slotI16:
		return int64(int16(binary.LittleEndian.Uint16(v[sl.off:])))
	default:
		return int64(int32(binary.LittleEndian.Uint32(v[sl.off:])))
	}
}

// set writes x, which already fits the slot, into vector v.
func (sl slot) set(v []byte, x int64) {
	switch sl.kind {
	case slotU8:
		v[sl.off] = byte(x)
	case slotBit:
		v[sl.off] = v[sl.off]&^(1<<sl.bit) | byte(x&1)<<sl.bit
	case slotU16, slotI16:
		binary.LittleEndian.PutUint16(v[sl.off:], uint16(x))
	default:
		binary.LittleEndian.PutUint32(v[sl.off:], uint32(x))
	}
}

// at returns the slot moved by d bytes.
func (sl slot) at(d int) slot {
	sl.off += int32(d)
	return sl
}

// chanLayout is one channel's region of the vector: a message count,
// then cap message slots of width bytes each, message i's fields at
// data + i*width + fields[k].off. A rendezvous channel has no region.
type chanLayout struct {
	count  slot
	data   int
	width  int
	cap    int
	fields []slot // relative to a message's first byte
}

// len returns the number of messages the channel holds in v.
func (c *chanLayout) len(v []byte) int {
	if c.cap == 0 {
		return 0
	}
	return int(c.count.get(v))
}

// msg reads message i's fields into out, which has one element a field.
func (c *chanLayout) msg(v []byte, i int, out []int64) {
	base := c.data + i*c.width
	for k, f := range c.fields {
		out[k] = f.at(base).get(v)
	}
}

// put writes msg into message slot i.
func (c *chanLayout) put(v []byte, i int, msg []int64) {
	base := c.data + i*c.width
	for k, f := range c.fields {
		f.at(base).set(v, msg[k])
	}
}

// less reports whether msg sorts strictly before message i
// (lexicographically by field).
func (c *chanLayout) less(v []byte, msg []int64, i int) bool {
	base := c.data + i*c.width
	for k, f := range c.fields {
		if x := f.at(base).get(v); msg[k] != x {
			return msg[k] < x
		}
	}
	return false
}

// send appends msg to the n messages the channel holds in v, or, when
// sorted, inserts it before the first message that sorts strictly
// after it (Spin's sorted send: equal messages keep their order).
func (c *chanLayout) send(v []byte, n int, msg []int64, sorted bool) {
	pos := n
	if sorted {
		for i := 0; i < n; i++ {
			if c.less(v, msg, i) {
				pos = i
				break
			}
		}
		at := c.data + pos*c.width
		copy(v[at+c.width:c.data+(n+1)*c.width], v[at:c.data+n*c.width])
	}
	c.put(v, pos, msg)
	c.count.set(v, int64(n+1))
}

// remove deletes message i of the n the channel holds in v and zeroes
// the slot it frees, so the vector stays canonical.
func (c *chanLayout) remove(v []byte, i, n int) {
	end := c.data + n*c.width
	copy(v[c.data+i*c.width:end], v[c.data+(i+1)*c.width:end])
	clear(v[end-c.width : end])
	c.count.set(v, int64(n-1))
}

// layout is the shape of every state vector of one System, in order:
// the atomic token (holder+1, 0 for none), each process's PC, the
// globals, each process's locals, each channel. A variable takes the
// width of its declared type — byte and mtype 1 byte unsigned, short 2
// and int 4 signed — and bit and bool variables are packed 8 to a byte
// at the end of their section (the globals, or one process's locals).
// Every store truncates to the declared type, so every value fits its
// slot exactly. The PC of a proctype of more than 256 nodes takes 2
// bytes, the atomic token 2 at 255 or more processes, and a channel's
// count 2 above capacity 255.
//
// ends are the end offsets of the collapse components (see
// components.go): the control units (the atomic token, each PC, the
// globals) grouped by 4, the processes' locals by 2 and the channels by
// 8, empty ranges left out.
type layout struct {
	size    int
	atomic  slot
	pcs     []slot
	globals []slot
	locals  [][]slot
	chans   []chanLayout
	ends    []int
}

// layout returns the system's state layout, building it after a Spawn
// or AddChannel cleared it. Concurrent searches may each build it; the
// builds are equal.
func (s *System) layout() *layout {
	if l := s.lay.Load(); l != nil {
		return l
	}
	l := &layout{}
	unsigned := func(max int) slot {
		sl := slot{off: int32(l.size), kind: slotU8}
		switch {
		case max <= 0xff:
			l.size++
		case max <= 0xffff:
			sl.kind = slotU16
			l.size += 2
		default:
			sl.kind = slotI32
			l.size += 4
		}
		return sl
	}
	var ctrl []int // end of each control unit
	if len(s.insts) < 255 {
		l.atomic = unsigned(0xff)
	} else {
		l.atomic = unsigned(0xffff)
	}
	ctrl = append(ctrl, l.size)
	for _, inst := range s.insts {
		l.pcs = append(l.pcs, unsigned(len(inst.Proc.Nodes)-1))
		ctrl = append(ctrl, l.size)
	}
	l.globals = l.section(s.Prog.GlobalVars)
	ctrl = append(ctrl, l.size)
	var locs []int
	for _, inst := range s.insts {
		l.locals = append(l.locals, l.section(inst.Proc.IntVars))
		locs = append(locs, l.size)
	}
	var chans []int
	for _, sh := range s.shapes {
		c := chanLayout{cap: sh.cap}
		if sh.cap > 0 {
			c.count = unsigned(sh.cap)
			for _, t := range sh.fields {
				kind, w := typeSlot(t)
				c.fields = append(c.fields, slot{off: int32(c.width), kind: kind})
				c.width += w
			}
			c.data = l.size
			l.size += sh.cap * c.width
		}
		l.chans = append(l.chans, c)
		chans = append(chans, l.size)
	}
	for _, g := range []struct {
		ends []int
		n    int
	}{{ctrl, ctrlGroup}, {locs, localGroup}, {chans, chanGroup}} {
		for i := range g.ends {
			if (i+1)%g.n == 0 || i == len(g.ends)-1 {
				if e := g.ends[i]; len(l.ends) == 0 || e > l.ends[len(l.ends)-1] {
					l.ends = append(l.ends, e)
				}
			}
		}
	}
	s.lay.Store(l)
	return l
}

// section lays out vars at the end of the vector: every non-bit
// variable in order, then the bit and bool variables, 8 to a byte.
func (l *layout) section(vars []pml.VarInfo) []slot {
	slots := make([]slot, len(vars))
	bits := 0
	for i, v := range vars {
		if v.Type == pml.TypeBit || v.Type == pml.TypeBool {
			bits++
			continue
		}
		kind, w := typeSlot(v.Type)
		slots[i] = slot{off: int32(l.size), kind: kind}
		l.size += w
	}
	b := 0
	for i, v := range vars {
		if v.Type == pml.TypeBit || v.Type == pml.TypeBool {
			slots[i] = slot{off: int32(l.size + b/8), kind: slotBit, bit: uint8(b % 8)}
			b++
		}
	}
	l.size += (bits + 7) / 8
	return slots
}

// typeSlot is how a value of type t is stored outside a bit section,
// and its width in bytes.
func typeSlot(t pml.Type) (slotKind, int) {
	switch t {
	case pml.TypeBit, pml.TypeBool, pml.TypeByte, pml.TypeMtype:
		return slotU8, 1
	case pml.TypeShort:
		return slotI16, 2
	default: // int
		return slotI32, 4
	}
}

// pc returns process p's program counter.
func (st *State) pc(p int) int32 {
	return int32(st.l.pcs[p].get(st.v))
}

// setPC moves process p to node pc; st is a fresh clone.
func (st *State) setPC(p, pc int) {
	st.l.pcs[p].set(st.v, int64(pc))
}

// holder returns the process holding atomic control, or -1.
func (st *State) holder() int32 {
	return int32(st.l.atomic.get(st.v)) - 1
}

// setHolder gives atomic control to process h, or to none for -1; st is
// a fresh clone.
func (st *State) setHolder(h int) {
	st.l.atomic.set(st.v, int64(h)+1)
}

// PC returns process p's program counter in st: the index of its
// current node in its proctype's Nodes.
func (s *System) PC(st *State, p int) int {
	return int(st.pc(p))
}

// AtomicHolder returns the process holding atomic control in st, or -1.
func (s *System) AtomicHolder(st *State) int {
	return int(st.holder())
}

// Global returns the value of global variable i (an index into
// Prog.GlobalVars) in st.
func (s *System) Global(st *State, i int) int64 {
	return st.l.globals[i].get(st.v)
}

// Local returns the value of local variable i (an index into the
// proctype's IntVars) of process p in st.
func (s *System) Local(st *State, p, i int) int64 {
	return st.l.locals[p][i].get(st.v)
}

// Messages returns the messages channel id holds in st, oldest first,
// one slice of field values each.
func (s *System) Messages(st *State, id ChanID) [][]int64 {
	c := &st.l.chans[id]
	out := make([][]int64, c.len(st.v))
	for i := range out {
		out[i] = make([]int64, len(c.fields))
		c.msg(st.v, i, out[i])
	}
	return out
}
