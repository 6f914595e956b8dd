package model

import (
	"encoding/binary"
	"fmt"
)

// DecodeKey reconstructs a State from its canonical encoding — the exact
// bytes AppendKey produces. The encoding is injective but not fully
// self-describing: the outer arities (process count, globals count,
// locals and channel slice counts) are fixed per system, so they are
// taken from shape — any state of the same system, typically
// System.InitialState(). Inner slice lengths are length-prefixed in the
// encoding itself.
//
// DecodeKey is the read side of every store of encodings: a resumed
// checkpoint rebuilds its frontier states through it, and the liveness
// product rebuilds the states its counterexamples and DOT drawings need
// from its state table. The round trip is exact — st2 :=
// DecodeKey(shape, st.AppendKey(nil)) encodes to the same bytes as st.
//
// Well-formed bytes are not necessarily a state of the system: a
// decoded state from outside the process must pass System.CheckState
// before anything expands it.
func DecodeKey(shape *State, enc []byte) (*State, error) {
	d := keyDecoder{buf: enc}
	st := &State{
		PCs:     make([]int32, len(shape.PCs)),
		Locals:  make([][]int64, len(shape.Locals)),
		Globals: make([]int64, len(shape.Globals)),
		Chans:   make([][]int64, len(shape.Chans)),
	}
	st.Atomic = d.int32()
	for i := range st.PCs {
		st.PCs[i] = d.int32()
	}
	for i := range st.Globals {
		st.Globals[i] = d.varint()
	}
	for i := range st.Locals {
		st.Locals[i] = d.slice()
	}
	for i := range st.Chans {
		st.Chans[i] = d.slice()
	}
	if d.err != nil {
		return nil, fmt.Errorf("model: decode state key: %w", d.err)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("model: decode state key: %d trailing bytes", len(d.buf))
	}
	return st, nil
}

type keyDecoder struct {
	buf []byte
	err error
}

func (d *keyDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("truncated varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *keyDecoder) int32() int32 {
	v := d.varint()
	if v != int64(int32(v)) && d.err == nil {
		d.err = fmt.Errorf("value %d out of int32 range", v)
	}
	return int32(v)
}

func (d *keyDecoder) slice() []int64 {
	n := d.varint()
	if d.err != nil {
		return nil
	}
	if n < 0 || n > int64(len(d.buf)) {
		d.err = fmt.Errorf("bad slice length %d", n)
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.varint()
	}
	return out
}

// CheckState reports whether st is shaped like a state of s and can be
// expanded: every PC names a node of its process, Atomic names a process
// or is -1, every process holds its proctype's locals, and every channel
// holds whole messages within its capacity. DecodeKey accepts any
// well-formed bytes, and SuccessorsAppend indexes by these values, so a
// state read from a checkpoint or a peer is checked here first.
func (s *System) CheckState(st *State) error {
	if len(st.PCs) != len(s.insts) || len(st.Locals) != len(s.insts) ||
		len(st.Globals) != len(s.Prog.GlobalVars) || len(st.Chans) != len(s.shapes) {
		return fmt.Errorf("model: state shape does not match the system")
	}
	if st.Atomic < -1 || int(st.Atomic) >= len(s.insts) {
		return fmt.Errorf("model: atomic holder %d out of range", st.Atomic)
	}
	for i, inst := range s.insts {
		if pc := st.PCs[i]; pc < 0 || int(pc) >= len(inst.Proc.Nodes) {
			return fmt.Errorf("model: %s: pc %d out of range", inst.Name, pc)
		}
		if n := len(st.Locals[i]); n != len(inst.initLocals) {
			return fmt.Errorf("model: %s: %d locals, want %d", inst.Name, n, len(inst.initLocals))
		}
	}
	for id, sh := range s.shapes {
		n, w := len(st.Chans[id]), len(sh.fields)
		if w == 0 && n != 0 || w > 0 && (n%w != 0 || n > sh.cap*w) {
			return fmt.Errorf("model: channel %s: %d values do not fit %d messages of width %d", sh.name, n, sh.cap, w)
		}
	}
	return nil
}
