package model

import (
	"bytes"
	"fmt"
)

// DecodeKey reconstructs a State from its canonical encoding — the
// exact bytes AppendKey produces — given shape, any state of the same
// system (typically System.InitialState()). A state is its own
// encoding, so decoding is a length check and a copy.
//
// DecodeKey is the read side of every store of encodings: a resumed
// checkpoint rebuilds its frontier states through it, and the liveness
// product, through Arena.Decode, rebuilds from its state table every
// state it expands or draws. Bytes of the right length are not
// necessarily a state of the system: a decoded state from outside the
// process must pass System.CheckState before anything expands it.
func DecodeKey(shape *State, enc []byte) (*State, error) {
	return (*Arena)(nil).Decode(shape, enc)
}

// CheckState reports whether st is a state of s in canonical form, so
// that it can be expanded: the vector has the system's length, every
// PC names a node of its process, the atomic token names a process or
// none, every channel count is within its capacity, and re-packing
// every value — truncated to its declared type — into a zeroed vector
// gives st's bytes back. That last rule rejects non-zero padding bits
// and bytes past a channel's count. SuccessorsAppend indexes by these
// values, so a state read from a checkpoint or a peer is checked here
// first.
func (s *System) CheckState(st *State) error {
	l := s.layout()
	if st.l != l || len(st.v) != l.size {
		return fmt.Errorf("model: state of %d bytes is not laid out for this system", len(st.v))
	}
	if h := st.holder(); h < -1 || int(h) >= len(s.insts) {
		return fmt.Errorf("model: atomic holder %d out of range", h)
	}
	for i, inst := range s.insts {
		if pc := st.pc(i); int(pc) >= len(inst.Proc.Nodes) {
			return fmt.Errorf("model: %s: pc %d out of range", inst.Name, pc)
		}
	}
	for id := range l.chans {
		if c := &l.chans[id]; c.cap > 0 && c.len(st.v) > c.cap {
			return fmt.Errorf("model: channel %s: %d messages exceed capacity %d", s.shapes[id].name, c.len(st.v), c.cap)
		}
	}
	if !bytes.Equal(s.repack(st), st.v) {
		return fmt.Errorf("model: state is not in canonical form")
	}
	return nil
}

// repack writes every value of st, truncated to its declared type, into
// a zeroed vector.
func (s *System) repack(st *State) []byte {
	l := s.layout()
	v := make([]byte, l.size)
	copySlot := func(sl slot) { sl.set(v, sl.get(st.v)) }
	copySlot(l.atomic)
	for _, sl := range l.pcs {
		copySlot(sl)
	}
	for i, sl := range l.globals {
		sl.set(v, s.Prog.GlobalVars[i].Type.Truncate(sl.get(st.v)))
	}
	for p, inst := range s.insts {
		for i, sl := range l.locals[p] {
			sl.set(v, inst.Proc.IntVars[i].Type.Truncate(sl.get(st.v)))
		}
	}
	for id := range l.chans {
		c := &l.chans[id]
		if c.cap == 0 {
			continue
		}
		n := c.len(st.v)
		copySlot(c.count)
		msg := make([]int64, len(c.fields))
		for i := 0; i < n; i++ {
			c.msg(st.v, i, msg)
			for k, t := range s.shapes[id].fields {
				msg[k] = t.Truncate(msg[k])
			}
			c.put(v, i, msg)
		}
	}
	return v
}
