package model

import "encoding/binary"

// State is one global state of the system: program counters and local
// stores of every process, global variables, channel contents, and the
// identity of the process holding atomic control (-1 for none).
//
// States are immutable once created, and successors are copy-on-write:
// a successor owns its PCs, Globals and the outer Locals/Chans arrays,
// but shares every inner slice (one process's locals, one channel's
// contents) with its parent until a transition writes it. A writer
// replaces the one inner slice it changes with a fresh copy; no inner
// slice is ever written in place or appended into, because siblings,
// the parent and its ancestors may all be reading the same array.
type State struct {
	PCs     []int32
	Locals  [][]int64
	Globals []int64
	Chans   [][]int64 // flattened messages, width = len(channel fields)
	Atomic  int32
}

// clone copies the state's own arrays and shares its inner slices (see
// State). A non-nil arena recycles the outer arrays of previously
// discarded states.
func (st *State) clone(a *Arena) *State {
	n := a.take()
	n.PCs = append(n.PCs[:0], st.PCs...)
	n.Globals = append(n.Globals[:0], st.Globals...)
	n.Locals = append(n.Locals[:0], st.Locals...)
	n.Chans = append(n.Chans[:0], st.Chans...)
	n.Atomic = st.Atomic
	return n
}

// Arena recycles successor-generation scratch for one explorer (a level
// engine worker, or the liveness product's build): states discarded as
// duplicates, or retired once nothing reads them, hand back their State
// and outer arrays, so the next clone allocates none of them. Inner
// slices are never reused: other states may share them. An Arena must
// not be shared between goroutines; a nil *Arena disables recycling
// (every clone allocates fresh storage).
type Arena struct {
	free []*State
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

// Key returns the state's canonical encoding (AppendKey's bytes) as a
// string, usable as a map key. The encoding is injective: slice
// boundaries are length-prefixed. Searches store encodings, not Key
// strings; Key serves tests and tools that keep a map of states.
func (st *State) Key() string {
	return string(st.AppendKey(nil))
}

// AppendKey appends the state's canonical encoding (the same bytes Key
// returns) to buf and returns the extended slice. Hot paths reuse buf
// across states so duplicate-detection never materializes a string.
func (st *State) AppendKey(buf []byte) []byte {
	if cap(buf)-len(buf) < 16+8*len(st.PCs)+8*len(st.Globals) {
		grown := make([]byte, len(buf), len(buf)+16+8*len(st.PCs)+8*len(st.Globals))
		copy(grown, buf)
		buf = grown
	}
	var tmp [binary.MaxVarintLen64]byte
	put := func(v int64) {
		n := binary.PutVarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	put(int64(st.Atomic))
	for _, pc := range st.PCs {
		put(int64(pc))
	}
	for _, g := range st.Globals {
		put(g)
	}
	for _, l := range st.Locals {
		put(int64(len(l)))
		for _, v := range l {
			put(v)
		}
	}
	for _, c := range st.Chans {
		put(int64(len(c)))
		for _, v := range c {
			put(v)
		}
	}
	return buf
}
