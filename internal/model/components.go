package model

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// The collapse-compressed visited set stores a state as a tuple of
// indices into side tables of component sub-vectors, Spin's -DCOLLAPSE
// idea: most states differ from an already-stored neighbor in one
// component, so each sub-vector is interned once and the tuple costs a
// few bytes. The component split of the canonical encoding is defined
// here so the encoder (AppendComponentKeys) and the re-splitter for
// already-encoded states (ComponentEnds) cannot drift apart.
//
// The encoding is cut at its natural unit boundaries — Atomic, each PC,
// the global vector, each process's locals, each channel's contents —
// and consecutive units are grouped into sections. Grouping is what
// makes the tuple small: a per-channel section for an empty channel is
// one byte, so an index referencing it costs as much as the data, and
// at the other extreme one section holding every PC is nearly unique
// per state, so its side table grows as fast as the exact store. The
// group sizes below balance the two failure modes:
//
//	control units (Atomic, PC0..PCn, Globals)  grouped by 4
//	per-process Locals                         grouped by 2
//	per-channel contents                       grouped by 8
//
// Section boundaries depend only on the system's shape (process and
// channel counts), never on a state's contents, so every state of one
// system splits at the same unit positions. Concatenating the sections
// in order yields exactly the AppendKey encoding, so Hash64 over the
// whole buffer still equals Fingerprint.
const (
	ctrlGroup  = 4
	localGroup = 2
	chanGroup  = 8
)

// NumComponents returns the number of sections AppendComponentKeys
// emits for states of this state's system.
func (st *State) NumComponents() int {
	ceil := func(n, g int) int { return (n + g - 1) / g }
	return ceil(2+len(st.PCs), ctrlGroup) + ceil(len(st.Locals), localGroup) + ceil(len(st.Chans), chanGroup)
}

// AppendComponentKeys appends the state's canonical encoding to buf —
// the same bytes AppendKey produces — and appends the end offset (into
// the returned buffer) of every component section to ends. Hot paths
// reuse both slices across states.
func (st *State) AppendComponentKeys(buf []byte, ends []int) ([]byte, []int) {
	return st.AppendComponentKeysFrom(nil, nil, nil, buf, ends)
}

// AppendComponentKeysFrom is AppendComponentKeys for a state derived
// from parent, whose AppendComponentKeys output is penc with section
// ends pends (offsets into penc). Every section the step from parent
// left unchanged is copied from penc instead of re-encoded; the output
// bytes and ends are identical to AppendComponentKeys'. A section is
// unchanged when its Atomic, PCs and Globals are equal to the parent's
// and each of its Locals/Chans slices is the parent's very slice (same
// backing array and length). That identity test is sound because no
// inner slice is ever written in place (see State), and a false
// "changed" only costs a re-encode, so any parent of the same system is
// correct; a nil parent, or one of another shape, encodes everything.
func (st *State) AppendComponentKeysFrom(parent *State, penc []byte, pends []int, buf []byte, ends []int) ([]byte, []int) {
	if parent != nil && !st.sameShape(parent, penc, pends) {
		parent = nil
	}
	w := sectionWriter{buf: buf, ends: ends, penc: penc, pends: pends, run: -1}
	nctrl := 2 + len(st.PCs) // Atomic, each PC, the global vector
	for u0 := 0; u0 < nctrl; u0 += ctrlGroup {
		u1 := min(u0+ctrlGroup, nctrl)
		if parent != nil && st.sameCtrl(parent, u0, u1) {
			w.copy()
			continue
		}
		w.flush()
		for u := u0; u < u1; u++ {
			switch {
			case u == 0:
				w.buf = binary.AppendVarint(w.buf, int64(st.Atomic))
			case u <= len(st.PCs):
				w.buf = binary.AppendVarint(w.buf, int64(st.PCs[u-1]))
			default:
				for _, g := range st.Globals {
					w.buf = binary.AppendVarint(w.buf, g)
				}
			}
		}
		w.end()
	}
	var pl, pc [][]int64
	if parent != nil {
		pl, pc = parent.Locals, parent.Chans
	}
	w.slices(st.Locals, pl, localGroup)
	w.slices(st.Chans, pc, chanGroup)
	w.flush()
	return w.buf, w.ends
}

// sameShape reports whether parent and its encoding can seed st's: the
// same outer arities, and one section end per section, the last at the
// end of penc.
func (st *State) sameShape(parent *State, penc []byte, pends []int) bool {
	return len(parent.PCs) == len(st.PCs) && len(parent.Globals) == len(st.Globals) &&
		len(parent.Locals) == len(st.Locals) && len(parent.Chans) == len(st.Chans) &&
		len(pends) == st.NumComponents() && pends[len(pends)-1] == len(penc)
}

// sameCtrl reports whether control units [u0, u1) — unit 0 is Atomic,
// unit i in 1..len(PCs) is PCs[i-1], the last is the global vector —
// equal parent's.
func (st *State) sameCtrl(parent *State, u0, u1 int) bool {
	for u := u0; u < u1; u++ {
		switch {
		case u == 0:
			if st.Atomic != parent.Atomic {
				return false
			}
		case u <= len(st.PCs):
			if st.PCs[u-1] != parent.PCs[u-1] {
				return false
			}
		default:
			for i, g := range st.Globals {
				if g != parent.Globals[i] {
					return false
				}
			}
		}
	}
	return true
}

// sameSlices reports whether every a[i] is b[i]'s very slice: the same
// backing array and length, or both empty.
func sameSlices(a, b [][]int64) bool {
	for i := range a {
		if len(a[i]) != len(b[i]) || len(a[i]) > 0 && unsafe.SliceData(a[i]) != unsafe.SliceData(b[i]) {
			return false
		}
	}
	return true
}

// sectionWriter emits one encoding section by section. Runs of sections
// copied from the parent encoding are coalesced into one append.
type sectionWriter struct {
	buf   []byte
	ends  []int
	penc  []byte
	pends []int
	sec   int // index of the next section
	run   int // first section of the pending copied run, -1 for none
}

// copy takes the next section from the parent encoding.
func (w *sectionWriter) copy() {
	if w.run < 0 {
		w.run = w.sec
	}
	w.sec++
}

// end closes a freshly encoded section.
func (w *sectionWriter) end() {
	w.ends = append(w.ends, len(w.buf))
	w.sec++
}

// flush appends the pending copied run of parent sections; a section
// the caller encodes itself starts with one.
func (w *sectionWriter) flush() {
	if w.run < 0 {
		return
	}
	lo := 0
	if w.run > 0 {
		lo = w.pends[w.run-1]
	}
	shift := len(w.buf) - lo
	w.buf = append(w.buf, w.penc[lo:w.pends[w.sec-1]]...)
	for _, e := range w.pends[w.run:w.sec] {
		w.ends = append(w.ends, e+shift)
	}
	w.run = -1
}

// slices emits cur, length-prefixed slice by slice, in sections of
// group slices; a section whose slices are all par's is copied.
func (w *sectionWriter) slices(cur, par [][]int64, group int) {
	for i0 := 0; i0 < len(cur); i0 += group {
		i1 := min(i0+group, len(cur))
		if par != nil && sameSlices(cur[i0:i1], par[i0:i1]) {
			w.copy()
			continue
		}
		w.flush()
		for _, s := range cur[i0:i1] {
			w.buf = binary.AppendVarint(w.buf, int64(len(s)))
			for _, v := range s {
				w.buf = binary.AppendVarint(w.buf, v)
			}
		}
		w.end()
	}
}

// ComponentEnds recomputes the section end offsets of an
// already-encoded state — the ends AppendComponentKeys would have
// emitted alongside enc. As with DecodeKey, the outer arities come from
// shape (any state of the same system). Callers that built enc
// themselves get the ends for free from AppendComponentKeys; this is
// the path for encodings read back from checkpoints.
func ComponentEnds(shape *State, enc []byte, ends []int) ([]int, error) {
	d := keyDecoder{buf: enc}
	skip := func(n int) {
		for i := 0; i < n; i++ {
			d.varint()
		}
	}
	run := 0
	mark := func(group int) {
		if run++; run == group {
			ends = append(ends, len(enc)-len(d.buf))
			run = 0
		}
	}
	flush := func() {
		if run > 0 {
			ends = append(ends, len(enc)-len(d.buf))
			run = 0
		}
	}
	skip(1)
	mark(ctrlGroup)
	for range shape.PCs {
		skip(1)
		mark(ctrlGroup)
	}
	skip(len(shape.Globals))
	mark(ctrlGroup)
	flush()
	for range shape.Locals {
		skip(int(d.varint()))
		mark(localGroup)
	}
	flush()
	for range shape.Chans {
		skip(int(d.varint()))
		mark(chanGroup)
	}
	flush()
	if d.err != nil {
		return nil, fmt.Errorf("model: component ends: %w", d.err)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("model: component ends: %d trailing bytes", len(d.buf))
	}
	return ends, nil
}
