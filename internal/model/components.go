package model

// The collapse-compressed visited set stores a state as a tuple of
// indices into side tables of component sub-vectors, Spin's -DCOLLAPSE
// idea: most states differ from an already-stored neighbor in one
// component, so each sub-vector is interned once and the tuple costs a
// few bytes. The components are fixed byte ranges of the state vector
// (layout.ends), so every state of one system splits at the same
// offsets.
//
// Grouping is what makes the tuple small: a per-channel component for
// an empty channel is one byte, so an index referencing it costs as
// much as the data, and at the other extreme one component holding
// every PC is nearly unique per state, so its side table grows as fast
// as the exact store. The group sizes balance the two failure modes:
//
//	control units (atomic token, PC0..PCn, globals)  grouped by 4
//	per-process locals                               grouped by 2
//	per-channel contents                             grouped by 8
const (
	ctrlGroup  = 4
	localGroup = 2
	chanGroup  = 8
)

// NumComponents returns the number of components AppendComponentKeys
// splits states of this state's system into.
func (st *State) NumComponents() int {
	return len(st.l.ends)
}

// AppendComponentKeys appends the state's canonical encoding to buf —
// the same bytes AppendKey produces — and appends the end offset (into
// the returned buffer) of every component to ends. Hot paths reuse
// both slices across states.
func (st *State) AppendComponentKeys(buf []byte, ends []int) ([]byte, []int) {
	base := len(buf)
	for _, e := range st.l.ends {
		ends = append(ends, base+e)
	}
	return append(buf, st.v...), ends
}
