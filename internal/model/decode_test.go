package model

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzDecodeKey feeds DecodeKey the bytes a checkpoint log, possibly
// fetched from a peer, may hold. Decoding plus System.CheckState must
// either reject them or yield a state SuccessorsAppend expands without
// panicking, and a canonical encoding (one the decoded state encodes
// back to) must split under ComponentEnds exactly as
// AppendComponentKeys splits it. The seed corpus in testdata holds
// reachable encodings of componentsSrc.
func FuzzDecodeKey(f *testing.F) {
	s := mustSystem(f, componentsSrc)
	shape := s.InitialState()
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeKey(shape, data)
		if err != nil || s.CheckState(st) != nil {
			return
		}
		s.SuccessorsAppend(st, &Arena{}, nil)
		enc, ends := st.AppendComponentKeys(nil, nil)
		if !bytes.Equal(enc, data) {
			return
		}
		got, err := ComponentEnds(shape, data, nil)
		if err != nil || !slices.Equal(got, ends) {
			t.Fatalf("ComponentEnds = %v, %v; AppendComponentKeys ends %v", got, err, ends)
		}
	})
}

// Every reachable state passes CheckState.
func TestCheckStateAcceptsReachable(t *testing.T) {
	s := mustSystem(t, componentsSrc)
	for _, st := range collectStates(t, s, 200) {
		if err := s.CheckState(st); err != nil {
			t.Fatalf("reachable state %x rejected: %v", st.AppendKey(nil), err)
		}
	}
}
