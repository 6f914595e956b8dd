package model

import (
	"bytes"
	"testing"
)

// FuzzDecodeKey feeds DecodeKey the bytes a checkpoint log, possibly
// fetched from a peer, may hold, as a state of componentsSrc or of
// typesSrc (whichever vector length it has). Whatever DecodeKey plus
// System.CheckState accept must re-pack to itself, hold only values
// equal to their Truncate, and expand without a panic. The seed corpus
// in testdata holds reachable vectors of both programs.
func FuzzDecodeKey(f *testing.F) {
	systems := []*System{mustSystem(f, componentsSrc), mustSystem(f, typesSrc)}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range systems {
			st, err := DecodeKey(s.InitialState(), data)
			if err != nil || s.CheckState(st) != nil {
				continue
			}
			if re := s.repack(st); !bytes.Equal(re, data) {
				t.Fatalf("accepted %x re-packs to %x", data, re)
			}
			checkTruncated(t, s, st)
			s.SuccessorsAppend(st, &Arena{}, nil)
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

// DecodeKey accepts exactly the vector's length and copies the bytes.
func TestDecodeKeyChecksLength(t *testing.T) {
	s := mustSystem(t, componentsSrc)
	shape := s.InitialState()
	enc := shape.AppendKey(nil)
	for _, bad := range [][]byte{nil, enc[:len(enc)-1], append(shape.AppendKey(nil), 0)} {
		if _, err := DecodeKey(shape, bad); err == nil {
			t.Errorf("%d bytes decoded as a state of %d", len(bad), len(enc))
		}
	}
	st, err := DecodeKey(shape, enc)
	if err != nil || st.Key() != shape.Key() {
		t.Fatalf("round trip: %x, %v", st.Key(), err)
	}
	enc[0] ^= 1
	if st.Key() != shape.Key() {
		t.Fatal("the decoded state aliases its input")
	}
}

// Arena.Decode returns DecodeKey's bytes, with its length check, and
// with a recycled state to reuse it allocates nothing.
func TestArenaDecodeReusesStorage(t *testing.T) {
	s := mustSystem(t, componentsSrc)
	shape := s.InitialState()
	a := &Arena{}
	for _, st := range collectStates(t, s, 50) {
		enc := st.AppendKey(nil)
		want, err := DecodeKey(shape, enc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Decode(shape, enc)
		if err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("Decode = %x, %v; DecodeKey = %x", got.Bytes(), err, want.Bytes())
		}
		a.Recycle(got)
	}
	if _, err := a.Decode(shape, shape.AppendKey(nil)[1:]); err == nil {
		t.Error("a short vector decoded")
	}
	enc := shape.AppendKey(nil)
	if allocs := testing.AllocsPerRun(100, func() { a.Recycle(must(a.Decode(shape, enc))) }); allocs != 0 {
		t.Errorf("Decode with a recycled state: %.0f allocations, want 0", allocs)
	}
}

func must(st *State, err error) *State {
	if err != nil {
		panic(err)
	}
	return st
}
