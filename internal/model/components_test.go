package model

import (
	"bytes"
	"testing"
)

const componentsSrc = `
byte x;
byte y;
chan c = [2] of { byte, byte };
chan d = [1] of { byte };
active proctype P() {
	byte i;
	do
	:: i < 3 -> c!i,i; i = i + 1
	:: else -> break
	od
}
active proctype Q() {
	byte a; byte b;
	do
	:: c?a,b -> x = a; d!b
	:: x >= 2 -> break
	od
}
active proctype R() {
	byte v;
	do
	:: d?v -> y = v
	:: y >= 2 -> break
	od
}`

// collectStates walks a few BFS levels and returns a mixed bag of
// reachable states to exercise encodings with non-empty channels and
// varied locals.
func collectStates(t *testing.T, s *System, max int) []*State {
	t.Helper()
	seen := map[string]bool{}
	frontier := []*State{s.InitialState()}
	var out []*State
	for len(frontier) > 0 && len(out) < max {
		var next []*State
		for _, st := range frontier {
			if seen[st.Key()] {
				continue
			}
			seen[st.Key()] = true
			out = append(out, st)
			if len(out) >= max {
				break
			}
			for _, tr := range s.Successors(st) {
				if tr.Violation == "" {
					next = append(next, tr.Next)
				}
			}
		}
		frontier = next
	}
	return out
}

// Hash64Writer streams the same hash Hash64 computes in one call.
func TestHash64WriterMatchesHash64(t *testing.T) {
	var w Hash64Writer
	w.Write([]byte("pnp"))
	if w.Sum64() != Hash64([]byte("pnp")) {
		t.Fatalf("Hash64Writer diverges from Hash64")
	}
	w2 := &Hash64Writer{}
	w2.Write([]byte("pn"))
	w2.Write([]byte("p"))
	if w2.Sum64() != w.Sum64() {
		t.Fatalf("Hash64Writer is not streaming-consistent")
	}
}

// AppendComponentKeys must concatenate to exactly the AppendKey bytes
// (so hashing the whole buffer still equals Hash64(AppendKey)) with
// monotonically increasing section ends covering the whole encoding,
// and ComponentEnds must recompute the same split from the bare bytes.
func TestAppendComponentKeysMatchesAppendKey(t *testing.T) {
	s := mustSystem(t, componentsSrc)
	shape := s.InitialState()
	for _, st := range collectStates(t, s, 200) {
		enc, ends := st.AppendComponentKeys(nil, nil)
		if !bytes.Equal(enc, st.AppendKey(nil)) {
			t.Fatalf("component encoding differs from AppendKey for %q", st.Key())
		}
		if len(ends) != st.NumComponents() {
			t.Fatalf("got %d sections, want %d", len(ends), st.NumComponents())
		}
		prev := 0
		for _, e := range ends {
			if e < prev || e > len(enc) {
				t.Fatalf("bad section end %d (prev %d, len %d)", e, prev, len(enc))
			}
			prev = e
		}
		if ends[len(ends)-1] != len(enc) {
			t.Fatalf("last end %d does not cover encoding of %d bytes", ends[len(ends)-1], len(enc))
		}
		re, err := ComponentEnds(shape, enc, nil)
		if err != nil {
			t.Fatalf("ComponentEnds: %v", err)
		}
		if len(re) != len(ends) {
			t.Fatalf("ComponentEnds returned %d sections, want %d", len(re), len(ends))
		}
		for i := range re {
			if re[i] != ends[i] {
				t.Fatalf("section %d: ComponentEnds %d, AppendComponentKeys %d", i, re[i], ends[i])
			}
		}
	}
}

func TestComponentEndsRejectsGarbage(t *testing.T) {
	s := mustSystem(t, componentsSrc)
	shape := s.InitialState()
	enc, _ := shape.AppendComponentKeys(nil, nil)
	if _, err := ComponentEnds(shape, enc[:len(enc)-1], nil); err == nil {
		t.Fatal("truncated encoding accepted")
	}
	if _, err := ComponentEnds(shape, append(append([]byte{}, enc...), 0), nil); err == nil {
		t.Fatal("encoding with trailing bytes accepted")
	}
}

// Appending into reused buffers must not disturb earlier content.
func TestAppendComponentKeysReusesBuffers(t *testing.T) {
	s := mustSystem(t, componentsSrc)
	sts := collectStates(t, s, 2)
	if len(sts) < 2 {
		t.Fatal("need two states")
	}
	buf, ends := sts[0].AppendComponentKeys(nil, nil)
	buf2, ends2 := sts[1].AppendComponentKeys(buf[:0], ends[:0])
	if !bytes.Equal(buf2, sts[1].AppendKey(nil)) {
		t.Fatal("reused buffer produced wrong encoding")
	}
	if ends2[len(ends2)-1] != len(buf2) {
		t.Fatal("reused ends wrong")
	}
}
