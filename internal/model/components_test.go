package model

import (
	"bytes"
	"slices"
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

// AppendComponentKeys must return exactly the AppendKey bytes (so
// hashing the whole buffer still equals Hash64(AppendKey)) with strictly
// increasing component ends covering the whole encoding, and the ends
// are fixed byte ranges: the same for every state of the system.
func TestAppendComponentKeysMatchesAppendKey(t *testing.T) {
	s := mustSystem(t, componentsSrc)
	_, want := s.InitialState().AppendComponentKeys(nil, nil)
	for _, st := range collectStates(t, s, 200) {
		enc, ends := st.AppendComponentKeys(nil, nil)
		if !bytes.Equal(enc, st.AppendKey(nil)) {
			t.Fatalf("component encoding differs from AppendKey for %x", st.Key())
		}
		if len(ends) != st.NumComponents() {
			t.Fatalf("got %d sections, want %d", len(ends), st.NumComponents())
		}
		prev := 0
		for _, e := range ends {
			if e <= prev || e > len(enc) {
				t.Fatalf("bad section end %d (prev %d, len %d)", e, prev, len(enc))
			}
			prev = e
		}
		if ends[len(ends)-1] != len(enc) {
			t.Fatalf("last end %d does not cover encoding of %d bytes", ends[len(ends)-1], len(enc))
		}
		if !slices.Equal(ends, want) {
			t.Fatalf("ends %v, initial state's %v", ends, want)
		}
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
	// Appending after a prefix shifts every end by the prefix.
	buf3, ends3 := sts[1].AppendComponentKeys([]byte("prefix"), nil)
	if !bytes.Equal(buf3[6:], buf2) || len(ends3) != len(ends2) || ends3[0] != ends2[0]+6 {
		t.Fatalf("appending after a prefix: ends %v, want %v shifted by 6", ends3, ends2)
	}
}
