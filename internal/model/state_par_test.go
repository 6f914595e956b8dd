package model

import (
	"sync"
	"testing"
)

// parTestSrc exercises every encoded field: globals, locals, program
// counters, buffered channel contents, and nondeterministic choice.
const parTestSrc = `
byte x;
chan c = [2] of { byte, byte };
active proctype P() {
	byte i;
	do
	:: i < 3 -> c!i,i; i = i + 1
	:: else -> break
	od
}
active proctype Q() {
	byte a, b;
	do
	:: c?a,b -> x = x + a
	:: x >= 3 -> break
	od
}`

// exploreCounts BFS-explores the system, returning how many times each
// state key was generated as a successor. With useArena it drives the
// pooled SuccessorsAppend path and recycles every duplicate.
func exploreCounts(t *testing.T, s *System, useArena bool) map[string]int {
	t.Helper()
	var a *Arena
	if useArena {
		a = &Arena{}
	}
	init := s.InitialState()
	seen := map[string]bool{init.Key(): true}
	counts := map[string]int{}
	queue := []*State{init}
	var trs []Transition
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		if useArena {
			trs = s.SuccessorsAppend(st, a, trs[:0])
		} else {
			trs = s.Successors(st)
		}
		for _, tr := range trs {
			if tr.Violation != "" {
				continue
			}
			k := tr.Next.Key()
			counts[k]++
			if !seen[k] {
				seen[k] = true
				queue = append(queue, tr.Next)
			} else if useArena {
				a.Recycle(tr.Next)
			}
		}
	}
	return counts
}

func TestAppendKeyAndFingerprintMatchKey(t *testing.T) {
	s := mustSystem(t, parTestSrc)
	st := s.InitialState()
	checked := 0
	queue := []*State{st}
	seen := map[string]bool{st.Key(): true}
	for len(queue) > 0 && checked < 200 {
		st, queue = queue[0], queue[1:]
		key := st.Key()
		if got := string(st.AppendKey(nil)); got != key {
			t.Fatalf("AppendKey != Key: %q vs %q", got, key)
		}
		// AppendKey must append, not overwrite.
		buf := st.AppendKey([]byte("prefix-"))
		if string(buf) != "prefix-"+key {
			t.Fatalf("AppendKey did not append to prefix")
		}
		if fp := Hash64([]byte(key)); fp != Hash64(st.Bytes()) {
			t.Fatalf("Hash64(Key) %x != Hash64(Bytes) %x", fp, Hash64(st.Bytes()))
		}
		checked++
		for _, tr := range s.Successors(st) {
			if tr.Violation != "" {
				continue
			}
			if k := tr.Next.Key(); !seen[k] {
				seen[k] = true
				queue = append(queue, tr.Next)
			}
		}
	}
	if checked < 10 {
		t.Fatalf("explored only %d states; model too small for the test", checked)
	}
}

func TestSuccessorsAppendWithArenaMatchesSuccessors(t *testing.T) {
	s := mustSystem(t, parTestSrc)
	base := exploreCounts(t, s, false)
	pooled := exploreCounts(t, mustSystem(t, parTestSrc), true)
	if len(base) != len(pooled) {
		t.Fatalf("state counts differ: %d vs %d", len(base), len(pooled))
	}
	for k, n := range base {
		if pooled[k] != n {
			t.Fatalf("generation count differs for one state: %d vs %d", n, pooled[k])
		}
	}
}

// TestConcurrentStateAccess races Key/AppendKey and per-worker arena
// successor generation over shared states; run under -race it pins
// that reading a state writes nothing.
func TestConcurrentStateAccess(t *testing.T) {
	s := mustSystem(t, parTestSrc)
	// A shared frontier: the initial state plus two generations of
	// successors.
	var shared []*State
	init := s.InitialState()
	shared = append(shared, init)
	for _, tr := range s.Successors(init) {
		if tr.Violation != "" {
			continue
		}
		shared = append(shared, tr.Next)
		for _, tr2 := range s.Successors(tr.Next) {
			if tr2.Violation == "" {
				shared = append(shared, tr2.Next)
			}
		}
	}
	want := make([]string, len(shared))
	for i, st := range shared {
		want[i] = string(st.AppendKey(nil))
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := &Arena{}
			var buf []byte
			var out []Transition
			for iter := 0; iter < 25; iter++ {
				for i, st := range shared {
					if st.Key() != want[i] {
						t.Errorf("racy Key mismatch")
						return
					}
					buf = st.AppendKey(buf[:0])
					if string(buf) != want[i] {
						t.Errorf("racy AppendKey mismatch")
						return
					}
					if Hash64(buf) != Hash64([]byte(want[i])) {
						t.Errorf("racy Hash64 mismatch")
						return
					}
					out = s.SuccessorsAppend(st, a, out[:0])
					for _, tr := range out {
						if tr.Violation == "" {
							a.Recycle(tr.Next) // worker-owned clones
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
