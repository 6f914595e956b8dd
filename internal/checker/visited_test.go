package checker

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"pnp/internal/model"
)

// --- encTable ---

func TestEncTableBasics(t *testing.T) {
	var tab encTable
	n := 5000
	for i := 0; i < n; i++ {
		b := encOf(i)
		fp := model.Hash64(b)
		if tab.lookup(fp, b) {
			t.Fatalf("fresh entry %d present", i)
		}
		if tab.testAndSet(fp, b) {
			t.Fatalf("fresh entry %d reported present on insert", i)
		}
		if !tab.testAndSet(fp, b) {
			t.Fatalf("entry %d lost after insert", i)
		}
	}
	if tab.n != n {
		t.Fatalf("n = %d, want %d", tab.n, n)
	}
	got := 0
	tab.forEach(func(fp uint64, enc []byte) {
		if model.Hash64(enc) != fp {
			t.Fatalf("forEach fp mismatch for %q", enc)
		}
		got++
	})
	if got != n {
		t.Fatalf("forEach visited %d entries, want %d", got, n)
	}
	if tab.bytes() <= 0 {
		t.Fatal("bytes not positive")
	}
	tab.reset()
	if tab.n != 0 || tab.lookup(model.Hash64(encOf(1)), encOf(1)) {
		t.Fatal("reset did not clear table")
	}
}

// Distinct entries whose hashes collide on both the probe slot and the
// 24-bit slot tag must coexist: the table compares bytes on a tag
// match, never trusts the hash alone. The colliding pair is mined from
// real Hash64 values so the encTable contract (fp == Hash64(bytes))
// holds.
func TestEncTableFingerprintCollision(t *testing.T) {
	type key struct{ tag, slot uint64 }
	found := map[key]string{}
	var a, b []byte
	for i := 0; ; i++ {
		s := "entry-" + string(rune('a'+i%26)) + fmt.Sprint(i)
		fp := model.Hash64([]byte(s))
		k := key{fp >> encTagShift, fp & (encTableMinSlots - 1)}
		if prev, ok := found[k]; ok {
			a, b = []byte(prev), []byte(s)
			break
		}
		found[k] = s
	}
	var tab encTable
	if tab.testAndSet(model.Hash64(a), a) || tab.testAndSet(model.Hash64(b), b) {
		t.Fatal("fresh entries reported present")
	}
	if !tab.testAndSet(model.Hash64(a), a) || !tab.testAndSet(model.Hash64(b), b) {
		t.Fatal("colliding entries lost")
	}
	if tab.n != 2 {
		t.Fatalf("n = %d, want 2", tab.n)
	}
}

// --- collapse set ---

func TestCollapseSetMatchesExact(t *testing.T) {
	shape, encs, fps, endss := benchComponentStates(3000)
	exact := newShardedSet(nil)
	coll := newCollapseSet(shape, nil)
	for j := range encs {
		if got, want := coll.seen(fps[j], encs[j], endss[j]), exact.seen(fps[j], encs[j], endss[j]); got != want {
			t.Fatalf("state %d: collapse %v, exact %v", j, got, want)
		}
	}
	for j := range encs {
		if !coll.seen(fps[j], encs[j], endss[j]) {
			t.Fatalf("state %d lost from collapse set", j)
		}
	}
	if coll.size() != exact.size() {
		t.Fatalf("sizes diverge: collapse %d, exact %d", coll.size(), exact.size())
	}
	// The whole point: component-structured states store far smaller.
	if cb, eb := coll.bytes(), exact.bytes(); cb >= eb {
		t.Errorf("collapse bytes %d not smaller than exact %d", cb, eb)
	}
}

// Nil ends (the checkpoint-restore path) must intern identically to
// caller-provided ends.
func TestCollapseSetSelfSplit(t *testing.T) {
	shape, encs, fps, endss := benchComponentStates(500)
	a := newCollapseSet(shape, nil)
	b := newCollapseSet(shape, nil)
	for j := range encs {
		a.seen(fps[j], encs[j], endss[j])
		b.seen(fps[j], encs[j], nil)
	}
	if a.size() != b.size() {
		t.Fatalf("sizes diverge: with ends %d, self-split %d", a.size(), b.size())
	}
	for j := range encs {
		if !b.seen(fps[j], encs[j], endss[j]) {
			t.Fatalf("state %d interned with nil ends not found with ends", j)
		}
		if !a.seen(fps[j], encs[j], nil) {
			t.Fatalf("state %d interned with ends not found with nil ends", j)
		}
	}
}

func TestCollapseSetForEachEncodingRoundTrip(t *testing.T) {
	shape, encs, fps, endss := benchComponentStates(400)
	coll := newCollapseSet(shape, nil)
	for j := range encs {
		coll.seen(fps[j], encs[j], endss[j])
	}
	want := map[string]bool{}
	for _, e := range encs {
		want[string(e)] = true
	}
	got := 0
	coll.forEachEncoding(func(enc []byte) {
		if !want[string(enc)] {
			t.Fatalf("forEachEncoding produced unknown encoding %x", enc)
		}
		got++
	})
	if got != len(encs) {
		t.Fatalf("forEachEncoding yielded %d entries, want %d", got, len(encs))
	}
}

func TestCollapseSetConcurrent(t *testing.T) {
	shape, encs, fps, endss := benchComponentStates(2000)
	coll := newCollapseSet(shape, nil)
	const workers = 8
	var wins [workers]int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range encs {
				if !coll.seen(fps[j], encs[j], endss[j]) {
					wins[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	if coll.size() != len(encs) {
		t.Fatalf("size = %d, want %d", coll.size(), len(encs))
	}
	total := 0
	for _, n := range wins {
		total += n
	}
	if total != len(encs) {
		t.Fatalf("%d first-insert wins, want %d", total, len(encs))
	}
}

// reset keeps the side tables but drops tuples: re-inserting the same
// states must report them fresh and re-reach the same size.
func TestCollapseSetResetKeepsSideTables(t *testing.T) {
	shape, encs, fps, endss := benchComponentStates(300)
	coll := newCollapseSet(shape, nil)
	for j := range encs {
		coll.seen(fps[j], encs[j], endss[j])
	}
	coll.reset()
	if coll.size() != 0 {
		t.Fatalf("size after reset = %d", coll.size())
	}
	for j := range encs {
		if coll.seen(fps[j], encs[j], endss[j]) {
			t.Fatalf("state %d still present after reset", j)
		}
	}
	if coll.size() != len(encs) {
		t.Fatalf("size = %d, want %d", coll.size(), len(encs))
	}
}

// --- verdict / stats parity across storage modes and worker counts ---

// parityOptions builds every storage configuration the tentpole pins:
// exact, collapse, and both under a memory budget small enough to force
// spilling.
func parityOptions(t *testing.T) map[string]Options {
	t.Helper()
	return map[string]Options{
		"exact":          {Storage: StorageOptions{Visited: VisitedExact}},
		"collapse":       {Storage: StorageOptions{Visited: VisitedCollapse}},
		"exact-spill":    {Storage: StorageOptions{Visited: VisitedExact, MemLimit: 1, SpillDir: t.TempDir()}},
		"collapse-spill": {Storage: StorageOptions{Visited: VisitedCollapse, MemLimit: 1, SpillDir: t.TempDir()}},
	}
}

func TestVisitedModesVerdictParity(t *testing.T) {
	cases := []struct {
		name string
		src  string
		kind ViolationKind
	}{
		{"ok", parOKSrc, NoViolation},
		{"assertion", `
byte x;
active proctype P() { x = 1 }
active proctype Q() { x == 1 -> assert(x == 0) }`, Assertion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := sysFromSource(t, tc.src)
			base := New(sys, Options{Workers: 1}).CheckSafety()
			if base.Kind != tc.kind {
				t.Fatalf("baseline verdict %s, want %s", base.Kind, tc.kind)
			}
			for name, opts := range parityOptions(t) {
				for _, workers := range []int{1, 8} {
					o := opts
					o.Workers = workers
					res := New(sysFromSource(t, tc.src), o).CheckSafety()
					if res.Kind != base.Kind || res.OK != base.OK {
						t.Errorf("%s workers=%d: verdict %s, want %s", name, workers, res.Kind, base.Kind)
					}
					if !statsEqualIgnoringElapsed(res.Stats, base.Stats) {
						t.Errorf("%s workers=%d: stats %+v, want %+v", name, workers, res.Stats, base.Stats)
					}
					if res.Trace != nil && base.Trace != nil && len(res.Trace.Prefix) != len(base.Trace.Prefix) {
						t.Errorf("%s workers=%d: counterexample length %d, want %d",
							name, workers, len(res.Trace.Prefix), len(base.Trace.Prefix))
					}
					if opts.Storage.MemLimit > 0 && res.Stats.SpilledStates == 0 {
						t.Errorf("%s workers=%d: MemLimit=1 run spilled nothing", name, workers)
					}
					if res.Stats.VisitedBytes <= 0 {
						t.Errorf("%s workers=%d: VisitedBytes = %d, want > 0", name, workers, res.Stats.VisitedBytes)
					}
				}
			}
		})
	}
}

// StatesStored parity on a reachability search, spill included.
func TestVisitedModesReachabilityParity(t *testing.T) {
	sys := sysFromSource(t, parOKSrc)
	target, err := sys.Prog.CompileGlobalExpr("x == 3")
	if err != nil {
		t.Fatal(err)
	}
	base := New(sys, Options{Workers: 1}).CheckReachable(target)
	if !base.OK {
		t.Fatalf("baseline: %s", base.Summary())
	}
	for name, opts := range parityOptions(t) {
		for _, workers := range []int{1, 8} {
			o := opts
			o.Workers = workers
			s := sysFromSource(t, parOKSrc)
			tgt, err := s.Prog.CompileGlobalExpr("x == 3")
			if err != nil {
				t.Fatal(err)
			}
			res := New(s, o).CheckReachable(tgt)
			if !res.OK {
				t.Errorf("%s workers=%d: %s", name, workers, res.Summary())
				continue
			}
			if !statsEqualIgnoringElapsed(res.Stats, base.Stats) {
				t.Errorf("%s workers=%d: stats %+v, want %+v", name, workers, res.Stats, base.Stats)
			}
			if len(res.Trace.Prefix) != len(base.Trace.Prefix) {
				t.Errorf("%s workers=%d: witness length %d, want %d",
					name, workers, len(res.Trace.Prefix), len(base.Trace.Prefix))
			}
		}
	}
}

// Collapse-compressed full searches must round-trip every stored state:
// run a search, then verify every encoding streamed out of the visited
// set decodes to a valid state of the system.
func TestCollapseSearchEncodingsDecode(t *testing.T) {
	sys := sysFromSource(t, parOKSrc)
	c := New(sys, Options{Workers: 2, Storage: StorageOptions{Visited: VisitedCollapse}})
	r := c.newParRunner("test")
	defer r.close()
	levels := r.seedRoot()
	res := &Result{}
	for li := 0; li < len(levels); li++ {
		cur := levels[li]
		if len(cur) == 0 {
			break
		}
		r.runLevel(len(cur), func(w *parWorker, i int) { w.expand(r, cur, i, false) })
		next, _ := r.collect(res)
		levels = append(levels, next)
	}
	shape := sys.InitialState()
	n := 0
	r.visited.(visitedDrainer).forEachEncoding(func(enc []byte) {
		st, err := model.DecodeKey(shape, enc)
		if err != nil {
			t.Fatalf("stored encoding does not decode: %v", err)
		}
		if !bytes.Equal(st.AppendKey(nil), enc) {
			t.Fatal("stored encoding does not round-trip")
		}
		n++
	})
	if n != r.visited.size() {
		t.Fatalf("streamed %d encodings, size() = %d", n, r.visited.size())
	}
	if n == 0 {
		t.Fatal("no states stored")
	}
}
