package checker

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"unsafe"

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
	for _, slot := range tab.slots {
		if slot == 0 {
			continue
		}
		if enc := tab.entryAt(slot&encPosMask - 1); !tab.lookup(model.Hash64(enc), enc) {
			t.Fatalf("slot holds %q, which lookup does not find", enc)
		}
		got++
	}
	if got != n {
		t.Fatalf("%d slots filled, want %d", got, n)
	}
	if tab.bytes() <= 0 {
		t.Fatal("bytes not positive")
	}
	tab.reset()
	if tab.n != 0 || tab.lookup(model.Hash64(encOf(1)), encOf(1)) {
		t.Fatal("reset did not clear table")
	}
}

// Distinct entries whose fingerprints share the 28-bit slot tag — and
// so, the home slot being a prefix of the tag, the home slot at every
// table size — must coexist, across grows too: the table compares bytes
// on a tag match and never trusts the fingerprint alone. The colliding
// pair is mined from real Hash64 values.
func TestEncTableFingerprintCollision(t *testing.T) {
	found := map[uint64]string{}
	var a, b []byte
	for i := 0; ; i++ {
		s := "entry-" + string(rune('a'+i%26)) + fmt.Sprint(i)
		tag := model.Hash64([]byte(s)) >> encTagShift
		if prev, ok := found[tag]; ok {
			a, b = []byte(prev), []byte(s)
			break
		}
		found[tag] = s
	}
	var tab encTable
	if tab.testAndSet(model.Hash64(a), a) || tab.testAndSet(model.Hash64(b), b) {
		t.Fatal("fresh entries reported present")
	}
	if home := model.Hash64(a) >> tab.shift; home != model.Hash64(b)>>tab.shift {
		t.Fatal("mined pair does not share a home slot")
	}
	for i := 0; i < 10000; i++ {
		tab.testAndSet(model.Hash64(encOf(i)), encOf(i))
		if i%2500 == 0 && (!tab.lookup(model.Hash64(a), a) || !tab.lookup(model.Hash64(b), b)) {
			t.Fatalf("colliding entries lost after %d more inserts", i)
		}
	}
	if !tab.testAndSet(model.Hash64(a), a) || !tab.testAndSet(model.Hash64(b), b) {
		t.Fatal("colliding entries lost")
	}
	if tab.n != 10002 {
		t.Fatalf("n = %d, want 10002", tab.n)
	}
}

// The arena never moves: a slice of the first entry still aliases the
// same memory after many pages and grows, and every entry is found.
func TestEncTableEntriesNeverMove(t *testing.T) {
	var tab encTable
	first := encOf(-1)
	tab.testAndSet(model.Hash64(first), first)
	entry := func(b []byte) []byte {
		slot, ok := tab.find(model.Hash64(b), b)
		if !ok {
			t.Fatalf("%q not found", b)
		}
		return tab.entryAt(tab.slots[slot]&encPosMask - 1)
	}
	e0 := entry(first)
	slots := len(tab.slots)
	for i := 0; i < 100000; i++ {
		tab.testAndSet(model.Hash64(encOf(i)), encOf(i))
	}
	if len(tab.slots) < 8*slots || len(tab.pages) < 4 {
		t.Fatalf("%d slots in %d pages: too few grows to test", len(tab.slots), len(tab.pages))
	}
	if e := entry(first); unsafe.SliceData(e) != unsafe.SliceData(e0) || !bytes.Equal(e0, first) {
		t.Fatal("the first entry moved")
	}
	for i := 0; i < 100000; i++ {
		if e := entry(encOf(i)); !bytes.Equal(e, encOf(i)) {
			t.Fatalf("entry %d reads back %q", i, e)
		}
	}
}

// A slot word places its entry at every table size up to the ceiling
// (grow reads nothing else), and the largest arena position never
// spills into the tag.
func TestEncTableSlotWordCarriesHomeSlot(t *testing.T) {
	maxPos := uint64(encMaxPages-1)<<encPageBits | (encPageMax - 1)
	if (maxPos+1)&^encPosMask != 0 {
		t.Fatalf("arena position %#x + 1 overlaps the tag", maxPos)
	}
	if encTableMaxSlots != 1<<(64-encTagShift) {
		t.Fatalf("slot ceiling %d is not the tag width", encTableMaxSlots)
	}
	for i := 0; i < 1000; i++ {
		fp := model.Hash64(encOf(i))
		for _, pos := range []uint64{0, uint64(i), maxPos} {
			word := fp&^encPosMask | (pos + 1)
			for shift := uint(64 - encTableMinSlotsLog2); shift >= encTagShift; shift-- {
				if word>>shift != fp>>shift {
					t.Fatalf("fp %#x at %d slots: slot word homes at %d, fingerprint at %d",
						fp, uint64(1)<<(64-shift), word>>shift, fp>>shift)
				}
			}
		}
	}
}

// --- collapse set ---

// Enough states that both sets outgrow the first page of each of their
// 64 stripes, which would otherwise dominate the byte comparison.
func TestCollapseSetMatchesExact(t *testing.T) {
	shape, encs, fps := benchComponentStates(t, 30000)
	exact := newStateTable(len(encs[0]), 1, nil)
	coll := newCollapseSet(shape, nil)
	for j := range encs {
		if got, want := coll.seen(0, fps[j], encs[j]), exact.seen(0, fps[j], encs[j]); got != want {
			t.Fatalf("state %d: collapse %v, exact %v", j, got, want)
		}
	}
	for j := range encs {
		if !coll.seen(0, fps[j], encs[j]) {
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

// The set splits every vector itself, at the fixed ranges it took from
// the shape it was built with, so sets built from any two states of one
// system split alike and agree on every vector.
func TestCollapseSetSelfSplit(t *testing.T) {
	shape, encs, fps := benchComponentStates(t, 500)
	other, err := model.DecodeKey(shape, encs[len(encs)-1])
	if err != nil {
		t.Fatal(err)
	}
	a := newCollapseSet(shape, nil)
	b := newCollapseSet(other, nil)
	if !slices.Equal(a.ends, b.ends) || a.ends[len(a.ends)-1] != len(encs[0]) {
		t.Fatalf("ranges %v and %v for vectors of %d bytes", a.ends, b.ends, len(encs[0]))
	}
	for j := range encs {
		if a.seen(0, fps[j], encs[j]) != b.seen(0, fps[j], encs[j]) {
			t.Fatalf("state %d: the two sets disagree", j)
		}
	}
	if a.size() != b.size() {
		t.Fatalf("sizes diverge: %d and %d", a.size(), b.size())
	}
	for j := range encs {
		if !a.contains(fps[j], encs[j]) || !b.contains(fps[j], encs[j]) {
			t.Fatalf("state %d lost", j)
		}
	}
}

func TestCollapseSetConcurrent(t *testing.T) {
	shape, encs, fps := benchComponentStates(t, 2000)
	coll := newCollapseSet(shape, nil)
	const workers = 8
	var wins [workers]int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range encs {
				if !coll.seen(0, fps[j], encs[j]) {
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
	shape, encs, fps := benchComponentStates(t, 300)
	coll := newCollapseSet(shape, nil)
	for j := range encs {
		coll.seen(0, fps[j], encs[j])
	}
	coll.reset()
	if coll.size() != 0 {
		t.Fatalf("size after reset = %d", coll.size())
	}
	for j := range encs {
		if coll.seen(0, fps[j], encs[j]) {
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

// Collapse-compressed full searches must store exactly the states the
// levels hold: run a search, then check every state of every level is
// a member that decodes and round-trips, and that the set holds no
// more states than the levels do.
func TestCollapseSearchEncodingsDecode(t *testing.T) {
	sys := sysFromSource(t, parOKSrc)
	c := New(sys, Options{Workers: 2, Storage: StorageOptions{Visited: VisitedCollapse}})
	r := c.newParRunner("test")
	defer r.close()
	levels := r.seedRoot()
	res := &Result{}
	for li := 0; len(levels[li]) > 0; li++ {
		next, _, _ := r.expandLevel(res, levels[li], nil, false)
		levels = append(levels, next)
	}
	shape := sys.InitialState()
	n := 0
	for _, level := range levels {
		for _, node := range level {
			enc := node.st.Bytes()
			if !r.visited.contains(model.Hash64(enc), enc) {
				t.Fatalf("level state %x is not stored", enc)
			}
			st, err := model.DecodeKey(shape, enc)
			if err != nil {
				t.Fatalf("stored encoding does not decode: %v", err)
			}
			if !bytes.Equal(st.AppendKey(nil), enc) {
				t.Fatal("stored encoding does not round-trip")
			}
			n++
		}
	}
	if n != r.visited.size() {
		t.Fatalf("levels hold %d states, size() = %d", n, r.visited.size())
	}
	if n < 2 {
		t.Fatal("no states stored")
	}
}
