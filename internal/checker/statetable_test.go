package checker

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"pnp/internal/checker/ref"
	"pnp/internal/model"
)

// keyOf is key i as a width-byte entry.
func keyOf(i, width int) []byte {
	b := make([]byte, width)
	copy(b, fmt.Sprintf("key-%d-", i))
	binary.LittleEndian.PutUint32(b[width-4:], uint32(i))
	return b
}

func TestStateTableExact(t *testing.T) {
	const n, width = 5000, 24
	s := newStateTable(width, 1, nil)
	for i := 0; i < n; i++ {
		k := keyOf(i, width)
		if s.contains(model.Hash64(k), k) {
			t.Fatalf("fresh key %d present", i)
		}
		if s.seen(0, model.Hash64(k), k) {
			t.Fatalf("fresh key %d reported seen", i)
		}
		if !s.seen(0, model.Hash64(k), k) {
			t.Fatalf("stored key %d reported unseen", i)
		}
	}
	if s.size() != n {
		t.Fatalf("size = %d, want %d", s.size(), n)
	}
	for i := 0; i < n; i++ {
		k := keyOf(i, width)
		if ref, had := s.put(0, model.Hash64(k), k); !had || !bytes.Equal(s.entry(ref), k) {
			t.Fatalf("key %d: present %v, stored copy %q", i, had, s.entry(ref))
		}
	}
	if s.bytes() < n*width {
		t.Fatalf("bytes = %d, below the %d bytes of entries", s.bytes(), n*width)
	}
}

// In single-writer mode a ref is the dense insertion index: intern
// numbers new entries 0, 1, 2, ... and an index reads its entry back.
func TestStateTableSingleWriterDenseIDs(t *testing.T) {
	const n, width = 3000, 9
	s := newStateTable(width, 1, nil)
	for i := 0; i < n; i++ {
		k := keyOf(i, width)
		if id := s.intern(model.Hash64(k), k); id != uint32(i) {
			t.Fatalf("key %d interned as %d", i, id)
		}
		if id := s.intern(model.Hash64(k), k); id != uint32(i) {
			t.Fatalf("key %d re-interned as %d", i, id)
		}
	}
	for i := 0; i < n; i++ {
		if e := s.entry(uint64(i)); !bytes.Equal(e, keyOf(i, width)) {
			t.Fatalf("index %d reads back %q", i, e)
		}
	}
}

// Distinct entries whose fingerprints share the 28-bit slot tag — and
// so the home slot at every table size — must coexist, across grows
// too: the table compares bytes on a tag match and never trusts the
// fingerprint alone. The colliding pair is mined from real Hash64
// values.
func TestStateTableFingerprintCollision(t *testing.T) {
	const width = 16
	found := map[uint64][]byte{}
	var a, b []byte
	for i := 0; ; i++ {
		k := keyOf(i, width)
		tag := model.Hash64(k) >> encTagShift
		if prev, ok := found[tag]; ok {
			a, b = prev, k
			break
		}
		found[tag] = k
	}
	s := newStateTable(width, 1, nil)
	if s.seen(0, model.Hash64(a), a) || s.seen(0, model.Hash64(b), b) {
		t.Fatal("fresh entries reported present")
	}
	for i := 0; i < 10000; i++ {
		k := keyOf(-1-i, width)
		s.seen(0, model.Hash64(k), k)
		if i%2500 == 0 && (!s.contains(model.Hash64(a), a) || !s.contains(model.Hash64(b), b)) {
			t.Fatalf("colliding entries lost after %d more inserts", i)
		}
	}
	if !s.seen(0, model.Hash64(a), a) || !s.seen(0, model.Hash64(b), b) {
		t.Fatal("colliding entries lost")
	}
	if s.size() != 10002 {
		t.Fatalf("size = %d, want 10002", s.size())
	}
}

// Arena pages never move: a slice of the first entry still aliases the
// same memory after many pages and grows, and every entry reads back.
func TestStateTableEntriesNeverMove(t *testing.T) {
	const width = 40
	s := newStateTable(width, 1, nil)
	first := keyOf(-1, width)
	ref0, _ := s.put(0, model.Hash64(first), first)
	e0 := s.entry(ref0)
	slots := len(s.slots)
	refs := make([]uint64, 100000)
	for i := range refs {
		k := keyOf(i, width)
		refs[i], _ = s.put(0, model.Hash64(k), k)
	}
	if len(s.slots) < 8*slots || len(s.arenas[0].pages) < 4 {
		t.Fatalf("%d slots in %d pages: too few grows to test", len(s.slots), len(s.arenas[0].pages))
	}
	if e := s.entry(ref0); unsafe.SliceData(e) != unsafe.SliceData(e0) || !bytes.Equal(e0, first) {
		t.Fatal("the first entry moved")
	}
	for i, r := range refs {
		if e := s.entry(r); !bytes.Equal(e, keyOf(i, width)) {
			t.Fatalf("entry %d reads back %q", i, e)
		}
	}
}

// locate numbers the arena densely: page by page, each page filled to
// its pageLen, for widths from empty to past a whole page.
func TestStateTableLocate(t *testing.T) {
	for _, width := range []int{0, 1, 7, 205, 4096, 3 << 20} {
		s := newStateTable(width, 1, nil)
		var page, off uint64
		for idx := uint64(0); idx < 1<<17; idx++ {
			p, o := s.locate(idx)
			if p != page || o != off {
				t.Fatalf("width %d: index %d at (%d, %d), want (%d, %d)", width, idx, p, o, page, off)
			}
			if off++; off == uint64(s.pageLen(int(page))) {
				page, off = page+1, 0
			}
		}
		if bytes := s.pageLen(int(page)) * width; width > 0 && bytes > max(statePageBytes, width) {
			t.Errorf("width %d: steady pages hold %d bytes", width, bytes)
		}
	}
}

// A slot word places its entry at every table size up to 2^28 slots
// (grow reads nothing else there), and the largest ref of any writer
// count up to maxWorkers never spills into the tag.
func TestStateTableSlotWordCarriesHomeSlot(t *testing.T) {
	for _, writers := range []int{1, 2, 3, 64, maxWorkers} {
		s := newStateTable(8, writers, nil)
		maxIdx := uint64(1)<<(stateRefBits-s.wbits) - 2
		maxRef := maxIdx<<s.wbits | uint64(writers-1)
		if (maxRef+1)&^encPosMask != 0 {
			t.Fatalf("%d writers: ref %#x + 1 overlaps the tag", writers, maxRef)
		}
		if maxIdx < 1<<28-2 {
			t.Fatalf("%d writers: an arena holds only %d entries", writers, maxIdx+1)
		}
		for i := 0; i < 1000; i++ {
			fp := model.Hash64(keyOf(i, 8))
			for _, r := range []uint64{0, uint64(i), maxRef} {
				word := fp&^encPosMask | (r + 1)
				for shift := uint(64 - encTableMinSlotsLog2); shift >= encTagShift; shift-- {
					if word>>shift != fp>>shift {
						t.Fatalf("fp %#x: slot word homes at %d, fingerprint at %d", fp, word>>shift, fp>>shift)
					}
				}
			}
		}
	}
}

// GOMAXPROCS writers insert overlapping key sets through one gate, from
// an empty table through several grows: every key is reported new
// exactly once, size is the distinct count, and every key reads back.
// CI runs it under -race at GOMAXPROCS=8 many times over, since two
// cores rarely interleave two inserts on one slot.
func TestStateTableStress(t *testing.T) {
	const keys, width = 20000, 48
	workers := max(runtime.GOMAXPROCS(0), 2)
	s := newStateTable(width, workers, nil)
	gate := s.gate
	wins := make([]int, workers)
	gate.enter(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer gate.leave()
			// Writer w starts at its own offset and inserts 3/4 of the
			// keys, so every key meets two or more writers.
			for j := 0; j < keys*3/4; j++ {
				i := (j + w*keys/workers) % keys
				k := keyOf(i, width)
				gate.poll()
				if !s.seen(w, model.Hash64(k), k) {
					wins[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	if s.size() != keys {
		t.Fatalf("size = %d, want %d", s.size(), keys)
	}
	total := 0
	for _, n := range wins {
		total += n
	}
	if total != keys {
		t.Fatalf("%d first-insert wins across %d writers, want %d", total, workers, keys)
	}
	if len(s.slots) < 64*encTableMinSlots {
		t.Fatalf("%d slots: too few grows to test", len(s.slots))
	}
	for i := 0; i < keys; i++ {
		k := keyOf(i, width)
		if ref, ok := s.find(model.Hash64(k), k); !ok || !bytes.Equal(s.entry(ref), k) {
			t.Fatalf("key %d lost", i)
		}
	}
}

// Past tagSlots (2^28 slots) a home slot takes more fingerprint bits
// than a slot word's tag keeps, so grow rehashes the entries instead.
// With the threshold lowered to 2^8 slots, a table grows far past it,
// by one writer inline and by four through its gate: every key is new
// exactly once, size is the distinct count, and every key is found.
func TestStateTableGrowsPastTagSlots(t *testing.T) {
	const keys, width, tagSlots = 20000, 24, 1 << 8
	for _, writers := range []int{1, 4} {
		s := newStateTable(width, writers, nil)
		s.tagSlots = tagSlots
		wins := make([]int, writers)
		s.gate.enter(writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				defer s.gate.leave()
				for j := 0; j < keys; j++ {
					k := keyOf((j+w*keys/writers)%keys, width)
					s.gate.poll()
					if !s.seen(w, model.Hash64(k), k) {
						wins[w]++
					}
				}
			}(w)
		}
		wg.Wait()
		total := 0
		for _, n := range wins {
			total += n
		}
		if total != keys || s.size() != keys {
			t.Fatalf("%d writers: %d first-insert wins, size %d, want %d", writers, total, s.size(), keys)
		}
		if len(s.slots) < 64*tagSlots {
			t.Fatalf("%d writers: %d slots, too few grows past %d", writers, len(s.slots), tagSlots)
		}
		for i := 0; i < keys; i++ {
			k := keyOf(i, width)
			if ref, ok := s.find(model.Hash64(k), k); !ok || !bytes.Equal(s.entry(ref), k) {
				t.Fatalf("%d writers: key %d lost", writers, i)
			}
		}
	}
}

// wideSrc has levels that outgrow the table many times over: level d
// holds C(3, d) · 24^d states, so level 2 (1,728 states) more than
// doubles the table it starts with, and level 3 (13,824) does again.
var wideSrc = func() string {
	var alts strings.Builder
	for v := 1; v <= 24; v++ {
		fmt.Fprintf(&alts, ":: x = %d ", v)
	}
	return "active [3] proctype P() { byte x; if " + alts.String() + "fi }"
}()

// The table grows inside a level, with every worker parked at the gate:
// stored counts match the reference search at 2 and 4 workers.
func TestStateTableGrowsMidLevel(t *testing.T) {
	want := ref.Check(sysFromSource(t, wideSrc))
	for _, w := range []int{2, 4} {
		c := New(sysFromSource(t, wideSrc), Options{Workers: w, IgnoreDeadlock: true})
		r := c.newParRunner("test")
		tab := r.visited.(*stateTable)
		levels := r.seedRoot()
		var bounds []int
		res := &Result{}
		grewTwice := false
		for li := 0; len(levels[li]) > 0; li++ {
			before := len(tab.slots)
			next, nextBounds, _ := r.expandLevel(res, levels[li], bounds, true)
			grewTwice = grewTwice || len(tab.slots) >= 4*before
			levels = r.advance(levels, li, bounds, next)
			bounds = nextBounds
		}
		r.close()
		if !grewTwice {
			t.Errorf("workers=%d: no level grew the table twice", w)
		}
		if res.Stats.StatesStored != want.Stored || tab.size() != want.Stored {
			t.Errorf("workers=%d: stored %d (table %d), reference %d", w, res.Stats.StatesStored, tab.size(), want.Stored)
		}
		full := New(sysFromSource(t, wideSrc), Options{Workers: w, IgnoreDeadlock: true}).CheckSafety()
		if !full.OK || full.Stats.StatesStored != want.Stored {
			t.Errorf("workers=%d: search %s, reference stores %d", w, full.Summary(), want.Stored)
		}
	}
}

// reset frees the slots and pages: bytes falls back to a fresh table's,
// so a spill brings the set back under its budget.
func TestStateTableResetFreesBytes(t *testing.T) {
	const width = 64
	s := newStateTable(width, 2, nil)
	fresh := s.bytes()
	for i := 0; i < 50000; i++ {
		k := keyOf(i, width)
		s.seen(i%2, model.Hash64(k), k)
	}
	if s.bytes() < 50000*width {
		t.Fatalf("bytes = %d with 50000 entries", s.bytes())
	}
	s.reset()
	if s.bytes() != fresh || s.size() != 0 {
		t.Fatalf("after reset: bytes %d (fresh %d), size %d", s.bytes(), fresh, s.size())
	}
	k := keyOf(7, width)
	if s.seen(1, model.Hash64(k), k) || !s.contains(model.Hash64(k), k) {
		t.Fatal("the table does not work after reset")
	}

	spill := newSpillSet(newStateTable(width, 1, nil), width, 1<<16, t.TempDir(), spillMetrics{})
	defer spill.close()
	keys := make([][]byte, 5000)
	for i := range keys {
		keys[i] = keyOf(i, width)
		spill.seen(0, model.Hash64(keys[i]), keys[i])
	}
	path, log, ents := testLog(t, t.TempDir(), keys)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spill.pending = []ckptRun{{off: int64(ents[0].off), n: len(keys)}}
	if !spill.due() {
		t.Fatal("5000 entries do not exceed the budget")
	}
	spill.spill(f, int64(len(log)))
	if spill.failed || spill.bytes() > 1<<16 {
		t.Fatalf("after a spill: bytes %d over the %d budget (tier failed: %v)", spill.bytes(), 1<<16, spill.failed)
	}
}

// Workers past maxWorkers run as maxWorkers, with the same counts.
func TestWorkersCappedAtStateTableWriters(t *testing.T) {
	c := New(sysFromSource(t, parOKSrc), Options{Workers: maxWorkers + 100})
	r := c.newParRunner("test")
	if len(r.workers) != maxWorkers {
		t.Fatalf("%d workers, want %d", len(r.workers), maxWorkers)
	}
	r.close()
	one := New(sysFromSource(t, parOKSrc), Options{Workers: 1}).CheckSafety()
	many := New(sysFromSource(t, parOKSrc), Options{Workers: maxWorkers + 100}).CheckSafety()
	if !statsEqualIgnoringElapsed(one.Stats, many.Stats) {
		t.Fatalf("stats differ: 1 worker %+v, %d workers %+v", one.Stats, maxWorkers+100, many.Stats)
	}
}

// BenchmarkVisitedInsert times the exact visited set's insert: 205-byte
// keys (bridge N=2's vectors), each inserted twice, so half the inserts
// find a duplicate, by 1, 2 and 4 goroutines into one table.
func BenchmarkVisitedInsert(b *testing.B) {
	const keys, width = 1 << 16, 205
	rng := rand.New(rand.NewSource(1))
	encs := make([][]byte, keys)
	fps := make([]uint64, keys)
	for i := range encs {
		encs[i] = make([]byte, width)
		rng.Read(encs[i])
		fps[i] = model.Hash64(encs[i])
	}
	order := append(rng.Perm(keys), rng.Perm(keys)...)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := newStateTable(width, workers, nil)
				gate := s.gate
				gate.enter(workers)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						defer gate.leave()
						for j := w; j < len(order); j += workers {
							gate.poll()
							s.seen(w, fps[order[j]], encs[order[j]])
						}
					}(w)
				}
				wg.Wait()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(order)), "ns/insert")
		})
	}
}
