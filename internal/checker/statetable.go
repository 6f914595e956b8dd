package checker

import (
	"bytes"
	"math/bits"
	"sync"
	"sync/atomic"

	"pnp/internal/model"
	"pnp/internal/obs"
)

// stateTable is the state table of a search: one open-addressed table of
// uint64 slots over per-writer, append-only arenas of fixed-width
// entries — every state of a system is one layout.size-byte vector, so
// an entry needs no framing and an index locates it. Its find-or-put is
// the lock-free one of Laarman, van de Pol & Weber ("Boosting
// Multi-Core Reachability Performance with Shared Hash Tables", FMCAD
// 2010): a writer copies the entry to the tail of its own arena, then
// publishes it with a CAS of its slot word into an empty slot; losing
// the CAS to an equal entry, it takes the copy back. Readers
// atomic-load a slot and compare bytes, so a published entry is always
// complete.
//
// A slot word is tag(28) | ref+1 (36) in encTable's layout: the top
// bits of the fingerprint, probing from its top log2(len(slots)) bits.
// fp must be model.Hash64 of the entry. Up to 2^28 slots the home slot
// is a prefix of the tag, so grow re-slots every entry from its slot
// word alone; past that it rehashes the entries, so the table has no
// ceiling but memory and the ref width. ref is index<<wbits | writer:
// writer w's index-th entry. The writer field takes ⌈log2 writers⌉ bits
// (none with one writer, where the ref is the dense insertion index:
// the table's single-writer mode, which the liveness product and
// collapse's component tables use to number entries), and maxWorkers
// caps it so an arena can always hold 2^28 entries: 2^36 entries for
// the table as a whole, less at most a factor of two for writer counts
// that are not powers of two.
//
// An arena is a directory of pages that never move: eight pages of ~1
// KiB, eight of twice that, and so on up to ~1 MiB pages, so a tiny
// search costs a few KiB and an arena past its first run is at most
// 1/8 unused. The owner appends; readers reach pages through the directory,
// which the owner republishes behind an atomic pointer whenever it adds
// a page. An entry slice stays valid for the table's life (until reset).
//
// The table grows only while no writer is inside an insert. A writer
// inserts on credit taken in chunks from one shared budget of 3/4 of
// the slots, so the load never passes 3/4 and the shared counter is
// touched once per chunk. A table of one writer grows inline; one of
// more owns a growGate, where a writer out of budget parks until every
// other writer inside a level has reached a node boundary, the last to
// park grows the table, and all resume. Outside a level (seeding,
// checkpoint restore) no writer is counted in, so the grow is at once.
type stateTable struct {
	width  int
	slots  []uint64 // read atomically by writers; replaced only by grow and reset
	shift  uint     // 64 - log2(len(slots)): an entry's home slot is fp>>shift
	wbits  uint     // writer bits of a ref
	arenas []stateArena
	// firstLog2 and pageLog2 size the arena pages: page 0 holds
	// 2^firstLog2 entries, pages double up to 2^pageLog2, then stay.
	firstLog2, pageLog2 uint

	claimed      atomic.Int64 // credits handed out: entries stored plus credits unspent
	limit, chunk int64        // the budget (3/4 of the slots) and one credit grant
	gate         *growGate    // nil with one writer, who grows the table inline
	tagSlots     int          // grow re-slots from slot words up to this many slots, rehashes past it
	// retries counts lost CASes: an empty slot another writer filled
	// first. Nil (metrics disabled) is a no-op.
	retries *obs.Counter
}

// maxWorkers caps the writers of one stateTable, and so Options.Workers:
// 8 writer bits leave 28 of a ref's 36 for an arena index.
const maxWorkers = 1 << 8

const (
	stateFirstPageBytes = 1 << 10
	statePageBytes      = 1 << 20
	stateRefBits        = encTagShift
)

// stateArena is one writer's entries. Only its owner writes it; readers
// load dir alone, which sits on its own cache line.
type stateArena struct {
	dir atomic.Pointer[[][]byte]
	_   [56]byte
	// The owner's side.
	pages  [][]byte // what dir points at, as of the last page added
	cur    []byte   // the last page
	used   int      // bytes of cur in use
	left   int      // entries cur still has room for
	n      int      // entries stored
	credit int64    // inserts left before the next grant
	bytes  int64    // capacity of all pages
	_      [40]byte
}

// newStateTable returns an empty table of width-byte entries for the
// given number of writers (at most maxWorkers); contention counts lost
// CASes.
func newStateTable(width, writers int, contention *obs.Counter) *stateTable {
	if writers < 1 || writers > maxWorkers {
		panic("checker: state table writer count out of range")
	}
	stride := max(width, 1)
	first := uint(bits.Len(uint(max(stateFirstPageBytes/stride, 1)))) - 1
	page := uint(bits.Len(uint(max(statePageBytes/stride, 1)))) - 1
	t := &stateTable{
		width:     width,
		wbits:     uint(bits.Len(uint(writers - 1))),
		arenas:    make([]stateArena, writers),
		firstLog2: first,
		pageLog2:  max(page, first),
		tagSlots:  encTableMaxSlots,
		retries:   contention,
	}
	if writers > 1 {
		t.gate = newGrowGate(t.grow)
	}
	t.reset()
	return t
}

// find reports b's ref, if b is present. Safe beside concurrent puts.
func (t *stateTable) find(fp uint64, b []byte) (uint64, bool) {
	slots := t.slots
	mask := uint64(len(slots) - 1)
	tag := fp &^ encPosMask
	for i := fp >> t.shift; ; i = (i + 1) & mask {
		s := atomic.LoadUint64(&slots[i])
		if s == 0 {
			return 0, false
		}
		if s&^encPosMask == tag && bytes.Equal(t.entry(s&encPosMask-1), b) {
			return s&encPosMask - 1, true
		}
	}
}

// put finds b or stores it as writer k's next entry. It returns b's ref
// and whether b was already present. Each writer index must be used by
// one goroutine at a time.
func (t *stateTable) put(k int, fp uint64, b []byte) (uint64, bool) {
	a := &t.arenas[k]
	if a.credit == 0 {
		t.reserve(a)
	}
	slots := t.slots
	mask := uint64(len(slots) - 1)
	tag := fp &^ encPosMask
	word := uint64(0) // b's slot word, once b is copied to the arena
	for i := fp >> t.shift; ; i = (i + 1) & mask {
		s := atomic.LoadUint64(&slots[i])
		if s == 0 {
			if word == 0 {
				word = tag | (t.push(a, k, b) + 1)
			}
			if atomic.CompareAndSwapUint64(&slots[i], 0, word) {
				a.credit--
				return word&encPosMask - 1, false
			}
			t.retries.Add(1)
			s = atomic.LoadUint64(&slots[i])
		}
		if s&^encPosMask == tag && bytes.Equal(t.entry(s&encPosMask-1), b) {
			if word != 0 {
				a.pop(t.width)
			}
			return s&encPosMask - 1, true
		}
	}
}

// seen is put for the visited set: it reports whether b was present.
func (t *stateTable) seen(k int, fp uint64, b []byte) bool {
	_, had := t.put(k, fp, b)
	return had
}

func (t *stateTable) contains(fp uint64, b []byte) bool {
	_, ok := t.find(fp, b)
	return ok
}

// intern is put in single-writer mode, where a ref is the entry's dense
// index: b's index, storing b under the next one first if it is absent.
func (t *stateTable) intern(fp uint64, b []byte) uint32 {
	ref, _ := t.put(0, fp, b)
	return uint32(ref)
}

// Arena pages come in runs of 2^stateRunLog2 pages of one size: run g's
// pages hold 2^(firstLog2+g) entries, up to 2^pageLog2 from the last
// run on, which never ends. So the last page, the most that can be
// unused, is at most 1/8 of the arena past the first run.
const stateRunLog2 = 3

// locate maps an arena index to its page and the index within the page.
func (t *stateTable) locate(idx uint64) (page, off uint64) {
	f := uint64(t.firstLog2)
	g := min(uint64(bits.Len64(idx>>(f+stateRunLog2)+1))-1, uint64(t.pageLog2-t.firstLog2))
	rel := idx - (1<<g-1)<<(f+stateRunLog2) // runs 0..g-1 hold 8·2^f·(2^g-1) entries
	return g<<stateRunLog2 + rel>>(f+g), rel & (1<<(f+g) - 1)
}

// pageLen is the entry capacity of arena page p.
func (t *stateTable) pageLen(p int) int {
	return 1 << (t.firstLog2 + min(uint(p)>>stateRunLog2, t.pageLog2-t.firstLog2))
}

// entry returns the entry ref names.
func (t *stateTable) entry(ref uint64) []byte {
	a := &t.arenas[ref&(1<<t.wbits-1)]
	p, off := t.locate(ref >> t.wbits)
	page := (*a.dir.Load())[p]
	o := off * uint64(t.width)
	return page[o : o+uint64(t.width) : o+uint64(t.width)]
}

// push copies b to the tail of writer k's arena a and returns its ref.
func (t *stateTable) push(a *stateArena, k int, b []byte) uint64 {
	if a.left == 0 {
		n := t.pageLen(len(a.pages))
		a.cur, a.used, a.left = make([]byte, n*t.width), 0, n
		a.pages = append(a.pages, a.cur)
		dir := a.pages
		a.dir.Store(&dir)
		a.bytes += int64(len(a.cur))
	}
	idx := uint64(a.n)
	if idx >= 1<<(stateRefBits-t.wbits)-1 {
		panic("checker: state table arena exceeds its index width")
	}
	copy(a.cur[a.used:a.used+t.width], b)
	a.used += t.width
	a.left--
	a.n++
	return idx<<t.wbits | uint64(k)
}

// pop takes back the last entry push stored, which was never published.
func (a *stateArena) pop(width int) {
	a.used -= width
	a.left++
	a.n--
}

// reserve grants writer a a chunk of the insert budget, growing the
// table first when the budget is spent.
func (t *stateTable) reserve(a *stateArena) {
	for {
		c := t.claimed.Load()
		if take := min(t.chunk, t.limit-c); take > 0 {
			if t.claimed.CompareAndSwap(c, c+take) {
				a.credit = take
				return
			}
			continue
		}
		if t.gate == nil {
			t.grow()
		} else {
			t.gate.park(true)
		}
	}
}

// grow doubles the slot array. Only called while no writer is inside
// put: inline by a lone writer, or by the growGate with every writer
// parked. Past tagSlots a home slot takes more bits than the tag keeps,
// so it comes from the entry's hash.
func (t *stateTable) grow() {
	var rehash func(word uint64) uint64
	if 2*len(t.slots) > t.tagSlots {
		rehash = func(word uint64) uint64 { return model.Hash64(t.entry(word&encPosMask - 1)) }
	}
	shift := t.shift - 1
	t.setSlots(reslot(t.slots, shift, rehash), shift)
}

func (t *stateTable) setSlots(slots []uint64, shift uint) {
	t.slots, t.shift = slots, shift
	t.limit = int64(len(slots)) * 3 / 4
	t.chunk = int64(max(1, min(256, len(slots)/(32*len(t.arenas)))))
}

// size is the number of entries stored. Only called with no put in
// flight.
func (t *stateTable) size() int {
	n := 0
	for i := range t.arenas {
		n += t.arenas[i].n
	}
	return n
}

// bytes is the resident footprint: slots plus arena pages.
func (t *stateTable) bytes() int64 {
	b := int64(len(t.slots)) * 8
	for i := range t.arenas {
		b += t.arenas[i].bytes
	}
	return b
}

// reset drops every entry and frees the slots and pages, so a spilled
// table starts over at its initial size. Only called with no put in
// flight.
func (t *stateTable) reset() {
	t.setSlots(make([]uint64, encTableMinSlots), 64-encTableMinSlotsLog2)
	t.claimed.Store(0)
	for i := range t.arenas {
		a := &t.arenas[i]
		a.dir.Store(&[][]byte{})
		a.pages, a.cur = nil, nil
		a.used, a.left, a.n, a.credit, a.bytes = 0, 0, 0, 0, 0
	}
}

// growGate lets the writers of the stateTable that owns it grow it
// mid-level. A writer that needs a grow, and every writer that reaches
// a node boundary (poll) while one is pending, parks; when every writer
// inside the level is parked or done, the last one to arrive grows the
// table and all resume. A parked writer is inside no insert, so the
// grow sees every slot settled. Writers outside a level (seeding,
// checkpoint restore) are not counted and so grow the table at once.
// A nil gate (a table of one writer, or no table) does nothing.
type growGate struct {
	want   atomic.Bool
	mu     sync.Mutex
	cond   sync.Cond
	active int // writers inside a level
	parked int
	epoch  uint64 // grows done; a parked writer waits for the next
	grow   func()
}

func newGrowGate(grow func()) *growGate {
	g := &growGate{grow: grow}
	g.cond.L = &g.mu
	return g
}

// enter counts n writers into a level; each leaves once.
func (g *growGate) enter(n int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.active += n
	g.mu.Unlock()
}

func (g *growGate) leave() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.active--
	if g.want.Load() && g.parked >= g.active {
		g.release()
	}
	g.mu.Unlock()
}

// poll is a node boundary: a writer there parks if a grow is pending.
func (g *growGate) poll() {
	if g != nil && g.want.Load() {
		g.park(false)
	}
}

// park waits out the pending grow, requesting one if need is set.
func (g *growGate) park(need bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if need {
		g.want.Store(true)
	} else if !g.want.Load() {
		return
	}
	g.parked++
	if g.parked >= g.active {
		g.release()
		return
	}
	for e := g.epoch; e == g.epoch; {
		g.cond.Wait()
	}
}

// release grows the table and wakes every parked writer; g.mu held.
func (g *growGate) release() {
	g.grow()
	g.parked = 0
	g.want.Store(false)
	g.epoch++
	g.cond.Broadcast()
}
