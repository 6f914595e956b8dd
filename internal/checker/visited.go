package checker

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"

	"pnp/internal/model"
	"pnp/internal/obs"
)

// parVisited is the duplicate detector of the parallel engine. seen
// tests-and-sets a state by its canonical encoding enc (its vector,
// State.Bytes) and its 64-bit fingerprint fp (model.Hash64(enc)). It
// reports whether the state was already present. k is the calling
// worker's index: each worker index is used by one goroutine at a time,
// and the exact set stores a worker's new states in that worker's arena.
// Implementations are safe for concurrent callers; enc is only read
// during the call and may be reused by the caller afterwards.
type parVisited interface {
	seen(k int, fp uint64, enc []byte) bool
	// contains is seen without the set: it reports whether the state is
	// present and stores nothing. Partial-order reduction's proviso
	// reads the set through it between level barriers.
	contains(fp uint64, enc []byte) bool
	// size is the number of states stored. Only called at level
	// barriers (no concurrent seen).
	size() int
	// bytes estimates the resident memory of the structure: stored
	// entries plus table overhead. It feeds the checker_visited_bytes
	// gauge and the Options.MemLimit spill decision, and is only called
	// at level barriers (no concurrent seen).
	bytes() int64
}

// visitedShards is the stripe count of the collapse set. 64 stripes
// keep the probability of two workers wanting the same lock low even at
// high core counts, for a fixed cost of a few KiB.
const visitedShards = 64

// encTable is an open-addressed hash table of variable-length byte
// strings — collapse's index tuples — over an append-only arena of
// [uvarint length][bytes] entries. Fixed-width entries (states and
// their components) live in a stateTable instead, which shares this
// slot layout. Each slot packs the top 28 bits of the entry's
// fingerprint (its tag) with the entry's arena position + 1 into one
// uint64, zero marking an empty slot, so slot overhead is 8 bytes
// against the ~48 of a map[uint64][]string — and entries live as one
// length-prefixed copy in the arena instead of a string header plus
// heap object each.
//
// Probing starts at the fingerprint's top log2(len(slots)) bits, a
// prefix of the tag, so grow re-slots every entry from its slot word
// alone and never reads or rehashes an entry; a full byte compare
// happens only on a tag match. The tag width caps one table at 2^28
// slots (about 200M entries at 3/4 load), 2^34 across visitedShards
// stripes.
//
// The arena is a list of pages that never move. A new page holds 4 KiB
// plus 1/8 of the arena so far, at most 16 MiB unless one entry needs
// more, so bytes() (which reports capacity) tracks real residency within
// ~12%, and a slice from entryAt stays valid for the table's life.
// Entries never straddle pages; an arena position packs (page, offset
// in page) into 12+24 bits, up to 64 GiB per table. Both ceilings lie
// far past any memory a search can have (the slot arrays alone would
// be 128 GiB), so reaching one panics rather than returning an error.
//
// fp must be equal for equal entries — callers pass model.Hash64 of the
// entry, or of the state the entry stands for. The table never computes
// one. Not safe for concurrent use; callers shard and lock.
type encTable struct {
	slots []uint64 // tag(28) | arena position+1 (36); 0 = empty
	shift uint     // 64 - log2(len(slots)): an entry's home slot is fp>>shift
	n     int
	pages [][]byte
	total int // capacity of all pages
}

const (
	encTableMinSlotsLog2 = 6
	encTableMinSlots     = 1 << encTableMinSlotsLog2
	encTagBits           = 28
	encTableMaxSlots     = 1 << encTagBits
	encTagShift          = 64 - encTagBits
	encPosMask           = 1<<encTagShift - 1
	encPageBits          = 24 // bits of the offset within a page
	encPageMin           = 4 << 10
	encPageMax           = 1 << encPageBits
	encMaxPages          = 1<<(encTagShift-encPageBits) - 1 // so position+1 never reaches the tag
)

// lookup reports whether b is present.
func (t *encTable) lookup(fp uint64, b []byte) bool {
	_, ok := t.find(fp, b)
	return ok
}

// find returns the slot holding b, or the empty slot where it belongs.
func (t *encTable) find(fp uint64, b []byte) (slot uint64, ok bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	tag := fp &^ encPosMask
	for i := fp >> t.shift; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return i, false
		}
		if s&^encPosMask == tag && bytes.Equal(t.entryAt(s&encPosMask-1), b) {
			return i, true
		}
	}
}

// testAndSet inserts b if absent, reporting whether it was present.
func (t *encTable) testAndSet(fp uint64, b []byte) bool {
	if len(t.slots) == 0 {
		t.slots = make([]uint64, encTableMinSlots)
		t.shift = 64 - encTableMinSlotsLog2
	}
	slot, ok := t.find(fp, b)
	if ok {
		return true
	}
	t.slots[slot] = fp&^encPosMask | (t.appendEntry(b) + 1)
	t.n++
	if t.n*4 >= len(t.slots)*3 {
		t.grow()
	}
	return false
}

// appendEntry adds a length-prefixed copy of b to the last page, or to
// a new one when it does not fit, and returns its arena position.
func (t *encTable) appendEntry(b []byte) uint64 {
	need := binary.MaxVarintLen64 + len(b)
	p := len(t.pages) - 1
	if p < 0 || cap(t.pages[p])-len(t.pages[p]) < need {
		if len(t.pages) == encMaxPages {
			panic("checker: visited table arena exceeds 64 GiB")
		}
		size := max(min(t.total/8+encPageMin, encPageMax), need)
		t.pages = append(t.pages, make([]byte, 0, size))
		t.total += size
		p++
	}
	off := len(t.pages[p])
	t.pages[p] = append(binary.AppendUvarint(t.pages[p], uint64(len(b))), b...)
	return uint64(p)<<encPageBits | uint64(off)
}

func (t *encTable) entryAt(pos uint64) []byte {
	page := t.pages[pos>>encPageBits]
	off := pos & (encPageMax - 1)
	l, w := binary.Uvarint(page[off:])
	start := off + uint64(w)
	return page[start : start+l : start+l]
}

func (t *encTable) grow() {
	if 2*len(t.slots) > encTableMaxSlots {
		panic("checker: visited table exceeds 2^28 slots")
	}
	t.shift--
	t.slots = reslot(t.slots, t.shift, nil)
}

// reslot returns a slot array twice the size of old holding old's
// words, each probed linearly from fp>>shift. fp is rehash(word), or
// with a nil rehash the word itself: its tag, whose prefix is the home
// slot in a table of up to encTableMaxSlots slots.
func reslot(old []uint64, shift uint, rehash func(word uint64) uint64) []uint64 {
	slots := make([]uint64, 2*len(old))
	mask := uint64(len(slots) - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		fp := s
		if rehash != nil {
			fp = rehash(s)
		}
		j := fp >> shift
		for slots[j] != 0 {
			j = (j + 1) & mask
		}
		slots[j] = s
	}
	return slots
}

// bytes is the resident footprint: arena pages plus the slot array.
func (t *encTable) bytes() int64 {
	return int64(t.total) + int64(cap(t.slots))*8
}

func (t *encTable) reset() {
	*t = encTable{}
}

// collapseTable interns the sub-vectors of one component (one process's
// locals, one channel's contents, or the shared core) in a single-writer
// stateTable, whose refs are dense intern indices. After warm-up almost
// every component of a new state is already interned, so intern first
// probes the slot array view publishes, with atomic loads and no lock,
// as the exact set's readers do. Only a miss takes mu, under which the
// table's one writer finds or inserts and grows inline; an insert that
// grew the table publishes the new array. A reader holding a replaced
// array can only miss, and a miss retries under mu, so intern indices
// stay exact.
type collapseTable struct {
	mu   sync.Mutex
	t    *stateTable
	view atomic.Pointer[slotView]
}

// slotView is a stateTable's slot array and home-slot shift as of one
// grow.
type slotView struct {
	slots []uint64
	shift uint
}

func (ct *collapseTable) init(width int) {
	ct.t = newStateTable(width, 1, nil)
	ct.publish()
}

// publish makes the table's slot array the one lock-free reads probe,
// if a grow replaced it; mu held.
func (ct *collapseTable) publish() {
	if v := ct.view.Load(); v == nil || len(v.slots) != len(ct.t.slots) {
		ct.view.Store(&slotView{ct.t.slots, ct.t.shift})
	}
}

// intern returns b's intern index, interning b first if add is set;
// without add, an absent b reports false.
func (ct *collapseTable) intern(b []byte, add bool) (uint32, bool) {
	fp := model.Hash64(b)
	v := ct.view.Load()
	if ref, ok := ct.t.probe(v.slots, v.shift, fp, b); ok {
		return uint32(ref), true
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if !add {
		ref, ok := ct.t.find(fp, b)
		return uint32(ref), ok
	}
	ref := ct.t.intern(fp, b)
	ct.publish()
	return ref, true
}

func (ct *collapseTable) bytes() int64 {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.t.bytes()
}

// collapseStripe is one stripe of collapseSet: a lock, an encTable of
// the tuples routed here by fingerprint, and a scratch buffer for
// building index tuples under the lock.
type collapseStripe struct {
	mu      sync.Mutex
	t       encTable
	scratch []byte
}

// collapseSet is the collapse-compressed visited set (Spin's -DCOLLAPSE
// analogue): each component sub-vector of a state — a fixed byte range
// of its vector, see State.AppendComponentKeys — is interned once in a
// per-component side table, and the state itself is stored as a tuple
// of uvarint intern indices, routed to one of visitedShards locked
// stripes by the fingerprint of the full encoding. Tuple equality is
// equivalent to encoding equality — two states produce the same tuple
// iff every component matches — so membership, verdicts, and
// StatesStored are identical to the exact set even though the physical
// index assignment varies run to run. The trade is CPU for memory: one
// extra hash+probe per component.
type collapseSet struct {
	comps  []collapseTable
	ends   []int // comps[i] holds bytes [ends[i-1], ends[i]) of every vector
	shards [visitedShards]collapseStripe
	// contention counts TryLock misses — a worker arriving at a stripe
	// another worker holds. Nil (metrics disabled) is a no-op.
	contention *obs.Counter
}

// newCollapseSet builds the set for the states of shape's system.
func newCollapseSet(shape *model.State, contention *obs.Counter) *collapseSet {
	_, ends := shape.AppendComponentKeys(nil, nil)
	s := &collapseSet{
		comps:      make([]collapseTable, len(ends)),
		ends:       ends,
		contention: contention,
	}
	start := 0
	for i, end := range ends {
		s.comps[i].init(end - start)
		start = end
	}
	return s
}

func (s *collapseSet) seen(_ int, fp uint64, enc []byte) bool {
	sh := &s.shards[fp%visitedShards]
	if !sh.mu.TryLock() {
		s.contention.Add(1)
		sh.mu.Lock()
	}
	tuple, _ := s.tuple(sh, enc, true)
	// Equal tuples are equal states, so the state fingerprint keys the
	// tuple in the stripe table as well as routing to the stripe.
	had := sh.t.testAndSet(fp, tuple)
	sh.mu.Unlock()
	return had
}

func (s *collapseSet) contains(fp uint64, enc []byte) bool {
	sh := &s.shards[fp%visitedShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tuple, ok := s.tuple(sh, enc, false)
	return ok && sh.t.lookup(fp, tuple)
}

// tuple builds the index tuple of enc in sh.scratch, sh locked,
// interning its components if add is set. Without add it reports false
// at the first component never interned, which no stored state has.
func (s *collapseSet) tuple(sh *collapseStripe, enc []byte, add bool) ([]byte, bool) {
	tuple := sh.scratch[:0]
	start := 0
	for i, end := range s.ends {
		idx, ok := s.comps[i].intern(enc[start:end], add)
		if !ok {
			return nil, false
		}
		tuple = binary.AppendUvarint(tuple, uint64(idx))
		start = end
	}
	sh.scratch = tuple
	return tuple, true
}

func (s *collapseSet) size() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.t.n
		sh.mu.Unlock()
	}
	return n
}

func (s *collapseSet) bytes() int64 {
	var b int64
	for i := range s.comps {
		b += s.comps[i].bytes()
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		b += sh.t.bytes() + int64(cap(sh.scratch))
		sh.mu.Unlock()
	}
	return b
}

// reset drops the stored tuples but keeps the component side tables:
// after a spill the same sub-vectors keep resolving to the same
// indices, so compression keeps working without re-paying warm-up.
func (s *collapseSet) reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.t.reset()
		sh.mu.Unlock()
	}
}

// parBitstateSet is the bitstate (supertrace) structure of the level
// engine: a blocked Bloom filter of 2^bitsLog2 bits in which a
// fingerprint sets 3 bits of one word (bloomSlot; 3 is Spin's default
// bitstate hash count). One CAS sets all three, so of workers racing on
// the same state exactly one sees bits it set, and it alone stores the
// state. Which of two hash-colliding distinct states is counted as
// stored can still depend on arrival order — bitstate coverage is
// probabilistic in any case.
type parBitstateSet struct {
	bits       []uint64
	count      atomic.Int64
	contention *obs.Counter // lost CASes
}

func newParBitstateSet(bitsLog2 uint, contention *obs.Counter) *parBitstateSet {
	if bitsLog2 < 10 {
		bitsLog2 = 10
	}
	return &parBitstateSet{bits: make([]uint64, 1<<(bitsLog2-6)), contention: contention}
}

func (s *parBitstateSet) seen(_ int, fp uint64, _ []byte) bool {
	w, mask := bloomSlot(fp, uint64(len(s.bits)))
	word := &s.bits[w]
	for {
		old := atomic.LoadUint64(word)
		if old&mask == mask {
			return true
		}
		if atomic.CompareAndSwapUint64(word, old, old|mask) {
			s.count.Add(1)
			return false
		}
		s.contention.Add(1)
	}
}

func (s *parBitstateSet) contains(fp uint64, _ []byte) bool {
	w, mask := bloomSlot(fp, uint64(len(s.bits)))
	return atomic.LoadUint64(&s.bits[w])&mask == mask
}

// bloomSlot places fp in a blocked Bloom filter of words 64-bit words:
// the word it sets, hi64(fp·words), which rises with fp, and the 3 bits
// it sets there, taken from fp's low bits. Both the bitstate set and the
// spill segments' fingerprint filters use it.
func bloomSlot(fp, words uint64) (word, mask uint64) {
	word, _ = bits.Mul64(fp, words)
	return word, 1<<(fp&63) | 1<<(fp>>6&63) | 1<<(fp>>12&63)
}

func (s *parBitstateSet) size() int { return int(s.count.Load()) }

func (s *parBitstateSet) bytes() int64 { return int64(len(s.bits)) * 8 }

// VisitedExact and VisitedCollapse name the exact visited-set storage
// modes for Options.Visited.
const (
	VisitedExact    = "exact"
	VisitedCollapse = "collapse"
)

// newParVisited builds the visited structure of a search with the given
// workers: bitstate when requested, otherwise an exact or
// collapse-compressed set per Options.Visited, wrapped in the disk-spill
// tier when a memory budget is configured (only then are the spill
// tier's instruments registered for phase).
func (c *Checker) newParVisited(phase string, workers int, contention, spilled *obs.Counter) parVisited {
	st := c.opts.Storage
	if st.Bitstate {
		bits := st.BitstateBits
		if bits == 0 {
			bits = 24
		}
		return newParBitstateSet(bits, contention)
	}
	var mem memTier
	init := c.sys.InitialState()
	if st.Visited == VisitedCollapse {
		mem = newCollapseSet(init, contention)
	} else {
		mem = newStateTable(len(init.Bytes()), workers, contention)
	}
	if st.MemLimit > 0 {
		return newSpillSet(mem, len(init.Bytes()), st.MemLimit, st.SpillDir, newSpillMetrics(c.opts.Metrics, phase, spilled))
	}
	return mem
}

// visitedGate is the grow gate the level engine's workers pass at every
// node: the exact set's, directly or under the spill tier; nil for the
// other sets, which grow under their own locks.
func visitedGate(v parVisited) *growGate {
	switch v := v.(type) {
	case *stateTable:
		return v.gate
	case *spillSet:
		return visitedGate(v.mem)
	}
	return nil
}
