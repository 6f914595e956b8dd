package checker

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"pnp/internal/model"
	"pnp/internal/obs"
)

// parVisited is the duplicate detector of the parallel engine. seen
// tests-and-sets a state by its canonical encoding enc (the bytes
// State.AppendKey produces), its 64-bit fingerprint fp
// (model.Hash64(enc)), and the component section boundaries ends (from
// State.AppendComponentKeys; nil makes implementations that need them
// recompute the split from the system shape). It reports whether the
// state was already present. Implementations are safe for concurrent
// callers; enc and ends are only read during the call and may be reused
// by the caller afterwards.
type parVisited interface {
	seen(fp uint64, enc []byte, ends []int) bool
	size() int
	// bytes estimates the resident memory of the structure: stored
	// entries plus table overhead. It feeds the checker_visited_bytes
	// gauge and the Options.MemLimit spill decision, and is only called
	// at level barriers (no concurrent seen).
	bytes() int64
}

// visitedDrainer is the extra capability the spill tier needs from its
// in-memory set: stream out every stored encoding and then forget them
// (side tables survive a reset so collapse interning keeps paying off).
type visitedDrainer interface {
	parVisited
	// forEachEncoding calls fn with every stored full canonical encoding.
	// fn must not retain enc. Only called at level barriers.
	forEachEncoding(fn func(enc []byte))
	// reset drops all stored entries (size returns 0 afterwards).
	reset()
}

// visitedShards is the stripe count of the parallel visited structures.
// 64 stripes keep the probability of two workers wanting the same lock
// low even at high core counts, for a fixed cost of a few KiB.
const visitedShards = 64

// encTable is an open-addressed hash table of byte strings over an
// append-only arena of [uvarint length][bytes] entries. Each slot packs
// the top 28 bits of the entry's fingerprint (its tag) with the entry's
// arena position + 1 into one uint64, zero marking an empty slot, so slot
// overhead is 8 bytes against the ~48 of the map[uint64][]string it
// replaced — and entries live as one length-prefixed copy in the arena
// instead of a string header plus heap object each.
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
	idxs  []uint32 // per-slot intern index; nil unless insertAt is given one
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
	t.ensure()
	slot, ok := t.find(fp, b)
	if ok {
		return true
	}
	t.insertAt(slot, fp, b, 0)
	return false
}

func (t *encTable) ensure() {
	if len(t.slots) == 0 {
		t.slots = make([]uint64, encTableMinSlots)
		t.shift = 64 - encTableMinSlotsLog2
	}
}

// insertAt stores b in the empty slot find returned and reports the
// arena position of its entry.
func (t *encTable) insertAt(slot, fp uint64, b []byte, idx uint32) uint64 {
	pos := t.appendEntry(b)
	t.slots[slot] = fp&^encPosMask | (pos + 1)
	if t.idxs != nil {
		t.idxs[slot] = idx
	}
	t.n++
	if t.n*4 >= len(t.slots)*3 {
		t.grow()
	}
	return pos
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
	old, oldIdxs := t.slots, t.idxs
	n := 2 * len(old)
	if n > encTableMaxSlots {
		panic("checker: visited table exceeds 2^28 slots")
	}
	t.slots = make([]uint64, n)
	if oldIdxs != nil {
		t.idxs = make([]uint32, n)
	}
	t.shift--
	mask := uint64(n - 1)
	for i, s := range old {
		if s == 0 {
			continue
		}
		// The home slot is a prefix of the tag the slot word keeps.
		j := s >> t.shift
		for t.slots[j] != 0 {
			j = (j + 1) & mask
		}
		t.slots[j] = s
		if oldIdxs != nil {
			t.idxs[j] = oldIdxs[i]
		}
	}
}

// bytes is the resident footprint: arena pages plus slot arrays.
func (t *encTable) bytes() int64 {
	return int64(t.total) + int64(cap(t.slots))*8 + int64(cap(t.idxs))*4
}

func (t *encTable) forEach(fn func(enc []byte)) {
	for _, s := range t.slots {
		if s != 0 {
			fn(t.entryAt(s&encPosMask - 1))
		}
	}
}

func (t *encTable) reset() {
	*t = encTable{}
}

// visitedShard is one stripe of shardedSet / collapseSet: a lock, an
// encTable of entries routed here by fingerprint, and (collapse only) a
// scratch buffer for building index tuples under the lock.
type visitedShard struct {
	mu      sync.Mutex
	t       encTable
	scratch []byte
}

// shardedSet is the exact visited set of the parallel engine: states
// route to one of visitedShards stripes by fingerprint, and each stripe
// keeps full encodings in an open-addressed encTable, so a lookup
// compares the cheap uint64 first and the bytes only on a slot hit.
type shardedSet struct {
	shards [visitedShards]visitedShard
	stored atomic.Int64
	// contention counts TryLock misses — a worker arriving at a stripe
	// another worker holds. Nil (metrics disabled) is a no-op.
	contention *obs.Counter
}

func newShardedSet(contention *obs.Counter) *shardedSet {
	return &shardedSet{contention: contention}
}

func (s *shardedSet) seen(fp uint64, enc []byte, _ []int) bool {
	sh := &s.shards[fp%visitedShards]
	if !sh.mu.TryLock() {
		s.contention.Add(1)
		sh.mu.Lock()
	}
	had := sh.t.testAndSet(fp, enc)
	sh.mu.Unlock()
	if !had {
		s.stored.Add(1)
	}
	return had
}

func (s *shardedSet) size() int { return int(s.stored.Load()) }

func (s *shardedSet) bytes() int64 {
	var b int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		b += sh.t.bytes()
		sh.mu.Unlock()
	}
	return b
}

func (s *shardedSet) forEachEncoding(fn func(enc []byte)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.t.forEach(fn)
		sh.mu.Unlock()
	}
}

func (s *shardedSet) reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.t.reset()
		sh.mu.Unlock()
	}
	s.stored.Store(0)
}

// collapseTable interns the sub-vectors of one component (one process's
// locals, one channel's contents, or the shared core). Reads take the
// read lock — after warm-up almost every component of a new state is
// already interned — and only a genuinely new sub-vector upgrades to
// the write lock. starts records each entry's arena position by intern
// index so tuples can be expanded back into full encodings for a spill.
type collapseTable struct {
	mu     sync.RWMutex
	t      encTable
	starts []uint64
}

func (ct *collapseTable) intern(b []byte) uint32 {
	fp := model.Hash64(b)
	ct.mu.RLock()
	slot, ok := ct.t.find(fp, b)
	if ok {
		idx := ct.t.idxs[slot]
		ct.mu.RUnlock()
		return idx
	}
	ct.mu.RUnlock()
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.t.ensure()
	if ct.t.idxs == nil {
		ct.t.idxs = make([]uint32, len(ct.t.slots))
	}
	slot, ok = ct.t.find(fp, b)
	if ok {
		return ct.t.idxs[slot]
	}
	idx := uint32(len(ct.starts))
	ct.starts = append(ct.starts, ct.t.insertAt(slot, fp, b, idx))
	return idx
}

func (ct *collapseTable) entry(idx uint32) []byte {
	return ct.t.entryAt(ct.starts[idx])
}

func (ct *collapseTable) bytes() int64 {
	ct.mu.RLock()
	defer ct.mu.RUnlock()
	return ct.t.bytes() + int64(cap(ct.starts))*8
}

// collapseSet is the collapse-compressed visited set (Spin's -DCOLLAPSE
// analogue): each component sub-vector of a state is interned once in a
// per-component side table, and the state itself is stored as a tuple
// of uvarint intern indices, routed to a stripe by the fingerprint of
// the full encoding. Tuple equality is equivalent to encoding equality
// — two states produce the same tuple iff every component matches —
// so membership, verdicts, and StatesStored are identical to the exact
// set even though the physical index assignment varies run to run.
// The trade is CPU for memory: one extra hash+probe per component.
type collapseSet struct {
	comps  []collapseTable // 1 + processes + channels
	shards [visitedShards]visitedShard
	stored atomic.Int64
	// shape re-splits encodings that arrive without section boundaries
	// (checkpoint restore).
	shape      *model.State
	contention *obs.Counter
}

func newCollapseSet(shape *model.State, contention *obs.Counter) *collapseSet {
	return &collapseSet{
		comps:      make([]collapseTable, shape.NumComponents()),
		shape:      shape,
		contention: contention,
	}
}

func (s *collapseSet) seen(fp uint64, enc []byte, ends []int) bool {
	if ends == nil {
		var err error
		ends, err = model.ComponentEnds(s.shape, enc, nil)
		if err != nil {
			// Only reachable with an encoding that AppendKey could not
			// have produced: intern it whole, as a one-index tuple, so
			// the set stays total rather than dropping the state.
			ends = []int{len(enc)}
		}
	}
	sh := &s.shards[fp%visitedShards]
	if !sh.mu.TryLock() {
		s.contention.Add(1)
		sh.mu.Lock()
	}
	tuple := sh.scratch[:0]
	start := 0
	for i, end := range ends {
		tuple = binary.AppendUvarint(tuple, uint64(s.comps[i].intern(enc[start:end])))
		start = end
	}
	sh.scratch = tuple
	// Equal tuples are equal states, so the state fingerprint keys the
	// tuple in the stripe table as well as routing to the stripe.
	had := sh.t.testAndSet(fp, tuple)
	sh.mu.Unlock()
	if !had {
		s.stored.Add(1)
	}
	return had
}

func (s *collapseSet) size() int { return int(s.stored.Load()) }

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

// forEachEncoding expands every stored tuple back into the full
// canonical encoding via the side tables.
func (s *collapseSet) forEachEncoding(fn func(enc []byte)) {
	var buf []byte
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.t.forEach(func(tuple []byte) {
			buf = buf[:0]
			for _, ct := range s.compRefs(tuple) {
				buf = append(buf, ct...)
			}
			fn(buf)
		})
		sh.mu.Unlock()
	}
}

// compRefs decodes a tuple into its component byte slices. A tuple that
// does not decode to the expected component count is an exact-stored
// fallback entry (see seen) and is returned as-is.
func (s *collapseSet) compRefs(tuple []byte) [][]byte {
	refs := make([][]byte, 0, len(s.comps))
	rest := tuple
	for i := range s.comps {
		idx, w := binary.Uvarint(rest)
		if w <= 0 {
			return [][]byte{tuple}
		}
		s.comps[i].mu.RLock()
		ok := idx < uint64(len(s.comps[i].starts))
		var e []byte
		if ok {
			e = s.comps[i].entry(uint32(idx))
		}
		s.comps[i].mu.RUnlock()
		if !ok {
			return [][]byte{tuple}
		}
		refs = append(refs, e)
		rest = rest[w:]
	}
	if len(rest) != 0 {
		return [][]byte{tuple}
	}
	return refs
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
	s.stored.Store(0)
}

// paddedMutex is a mutex padded to its own cache line.
type paddedMutex struct {
	sync.Mutex
	_ [56]byte
}

// parBitstateSet is the bitstate (supertrace) structure of the parallel
// engine. Bit words are shared across stripes and flipped with CAS, but
// the test-and-set decision for one fingerprint is serialized by a
// stripe lock so two workers racing on the same state cannot both claim
// to have stored it. Which of two hash-colliding distinct states is
// counted as stored can still depend on arrival order — bitstate
// coverage is probabilistic in the sequential engine too.
type parBitstateSet struct {
	locks      [visitedShards]paddedMutex
	bits       []uint64
	mask       uint64
	count      atomic.Int64
	contention *obs.Counter
}

func newParBitstateSet(bitsLog2 uint, contention *obs.Counter) *parBitstateSet {
	if bitsLog2 < 10 {
		bitsLog2 = 10
	}
	n := uint64(1) << bitsLog2
	return &parBitstateSet{bits: make([]uint64, n/64), mask: n - 1, contention: contention}
}

func (s *parBitstateSet) seen(fp uint64, enc []byte, _ []int) bool {
	a, b := bitstateHashes(enc, s.mask)
	lk := &s.locks[fp%visitedShards]
	if !lk.TryLock() {
		s.contention.Add(1)
		lk.Lock()
	}
	hadA := s.setBit(a)
	hadB := s.setBit(b)
	lk.Unlock()
	if hadA && hadB {
		return true
	}
	s.count.Add(1)
	return false
}

// setBit atomically sets bit pos, reporting whether it was already set.
// A CAS loop rather than atomic.Uint64.Or: the module targets go1.22.
func (s *parBitstateSet) setBit(pos uint64) bool {
	word := &s.bits[pos/64]
	bit := uint64(1) << (pos % 64)
	for {
		old := atomic.LoadUint64(word)
		if old&bit != 0 {
			return true
		}
		if atomic.CompareAndSwapUint64(word, old, old|bit) {
			return false
		}
	}
}

func (s *parBitstateSet) size() int { return int(s.count.Load()) }

func (s *parBitstateSet) bytes() int64 { return int64(len(s.bits)) * 8 }

// VisitedExact and VisitedCollapse name the exact visited-set storage
// modes for Options.Visited.
const (
	VisitedExact    = "exact"
	VisitedCollapse = "collapse"
)

// newParVisited builds the parallel engine's visited structure:
// bitstate when requested, otherwise an exact or collapse-compressed
// set per Options.Visited, wrapped in the disk-spill tier when a memory
// budget is configured.
func (c *Checker) newParVisited(contention, spilled *obs.Counter) parVisited {
	st := c.opts.Storage
	if st.Bitstate {
		bits := st.BitstateBits
		if bits == 0 {
			bits = 24
		}
		return newParBitstateSet(bits, contention)
	}
	var mem visitedDrainer
	if st.Visited == VisitedCollapse {
		mem = newCollapseSet(c.sys.InitialState(), contention)
	} else {
		mem = newShardedSet(contention)
	}
	if st.MemLimit > 0 {
		return newSpillSet(mem, st.MemLimit, st.SpillDir, spilled)
	}
	return mem
}
