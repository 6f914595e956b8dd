package checker

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"pnp/internal/frame"
	"pnp/internal/model"
	"pnp/internal/obs"
)

// The spill tier keeps searches alive past Options.MemLimit. A budgeted
// search writes every level once, at its barrier, to its level log
// (checkpoint.go): the checkpoint file under Options.Durability, else an
// unsynced scratch log in the spill directory. The log is the
// one on-disk copy of every state, as the on-disk BFS queue is the state
// store in Stern & Dill's disk-based Murφ (CAV 1998). When the in-memory
// visited set exceeds the budget at a barrier, the states logged since
// the last spill become an immutable segment of sorted (fingerprint, log
// offset) pairs, and the in-memory tier starts over (collapse side
// tables survive). Lookups ask the in-memory tier first — within a level
// segments are immutable and the in-memory tier only grows — then probe
// the segments read-only, lock-free, comparing a candidate with its
// vector in a read-only mapping of the log. Membership stays exact, so
// verdicts and StatesStored match the unbudgeted run.
//
// Keys live apart from values, as in WiscKey (Lu et al., FAST 2016): only
// the 16-byte index entries are ever rewritten. Indexes merge as a binary
// counter over spills (an LSM tree's logarithmic method): a spill's
// segment k-way merges the new entries with the indexes of every trailing
// segment holding no more spills than the running total, and unmaps
// those. So after S spills a search maps at most ⌊log2 S⌋+1 indexes plus
// the log, and rewrites each entry at most log2 S times.
//
// Almost every probe of a segment is a miss, so each segment carries a
// fingerprint filter, as each run of an LSM store does (Dayan,
// Athanassoulis & Idreos, "Monkey", SIGMOD 2017): a blocked Bloom filter
// of ⌈10·count/64⌉ 64-bit words, 10 bits per entry, where an entry sets
// 3 bits of one word (bloomSlot), so a probe reads one word and
// searches the index only when all three bits are set — for about 2.3 %
// of absent states. validate checks every entry's bits, so a filter
// never hides a state. Lookups walk the segments newest first: the
// newest is the smallest, and the one where a breadth-first search
// finds most of its matches.
//
// Segment layout (internal/frame's CRC framing):
//
//	8-byte magic "PNPSPIL4"
//	framed index: count × [fp u64 LE][log offset u64 LE], sorted by fp
//	framed filter: spillFilterWords(count) × [u64 LE]
//
// The frame lengths give count and the filter size; validate requires
// them to agree.
//
// Segments and the scratch log are private scratch, never fsynced: each
// is unlinked as it is created (scratchFile), so it lives only as long
// as its descriptor and mappings, and a search leaves nothing on disk
// however it ends — a merged-away segment is gone once unmapped. Resume
// rebuilds an index from the checkpoint log. A corrupt segment fails
// validation before it goes live, and so does its spill.
const spillMagic = "PNPSPIL4"

// spillFilterWords is the filter size of a segment of count entries:
// 10 bits per entry, in whole words.
func spillFilterWords(count int) int { return (10*count + 63) / 64 }

// spillFrameMax is the largest payload a u32-length frame can hold.
const spillFrameMax = 1<<32 - 1

// spillMaxFiles bounds the live segments of one search, one mapping
// each. Mappings are a per-process limit (vm.max_map_count, 65530 by
// default) shared with concurrent searches and the Go heap, so a search
// that reaches this many turns the tier off rather than let an mmap or
// the runtime run out of them. The binary counter keeps the live count
// at the number of set bits of the spill count, so only indexes too
// large to merge within the frame limit can pile up this far.
const spillMaxFiles = 1 << 12

// spillSecondsBuckets bound checker_spill_seconds: a spill of a few
// states takes well under a millisecond, a multi-GB one seconds.
var spillSecondsBuckets = []float64{0.0001, 0.001, 0.004, 0.016, 0.064, 0.256, 1, 4, 16}

// spillMetrics are the spill tier's instruments; nil ones are no-ops.
type spillMetrics struct {
	states  *obs.Counter   // checker_visited_spilled_states_total
	bytes   *obs.Counter   // checker_spill_bytes_total: segments and the scratch log
	seconds *obs.Histogram // checker_spill_seconds
	off     *obs.Counter   // checker_spill_tier_off_total: searches whose tier turned off
}

// newSpillMetrics registers the spill tier's instruments for phase
// beside states, the spilled-states counter every search registers.
func newSpillMetrics(reg *obs.Registry, phase string, states *obs.Counter) spillMetrics {
	return spillMetrics{
		states:  states,
		bytes:   reg.Counter(obs.Labels("checker_spill_bytes_total", "phase", phase)),
		seconds: reg.Histogram(obs.Labels("checker_spill_seconds", "phase", phase), spillSecondsBuckets),
		off:     reg.Counter(obs.Labels("checker_spill_tier_off_total", "phase", phase)),
	}
}

// memTier is what the spill tier needs of its in-memory set: to forget
// every entry once they are indexed on disk. Side tables survive a
// reset, so collapse interning keeps paying off.
type memTier interface {
	parVisited
	reset()
}

// spillSet wraps an in-memory visited set with the segment tier.
// Segments are only added at level barriers (checkpointer.barrier),
// which the runner serializes, so workers inside a level read an
// immutable segment list and log mapping without locks.
type spillSet struct {
	mem      memTier
	limit    int64
	width    int                            // bytes of every state vector
	dir      string                         // where scratch files go ("" = system temp), created on demand
	scratch  func(string) (*os.File, error) // scratchFile; tests substitute failures
	log      fileView                       // the log's prefix as of the last spill
	segs     []*spillSegment                // the live indexes, oldest first; a lookup probes them newest first
	pending  []ckptRun                      // the level frames logged since the last spill, queued by checkpointer.writeLevel
	spilled  atomic.Int64
	failed   bool // a failed spill or log write disables the tier; memory keeps growing
	maxFiles int  // live segments past which the tier turns off (spillMaxFiles)
	m        spillMetrics
}

func newSpillSet(mem memTier, width int, limit int64, dir string, m spillMetrics) *spillSet {
	return &spillSet{mem: mem, width: width, limit: limit, dir: dir, scratch: scratchFile, maxFiles: spillMaxFiles, m: m}
}

func (s *spillSet) seen(k int, fp uint64, enc []byte) bool {
	return s.mem.contains(fp, enc) || s.spilledHas(fp, enc) || s.mem.seen(k, fp, enc)
}

func (s *spillSet) contains(fp uint64, enc []byte) bool {
	return s.mem.contains(fp, enc) || s.spilledHas(fp, enc)
}

// spilledHas probes the segments newest first.
func (s *spillSet) spilledHas(fp uint64, enc []byte) bool {
	for i := len(s.segs) - 1; i >= 0; i-- {
		if s.segs[i].contains(fp, enc, s.log.data) {
			return true
		}
	}
	return false
}

// size is the total membership: spilled entries plus the in-memory tier.
func (s *spillSet) size() int { return int(s.spilled.Load()) + s.mem.size() }

// bytes reports only resident memory: the log and the segments are
// file-backed, their mapped pages reclaimable.
func (s *spillSet) bytes() int64 { return s.mem.bytes() }

// create makes a scratch file, the scratch log or a segment, in the
// spill directory, creating the directory if it is missing.
func (s *spillSet) create() (*os.File, error) {
	if s.dir != "" {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, err
		}
	}
	return s.scratch(s.dir)
}

// fail turns the tier off for the rest of the search: what is in
// memory stays there and grows, and the live segments stay probed.
func (s *spillSet) fail() {
	if !s.failed {
		s.m.off.Add(1)
	}
	s.failed = true
}

// due reports whether the in-memory tier exceeds the budget, so the
// barrier must spill.
func (s *spillSet) due() bool {
	return !s.failed && s.mem.bytes() > s.limit && s.mem.size() > 0
}

// spill indexes the vectors of the pending level frames — the states
// the in-memory tier holds — in a new segment whose index also merges
// those of the trailing segments spillFold picks, then unmaps those
// and empties the in-memory tier. A failed merge is retried as a plain
// spill, and no live segment is touched before the new one validates.
// A spill that fails anyway (unwritable directory, a log shorter than
// logSize, invalid segment), or would pass maxFiles live segments,
// turns the tier off. It reports whether the states were indexed. The
// log is read through the writer's own file, never reopened by path: a
// file renamed over the path cannot stand in for it.
func (s *spillSet) spill(log *os.File, logSize int64) bool {
	if len(s.segs) >= s.maxFiles || s.log.extendTo(log, logSize) != nil {
		s.fail()
		return false
	}
	t0 := time.Now()
	n := 0
	for _, r := range s.pending {
		n += r.n
	}
	ents := make([]idxEnt, 0, n)
	eachVector(s.log.data, s.pending, s.width, func(off int64, vec []byte) {
		ents = append(ents, idxEnt{fp: model.Hash64(vec), off: uint64(off)})
	})
	sortByFP(ents)
	first := spillFold(len(ents), s.segs)
	seg, err := s.writeSegment(ents, s.segs[first:])
	if err != nil && first < len(s.segs) {
		first = len(s.segs)
		seg, err = s.writeSegment(ents, nil)
	}
	if err != nil {
		s.fail()
		return false
	}
	for _, old := range s.segs[first:] {
		old.close()
	}
	s.segs = append(s.segs[:first], seg)
	s.pending = s.pending[:0]
	s.mem.reset()
	s.spilled.Add(int64(len(ents)))
	s.m.states.Add(int64(len(ents)))
	s.m.bytes.Add(int64(len(seg.view.data)))
	s.m.seconds.Observe(time.Since(t0).Seconds())
	return true
}

// writeSegment lays out, in a new scratch file, a segment whose index
// k-way merges the sorted entries with the indexes of srcs, and
// validates it through the view it was laid out in. The descriptor is
// then closed: the view alone holds the file. A segment that does not
// validate is treated as lost rather than trusted.
func (s *spillSet) writeSegment(ents []idxEnt, srcs []*spillSegment) (*spillSegment, error) {
	total := len(ents)
	for _, src := range srcs {
		total += src.count
	}
	if 16*uint64(total) > spillFrameMax {
		return nil, fmt.Errorf("checker: spill: index exceeds frame limit (%d entries)", total)
	}
	f, err := s.create()
	if err != nil {
		return nil, err
	}
	defer closeScratch(f)
	view, err := writeScratch(f, spillSegmentSize(total), func(data []byte) {
		layoutSpillSegment(data, total, ents, srcs)
	})
	if err != nil {
		return nil, err
	}
	seg := &spillSegment{view: view, spills: 1}
	if err := seg.validate(int64(len(s.log.data)), s.width); err != nil {
		seg.close()
		return nil, err
	}
	for _, src := range srcs {
		seg.spills += src.spills
	}
	return seg, nil
}

// spillFold returns the index of the oldest segment a spill of n
// entries folds into its new segment's index (len(segs): none). It
// walks back from the newest segment, folding each one that holds no
// more spills than the running total: spill counts then stay distinct
// powers of two, strictly decreasing from the oldest segment, like the
// bits of a binary counter. The walk also stops before a segment that
// would take the merged index past the frame limit, so a merge is never
// what overflows a frame (past that size the counter is no longer
// binary and segments may accumulate).
func spillFold(n int, segs []*spillSegment) int {
	spills, count := 1, uint64(n)
	i := len(segs)
	for ; i > 0; i-- {
		g := segs[i-1]
		if g.spills > spills || 16*(count+uint64(g.count)) > spillFrameMax {
			break
		}
		spills += g.spills
		count += uint64(g.count)
	}
	return i
}

// close releases the mappings of the segments and the log, the last
// references to the segments' unlinked files.
func (s *spillSet) close() {
	for _, seg := range s.segs {
		seg.close()
	}
	s.segs = nil
	s.log.close()
}

// idxEnt is one index entry: a state's fingerprint and the log offset
// of its vector.
type idxEnt struct{ fp, off uint64 }

// sortByFP sorts ents by fingerprint in place. One American flag sort
// pass (McIlroy, Bostic & McIlroy, Computing Systems 1993) moves each
// entry into the bucket of its fingerprint's top byte, so a spill's few
// thousand uniform fingerprints leave buckets of a few entries, which
// an insertion sort finishes. It needs no copy of ents, unlike an LSD
// radix sort, and a tenth of the time of a comparison sort.
func sortByFP(ents []idxEnt) {
	var start, next [257]int
	for _, e := range ents {
		start[e.fp>>56+1]++
	}
	for b := range 256 {
		start[b+1] += start[b]
		next[b] = start[b]
	}
	for b := range 256 {
		for next[b] < start[b+1] {
			e := ents[next[b]]
			for d := int(e.fp >> 56); d != b; d = int(e.fp >> 56) {
				ents[next[d]], e = e, ents[next[d]]
				next[d]++
			}
			ents[next[b]] = e
			next[b]++
		}
	}
	for b := range 256 {
		bucket := ents[start[b]:start[b+1]]
		if len(bucket) > 32 {
			slices.SortFunc(bucket, func(a, b idxEnt) int { return cmp.Compare(a.fp, b.fp) })
			continue
		}
		for i := 1; i < len(bucket); i++ {
			for j := i; j > 0 && bucket[j].fp < bucket[j-1].fp; j-- {
				bucket[j], bucket[j-1] = bucket[j-1], bucket[j]
			}
		}
	}
}

// spillSegmentSize is the byte size of a segment of total entries.
func spillSegmentSize(total int) int {
	return len(spillMagic) + 2*frame.HeaderSize + 16*total + 8*spillFilterWords(total)
}

// layoutSpillSegment lays out in data, spillSegmentSize(total) zeroed
// bytes, the segment whose index k-way merges the sorted entries with
// the sorted indexes of srcs, total entries in all. Each entry ORs its
// bits into its filter word in place, and each frame's header is
// written last, over the payload just laid out.
func layoutSpillSegment(data []byte, total int, entries []idxEnt, srcs []*spillSegment) {
	copy(data, spillMagic)
	indexAt := len(spillMagic) + frame.HeaderSize
	index := data[indexAt : indexAt+16*total]
	filterAt := indexAt + len(index) + frame.HeaderSize
	filter := data[filterAt:]
	words := uint64(len(filter) / 8)
	heads := make([]int, len(srcs))
	headFPs := make([]uint64, len(srcs)) // the fingerprint at each head
	for k, src := range srcs {
		if src.count > 0 {
			headFPs[k] = src.fpAt(0)
		}
	}
	next := 0
	for at := 0; at < len(index); at += 16 {
		best := -1
		var fp, off uint64
		for k, src := range srcs {
			if heads[k] < src.count && (best < 0 || headFPs[k] < fp) {
				best, fp = k, headFPs[k]
			}
		}
		if next < len(entries) && (best < 0 || entries[next].fp < fp) {
			fp, off = entries[next].fp, entries[next].off
			next++
		} else {
			src := srcs[best]
			off = src.offAt(heads[best])
			if heads[best]++; heads[best] < src.count {
				headFPs[best] = src.fpAt(heads[best])
			}
		}
		binary.LittleEndian.PutUint64(index[at:], fp)
		binary.LittleEndian.PutUint64(index[at+8:], off)
		w, mask := bloomSlot(fp, words)
		word := filter[8*w:]
		binary.LittleEndian.PutUint64(word, binary.LittleEndian.Uint64(word)|mask)
	}
	h := frame.Header(index)
	copy(data[indexAt-frame.HeaderSize:], h[:])
	h = frame.Header(filter)
	copy(data[filterAt-frame.HeaderSize:], h[:])
}

// spillSegment is one immutable on-disk index, probed through the view
// of the whole file it was laid out in.
type spillSegment struct {
	view      fileView
	count     int
	spills    int // spills merged into this segment's index (in memory only)
	indexOff  int
	filterOff int
	words     uint64 // of the filter
}

// validate fully checks the segment's view as an index of width-byte
// vectors in a level log of logLen bytes: its frames' CRCs, its sort
// order, every entry's vector inside the log and every entry's bits in
// the filter. Callers discard a segment that fails and carry on — a
// corrupt segment degrades the search, never crashes it.
func (g *spillSegment) validate(logLen int64, width int) error {
	data := g.view.data
	bad := func(msg string) error { return fmt.Errorf("checker: spill segment: %s", msg) }
	if len(data) < len(spillMagic)+8 || string(data[:len(spillMagic)]) != spillMagic {
		return bad("bad magic")
	}
	pos := len(spillMagic)
	next := func() ([]byte, error) {
		payload, rest, err := frame.Next(data[pos:])
		if err != nil {
			return nil, bad(err.Error())
		}
		pos = len(data) - len(rest)
		return payload, nil
	}
	g.indexOff = pos + frame.HeaderSize
	index, err := next()
	if err != nil {
		return err
	}
	g.filterOff = pos + frame.HeaderSize
	filter, err := next()
	if err != nil {
		return err
	}
	if pos != len(data) {
		return bad("trailing bytes")
	}
	if len(index)%16 != 0 {
		return bad("index not whole entries")
	}
	g.count = len(index) / 16
	if len(filter) != 8*spillFilterWords(g.count) {
		return bad("filter/count mismatch")
	}
	g.words = uint64(len(filter) / 8)
	var prev uint64
	for i := 0; i < g.count; i++ {
		fp := g.fpAt(i)
		if i > 0 && fp < prev {
			return bad("index not sorted")
		}
		prev = fp
		if off := g.offAt(i); off > uint64(logLen) || uint64(logLen)-off < uint64(width) {
			return bad("entry outside the log")
		}
		if !g.mayHold(fp) {
			return bad("entry missing from the filter")
		}
	}
	return nil
}

// mayHold reports whether fp passes the filter: false means the segment
// does not hold it.
func (g *spillSegment) mayHold(fp uint64) bool {
	if g.words == 0 {
		return false
	}
	w, mask := bloomSlot(fp, g.words)
	return binary.LittleEndian.Uint64(g.view.data[g.filterOff+8*int(w):])&mask == mask
}

func (g *spillSegment) fpAt(i int) uint64 {
	return binary.LittleEndian.Uint64(g.view.data[g.indexOff+16*i:])
}

func (g *spillSegment) offAt(i int) uint64 {
	return binary.LittleEndian.Uint64(g.view.data[g.indexOff+16*i+8:])
}

// contains probes the segment: the filter, then binary search over the
// sorted fingerprint index, then byte comparison of each colliding
// entry's vector in log, a view of the level log at least as long as
// the one the segment was validated against.
func (g *spillSegment) contains(fp uint64, enc, log []byte) bool {
	if !g.mayHold(fp) {
		return false
	}
	i := sort.Search(g.count, func(i int) bool { return g.fpAt(i) >= fp })
	for ; i < g.count && g.fpAt(i) == fp; i++ {
		if off := g.offAt(i); off+uint64(len(enc)) <= uint64(len(log)) && bytes.Equal(log[off:off+uint64(len(enc))], enc) {
			return true
		}
	}
	return false
}

func (g *spillSegment) close() { g.view.close() }

// extendTo extends v to the first size bytes of f, open for reading
// (the whole file when size < 0). A file shorter than size is an error:
// a view never reaches past the end of its file.
func (v *fileView) extendTo(f *os.File, size int64) error {
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if size < 0 {
		size = fi.Size()
	} else if size > fi.Size() {
		return fmt.Errorf("checker: %s holds %d bytes, not %d", f.Name(), fi.Size(), size)
	}
	if size <= int64(len(v.data)) {
		return nil
	}
	return v.extend(f, size)
}

// growHeap extends data, an in-heap copy of a prefix of f, to f's first
// size bytes by reading only the bytes past it. The copy grows like an
// append, so extending a log at every spill costs linear time overall.
func growHeap(data []byte, f *os.File, size int64) ([]byte, error) {
	old := len(data)
	data = slices.Grow(data, int(size)-old)[:size]
	if _, err := f.ReadAt(data[old:], int64(old)); err != nil {
		return data[:old], err
	}
	return data, nil
}
