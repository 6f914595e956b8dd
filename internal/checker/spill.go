package checker

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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
// unsynced scratch log in the search's spill directory. The log is the
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
// segment holding no more spills than the running total, and deletes
// those. So after S spills a search maps at most ⌊log2 S⌋+1 indexes plus
// the log, and rewrites each entry at most log2 S times.
//
// Segment layout (internal/frame's CRC framing; the index frame is
// streamed and its header patched afterwards):
//
//	8-byte magic "PNPSPIL2"
//	framed 'H' JSON header {count}
//	framed index: count × [fp u64 LE][log offset u64 LE], sorted by fp
//
// Segments are private scratch, never fsynced and deleted when merged or
// when the search ends; resume rebuilds an index from the checkpoint log.
// A corrupt segment fails validation at open and turns the tier off.
const spillMagic = "PNPSPIL2"

const spillSectionHeader = 'H'

type spillHeader struct {
	Count int `json:"count"`
}

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
	width    int             // bytes of every state vector
	dir      string          // user-chosen parent ("" = system temp)
	runDir   string          // per-search directory, created lazily
	log      fileView        // the log's prefix as of the last spill
	segs     []*spillSegment // the live indexes, oldest first: what a lookup probes
	pending  []ckptRun       // the level frames logged since the last spill, queued by checkpointer.writeLevel
	written  int             // segment files attempted so far; names the next one
	w        *bufio.Writer   // reused by every spill
	spilled  atomic.Int64
	failed   bool // a failed spill or log write disables the tier; memory keeps growing
	maxFiles int  // live segments past which the tier turns off (spillMaxFiles)
	m        spillMetrics
}

func newSpillSet(mem memTier, width int, limit int64, dir string, m spillMetrics) *spillSet {
	return &spillSet{mem: mem, width: width, limit: limit, dir: dir, maxFiles: spillMaxFiles, m: m}
}

func (s *spillSet) seen(k int, fp uint64, enc []byte) bool {
	return s.mem.contains(fp, enc) || s.spilledHas(fp, enc) || s.mem.seen(k, fp, enc)
}

func (s *spillSet) contains(fp uint64, enc []byte) bool {
	return s.mem.contains(fp, enc) || s.spilledHas(fp, enc)
}

func (s *spillSet) spilledHas(fp uint64, enc []byte) bool {
	for _, seg := range s.segs {
		if seg.contains(fp, enc, s.log.data) {
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

// ensureRunDir creates the search's spill directory on first use.
func (s *spillSet) ensureRunDir() error {
	if s.runDir != "" {
		return nil
	}
	if s.dir != "" {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return err
		}
	}
	d, err := os.MkdirTemp(s.dir, "pnp-spill-*")
	if err != nil {
		return err
	}
	s.runDir = d
	return nil
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
// those of the trailing segments spillFold picks, then deletes those
// and empties the in-memory tier. A failed merge is retried as a plain
// spill, and no live segment is touched before the new one validates.
// A spill that fails anyway (unwritable directory, a log shorter than
// logSize, invalid segment), or would pass maxFiles live segments,
// turns the tier off. It reports whether the states were indexed. The
// log is read through the writer's own file, never reopened by path: a
// file renamed over the path cannot stand in for it.
func (s *spillSet) spill(log *os.File, logSize int64) bool {
	if len(s.segs) >= s.maxFiles || s.ensureRunDir() != nil || s.log.extendTo(log, logSize) != nil {
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
	slices.SortFunc(ents, func(a, b idxEnt) int { return cmp.Compare(a.fp, b.fp) })
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
		os.Remove(old.path)
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

// writeSegment writes the sorted entries to a new segment file whose
// index also covers srcs, and opens it. On error nothing new is left on
// disk.
func (s *spillSet) writeSegment(ents []idxEnt, srcs []*spillSegment) (*spillSegment, error) {
	path := filepath.Join(s.runDir, fmt.Sprintf("seg-%06d.seg", s.written))
	s.written++
	if s.w == nil {
		s.w = bufio.NewWriterSize(nil, 1<<20)
	}
	if err := writeSpillSegment(s.w, path, ents, srcs); err != nil {
		return nil, err
	}
	seg, err := openSpillSegment(path, int64(len(s.log.data)), s.width)
	if err != nil {
		// The segment we just wrote does not validate: treat it as lost
		// rather than trusting it.
		os.Remove(path)
		return nil, err
	}
	seg.spills = 1
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

// close releases the mappings and removes this search's spill
// directory, the scratch log included.
func (s *spillSet) close() {
	for _, seg := range s.segs {
		seg.close()
	}
	s.segs = nil
	s.log.close()
	if s.runDir != "" {
		os.RemoveAll(s.runDir)
		s.runDir = ""
	}
}

// idxEnt is one index entry: a state's fingerprint and the log offset
// of its vector.
type idxEnt struct{ fp, off uint64 }

// writeSpillSegment writes a segment at path whose index k-way merges
// the sorted entries with the sorted indexes of srcs. A failed write
// removes the file. w is reset onto the file.
func writeSpillSegment(w *bufio.Writer, path string, entries []idxEnt, srcs []*spillSegment) (err error) {
	total := len(entries)
	for _, src := range srcs {
		total += src.count
	}
	if 16*uint64(total) > spillFrameMax {
		return fmt.Errorf("checker: spill: index exceeds frame limit (%d entries)", total)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(path)
		}
	}()

	w.Reset(f)
	w.WriteString(spillMagic)
	hb, err := json.Marshal(spillHeader{Count: total})
	if err != nil {
		return err
	}
	hdr := append([]byte{spillSectionHeader}, hb...)
	fh := frame.Header(hdr)
	w.Write(fh[:])
	w.Write(hdr)

	// The index frame is streamed: a merged index is never held in
	// memory. Reserve the frame header, write the payload in chunks
	// through a running CRC, patch the header afterwards.
	indexFrameOff := int64(len(spillMagic)) + frame.HeaderSize + int64(len(hdr))
	var zero [frame.HeaderSize]byte
	w.Write(zero[:])
	var crc uint32
	chunk := make([]byte, 0, 16<<10)
	flush := func() {
		w.Write(chunk)
		crc = crc32.Update(crc, crc32.IEEETable, chunk)
		chunk = chunk[:0]
	}
	put := func(fp, off uint64) {
		if len(chunk) == cap(chunk) {
			flush()
		}
		chunk = binary.LittleEndian.AppendUint64(chunk, fp)
		chunk = binary.LittleEndian.AppendUint64(chunk, off)
	}
	heads := make([]int, len(srcs))
	for next := 0; ; {
		best := -1
		var bestFP uint64
		for k, src := range srcs {
			if heads[k] < src.count {
				if fp := src.fpAt(heads[k]); best < 0 || fp < bestFP {
					best, bestFP = k, fp
				}
			}
		}
		if next < len(entries) && (best < 0 || entries[next].fp < bestFP) {
			put(entries[next].fp, entries[next].off)
			next++
		} else if best >= 0 {
			put(bestFP, srcs[best].offAt(heads[best]))
			heads[best]++
		} else {
			break
		}
	}
	flush()
	if err := w.Flush(); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(fh[0:4], uint32(16*total))
	binary.LittleEndian.PutUint32(fh[4:8], crc)
	_, err = f.WriteAt(fh[:], indexFrameOff)
	return err
}

// spillSegment is one immutable on-disk index, probed through a
// read-only view of the whole file.
type spillSegment struct {
	path     string
	view     fileView
	count    int
	spills   int // spills merged into this segment's index (in memory only)
	indexOff int
}

// openSpillSegment maps and fully validates the segment at path as an
// index of width-byte vectors in a level log of logLen bytes: its
// frames' CRCs, its sort order, and every entry's vector inside the
// log. Any validation failure returns an error; callers discard the
// segment and carry on — a corrupt segment degrades the search, never
// crashes it.
func openSpillSegment(path string, logLen int64, width int) (*spillSegment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	seg := &spillSegment{path: path}
	if err := seg.view.extendTo(f, -1); err != nil {
		return nil, err
	}
	if err := seg.validate(logLen, width); err != nil {
		seg.close()
		return nil, err
	}
	return seg, nil
}

func (g *spillSegment) validate(logLen int64, width int) error {
	data := g.view.data
	bad := func(msg string) error { return fmt.Errorf("checker: spill segment %s: %s", g.path, msg) }
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
	hdr, err := next()
	if err != nil {
		return err
	}
	if len(hdr) < 1 || hdr[0] != spillSectionHeader {
		return bad("missing header section")
	}
	var h spillHeader
	if err := json.Unmarshal(hdr[1:], &h); err != nil {
		return bad("bad header: " + err.Error())
	}
	g.indexOff = pos + frame.HeaderSize
	index, err := next()
	if err != nil {
		return err
	}
	if pos != len(data) {
		return bad("trailing bytes")
	}
	if len(index)%16 != 0 || h.Count != len(index)/16 { // not 16*Count: it can overflow
		return bad("index/count mismatch")
	}
	g.count = h.Count
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
	}
	return nil
}

func (g *spillSegment) fpAt(i int) uint64 {
	return binary.LittleEndian.Uint64(g.view.data[g.indexOff+16*i:])
}

func (g *spillSegment) offAt(i int) uint64 {
	return binary.LittleEndian.Uint64(g.view.data[g.indexOff+16*i+8:])
}

// contains probes the segment: binary search over the sorted
// fingerprint index, then byte comparison of each colliding entry's
// vector in log, a view of the level log at least as long as the one
// the segment was validated against.
func (g *spillSegment) contains(fp uint64, enc, log []byte) bool {
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
