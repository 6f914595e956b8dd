package checker

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"pnp/internal/frame"
	"pnp/internal/model"
	"pnp/internal/obs"
)

// The spill tier keeps searches alive past Options.MemLimit: when the
// in-memory visited set exceeds the budget at a level barrier, every
// entry is flushed to an immutable fingerprint-indexed segment file
// under Options.SpillDir and the in-memory tier starts over (collapse
// side tables survive, so compression keeps working). Lookups ask the
// in-memory tier first — within a level segments are immutable and the
// in-memory tier only grows, so a state found there needs no disk
// probe — then probe the segments' indexes read-only, lock-free,
// through shared mmaps, so membership stays exact and verdicts and
// StatesStored match the unbudgeted run; the search degrades to disk
// speed instead of dying.
//
// Every segment's blob is written once and kept until the search ends;
// only the 16-byte index entries are ever rewritten (keys separated
// from values, as in WiscKey). The indexes are merged as a binary
// counter over spills (the logarithmic method of an LSM tree): a
// spill's segment holds the new entries' blob and one index that
// k-way merges the new entries with the indexes of every trailing
// segment holding no more spills than the running total, so a search
// that spilled S times probes at most ⌊log2 S⌋+1 indexes and each
// index entry is rewritten at most log2 S times. Nothing on disk is
// re-hashed, re-sorted or copied.
//
// Segment layout (the CRC framing of internal/frame, as in checkpoint
// logs, so bit rot is detected at open):
//
//	8-byte magic "PNPSPIL1"
//	framed 'H' JSON header {count}
//	[u32 blob length][u32 blob CRC]  blob: this spill's entries, [uvarint len][encoding] each
//	[u32 index length][u32 index CRC]
//	index: count × [fp u64 LE][off u64 LE], sorted by fp
//
// An index entry's off holds the entry's offset in a blob in its low 32
// bits (the frame cap keeps blobs under 4 GiB) and the back-distance d
// in its high 32: d = 0 is this segment's own blob, d > 0 the blob of
// the segment written d spills earlier. An unmerged segment has d = 0
// throughout, so it reads as a plain offset: the PNPSPIL1 bytes of
// earlier releases stay valid (a golden test pins them). The blob and
// the index are both streamed and their frame headers patched
// afterwards; only the 16-byte-per-entry index of the new entries is
// buffered and sorted in memory during a spill.
//
// Segments are private scratch: each is written once, under its final
// name, never forced to stable storage, and deleted when the search
// ends. Nothing reads them after a crash (resume replays the checkpoint
// log), and a torn or corrupt file fails validation at open, which
// turns the tier off rather than trusting it.
const spillMagic = "PNPSPIL1"

const spillSectionHeader = 'H'

type spillHeader struct {
	Count int `json:"count"`
}

// spillFrameMax is the largest payload a u32-length frame can hold.
const spillFrameMax = 1<<32 - 1

// spillOffBits is the width of the blob-offset half of an index entry's
// off; the back-distance d sits above it.
const spillOffBits = 32

// spillMaxFiles bounds the segments one search writes. Every segment
// stays mapped until the search ends, one mapping each, and mappings
// are a per-process limit (vm.max_map_count, 65530 by default) shared
// with concurrent searches and the Go heap, so a search that reaches
// this many turns the tier off rather than let an mmap or the runtime
// run out of them. Reaching it takes that many over-budget levels.
const spillMaxFiles = 1 << 12

// spillSecondsBuckets bound checker_spill_seconds: a spill of a few
// states takes well under a millisecond, a multi-GB one seconds.
var spillSecondsBuckets = []float64{0.0001, 0.001, 0.004, 0.016, 0.064, 0.256, 1, 4, 16}

// spillMetrics are the spill tier's instruments; nil ones are no-ops.
type spillMetrics struct {
	states  *obs.Counter   // checker_visited_spilled_states_total
	bytes   *obs.Counter   // checker_spill_bytes_total
	seconds *obs.Histogram // checker_spill_seconds
}

// newSpillMetrics registers the spill tier's instruments for phase
// beside states, the spilled-states counter every search registers.
func newSpillMetrics(reg *obs.Registry, phase string, states *obs.Counter) spillMetrics {
	return spillMetrics{
		states:  states,
		bytes:   reg.Counter(obs.Labels("checker_spill_bytes_total", "phase", phase)),
		seconds: reg.Histogram(obs.Labels("checker_spill_seconds", "phase", phase), spillSecondsBuckets),
	}
}

// spillSet wraps an in-memory visited set with the segment tier.
// Segments are only added at level barriers (maybeSpill), which the
// runner serializes, so workers inside a level read immutable segment
// lists without locks.
type spillSet struct {
	mem      visitedDrainer
	limit    int64
	dir      string          // user-chosen parent ("" = system temp)
	runDir   string          // per-search segment directory, created lazily
	files    []*spillSegment // every segment written, oldest first: the blobs entries resolve into
	segs     []*spillSegment // the live indexes, oldest first: what a lookup probes
	written  int             // segment files attempted so far; names the next one
	w        *bufio.Writer   // reused by every spill
	spilled  atomic.Int64
	failed   bool // a failed spill disables the tier; memory keeps growing
	maxFiles int  // segments written before the tier turns off (spillMaxFiles)
	m        spillMetrics
}

func newSpillSet(mem visitedDrainer, limit int64, dir string, m spillMetrics) *spillSet {
	return &spillSet{mem: mem, limit: limit, dir: dir, maxFiles: spillMaxFiles, m: m}
}

func (s *spillSet) seen(fp uint64, enc []byte) bool {
	return s.mem.contains(fp, enc) || s.spilledHas(fp, enc) || s.mem.seen(fp, enc)
}

func (s *spillSet) contains(fp uint64, enc []byte) bool {
	return s.mem.contains(fp, enc) || s.spilledHas(fp, enc)
}

func (s *spillSet) spilledHas(fp uint64, enc []byte) bool {
	for _, seg := range s.segs {
		if seg.contains(fp, enc) {
			return true
		}
	}
	return false
}

// size is the total membership: spilled entries plus the in-memory tier.
func (s *spillSet) size() int { return int(s.spilled.Load()) + s.mem.size() }

// bytes reports only resident memory — segment files are the point of
// the tier and do not count against the budget. The mmap'd index/blob
// pages are file-backed and reclaimable, so they are excluded too.
func (s *spillSet) bytes() int64 { return s.mem.bytes() }

// maybeSpill flushes the in-memory tier to a new segment when it
// exceeds the budget, merging into its index the indexes of the
// trailing segments spillFold picks. Called at level barriers only. A
// merge that fails is retried as a plain spill; either way no existing
// segment is touched, so a failed merge never loses a state or
// disables the tier. A spill that fails (unwritable directory, corrupt
// segment on re-open) deletes its partial output and permanently falls
// back to in-memory growth: the search continues, just without the
// budget. So does a search that has written maxFiles segments, since
// each holds a mapping until close; its segments stay probed, so
// membership stays exact.
func (s *spillSet) maybeSpill() {
	if s.failed || s.mem.bytes() <= s.limit {
		return
	}
	n := s.mem.size()
	if n == 0 {
		return
	}
	if len(s.files) >= s.maxFiles {
		s.failed = true
		return
	}
	if s.runDir == "" {
		parent := s.dir
		if parent != "" {
			if err := os.MkdirAll(parent, 0o755); err != nil {
				s.failed = true
				return
			}
		}
		d, err := os.MkdirTemp(parent, "pnp-spill-*")
		if err != nil {
			s.failed = true
			return
		}
		s.runDir = d
		s.w = bufio.NewWriterSize(nil, 1<<20)
	}
	t0 := time.Now()
	first := spillFold(n, s.segs)
	seg, err := s.writeSegment(n, s.segs[first:])
	if err != nil && first < len(s.segs) {
		first = len(s.segs)
		seg, err = s.writeSegment(n, nil)
	}
	if err != nil {
		s.failed = true
		return
	}
	s.files = append(s.files, seg)
	s.segs = append(s.segs[:first], seg)
	s.mem.reset()
	s.spilled.Add(int64(n))
	s.m.states.Add(int64(n))
	s.m.bytes.Add(int64(len(seg.data)))
	s.m.seconds.Observe(time.Since(t0).Seconds())
}

// writeSegment writes the in-memory tier to a new segment file whose
// index also covers srcs, and opens it. On error nothing new is left on
// disk.
func (s *spillSet) writeSegment(n int, srcs []*spillSegment) (*spillSegment, error) {
	path := filepath.Join(s.runDir, fmt.Sprintf("seg-%06d.seg", s.written))
	s.written++
	if err := writeSpillSegment(s.w, path, len(s.files), n, s.mem.forEachEncoding, srcs); err != nil {
		return nil, err
	}
	seg, err := openSpillSegment(path, s.files...)
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

// close releases mappings and removes this search's segment directory.
func (s *spillSet) close() {
	for _, seg := range s.files {
		seg.close()
	}
	s.files, s.segs = nil, nil
	if s.runDir != "" {
		os.RemoveAll(s.runDir)
		s.runDir = ""
	}
}

// idxEnt is one index entry of a segment being written.
type idxEnt struct{ fp, off uint64 }

// crcWriter writes through to w and keeps a running CRC-32 (IEEE) of
// what it wrote: the checksum of a frame streamed without being held.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
}

func (c *crcWriter) write(p []byte) {
	c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
}

// writeSpillSegment writes segment number num (the count of segments
// written before it) at path: a blob of the count entries emit streams,
// and an index that k-way merges their sorted entries with the sorted
// indexes of srcs, each source entry's back-distance grown by the
// segments written since its source. A failed write removes the file.
// w is reset onto the file.
func writeSpillSegment(w *bufio.Writer, path string, num, count int, emit func(fn func(enc []byte)), srcs []*spillSegment) (err error) {
	total := count
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

	// The blob and index frames are streamed: reserve each header, write
	// the payload through a running CRC, patch the header afterwards.
	// They are not built by internal/frame because a segment is never
	// held in memory, but they are read back through frame.Next like
	// every other frame.
	var zero [frame.HeaderSize]byte
	blobFrameOff := int64(len(spillMagic)) + frame.HeaderSize + int64(len(hdr))
	w.Write(zero[:])
	blob := crcWriter{w: w}
	var blobLen uint64
	index := make([]idxEnt, 0, count)
	var tmpLen [binary.MaxVarintLen64]byte
	emit(func(enc []byte) {
		index = append(index, idxEnt{fp: model.Hash64(enc), off: blobLen})
		n := binary.PutUvarint(tmpLen[:], uint64(len(enc)))
		blob.write(tmpLen[:n])
		blob.write(enc)
		blobLen += uint64(n) + uint64(len(enc))
	})
	if len(index) != count {
		return fmt.Errorf("checker: spill: drained %d entries, expected %d", len(index), count)
	}
	if blobLen > spillFrameMax {
		return fmt.Errorf("checker: spill: blob exceeds frame limit (%d bytes)", blobLen)
	}
	sort.Slice(index, func(i, j int) bool { return index[i].fp < index[j].fp })

	indexFrameOff := blobFrameOff + frame.HeaderSize + int64(blobLen)
	w.Write(zero[:])
	idx := crcWriter{w: w}
	chunk := make([]byte, 0, 16<<10) // entries go out in chunks: one CRC update each
	put := func(fp, off uint64) {
		if len(chunk) == cap(chunk) {
			idx.write(chunk)
			chunk = chunk[:0]
		}
		chunk = binary.LittleEndian.AppendUint64(chunk, fp)
		chunk = binary.LittleEndian.AppendUint64(chunk, off)
	}
	heads := make([]int, len(srcs))
	shifts := make([]uint64, len(srcs)) // added to a source entry's off: its d grows by num - the source's number
	for k, src := range srcs {
		shifts[k] = uint64(num-src.num()) << spillOffBits
	}
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
		if next < len(index) && (best < 0 || index[next].fp < bestFP) {
			put(index[next].fp, index[next].off)
			next++
		} else if best >= 0 {
			put(bestFP, srcs[best].offAt(heads[best])+shifts[best])
			heads[best]++
		} else {
			break
		}
	}
	idx.write(chunk)
	if err := w.Flush(); err != nil {
		return err
	}
	patch := func(off int64, n, crc uint32) error {
		binary.LittleEndian.PutUint32(fh[0:4], n)
		binary.LittleEndian.PutUint32(fh[4:8], crc)
		_, err := f.WriteAt(fh[:], off)
		return err
	}
	if err := patch(blobFrameOff, uint32(blobLen), blob.crc); err != nil {
		return err
	}
	return patch(indexFrameOff, uint32(16*total), idx.crc)
}

// spillSegment is one immutable on-disk segment, probed through a
// read-only mapping of the whole file (or an in-heap copy where mmap is
// unavailable).
type spillSegment struct {
	path     string
	data     []byte
	mapped   bool
	count    int
	spills   int // spills merged into this segment's index (in memory only)
	blobOff  int
	blobLen  int
	indexOff int
	// prior are the segments written before this one, oldest first: an
	// index entry with back-distance d > 0 lives in prior[len(prior)-d].
	prior []*spillSegment
}

// openSpillSegment maps and fully validates a segment written after the
// segments prior (oldest first): every index entry must resolve in the
// blob its back-distance names, so a standalone open (no prior)
// rejects any entry with d > 0. Any validation failure returns an
// error; callers discard the segment and carry on — a corrupt segment
// degrades the search, never crashes it.
func openSpillSegment(path string, prior ...*spillSegment) (*spillSegment, error) {
	data, mapped, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	seg := &spillSegment{path: path, data: data, mapped: mapped, prior: prior[:len(prior):len(prior)]}
	if err := seg.validate(); err != nil {
		seg.close()
		return nil, err
	}
	return seg, nil
}

// num is the segment's number: how many segments were written before it.
func (g *spillSegment) num() int { return len(g.prior) }

func (g *spillSegment) validate() error {
	data := g.data
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
	g.blobOff = pos + frame.HeaderSize
	blob, err := next()
	if err != nil {
		return err
	}
	g.blobLen = len(blob)
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
		if _, ok := g.entryAt(g.offAt(i)); !ok {
			return bad("entry out of range")
		}
	}
	return nil
}

func (g *spillSegment) fpAt(i int) uint64 {
	return binary.LittleEndian.Uint64(g.data[g.indexOff+16*i:])
}

func (g *spillSegment) offAt(i int) uint64 {
	return binary.LittleEndian.Uint64(g.data[g.indexOff+16*i+8:])
}

// entryAt resolves an index entry's off: the encoding at its low 32
// bits in the blob of the segment its back-distance names.
func (g *spillSegment) entryAt(off uint64) ([]byte, bool) {
	src := g
	if d := off >> spillOffBits; d > 0 {
		if d > uint64(len(g.prior)) {
			return nil, false
		}
		src = g.prior[uint64(len(g.prior))-d]
	}
	return src.blobEntry(off & (1<<spillOffBits - 1))
}

// blobEntry returns the [uvarint len][encoding] entry at off in the
// segment's own blob.
func (g *spillSegment) blobEntry(off uint64) ([]byte, bool) {
	if off >= uint64(g.blobLen) {
		return nil, false
	}
	blob := g.data[g.blobOff : g.blobOff+g.blobLen]
	l, w := binary.Uvarint(blob[off:])
	if w <= 0 || l > uint64(len(blob))-off-uint64(w) {
		return nil, false
	}
	start := off + uint64(w)
	return blob[start : start+l], true
}

// contains probes the segment: binary search over the sorted
// fingerprint index, then byte comparison of each colliding entry.
func (g *spillSegment) contains(fp uint64, enc []byte) bool {
	i := sort.Search(g.count, func(i int) bool { return g.fpAt(i) >= fp })
	for ; i < g.count && g.fpAt(i) == fp; i++ {
		if e, ok := g.entryAt(g.offAt(i)); ok && bytes.Equal(e, enc) {
			return true
		}
	}
	return false
}

func (g *spillSegment) close() {
	if g.mapped {
		unmapFile(g.data)
	}
	g.data = nil
}
