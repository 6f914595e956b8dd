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

	"pnp/internal/frame"
	"pnp/internal/model"
	"pnp/internal/obs"
)

// The spill tier keeps searches alive past Options.MemLimit: when the
// in-memory visited set exceeds the budget at a level barrier, every
// entry is flushed to an immutable fingerprint-indexed segment file
// under Options.SpillDir and the in-memory tier starts over (collapse
// side tables survive, so compression keeps working). Lookups probe the
// segments first — read-only, lock-free, through a shared mmap — and
// fall through to the in-memory set, so membership stays exact and
// verdicts and StatesStored match the unbudgeted run; the search
// degrades to disk speed instead of dying.
//
// Segments are merged as a binary counter over spills (the logarithmic
// method of an LSM tree): a spill writes one segment holding the
// in-memory tier plus every trailing segment that holds no more spills
// than the running total, so a search that spilled S times probes at
// most ⌊log2 S⌋+1 segments and each state is rewritten at most log2 S
// times. A merge copies each source blob whole and k-way merges the
// sources' sorted indexes with the new entries'; nothing on disk is
// re-hashed or re-sorted.
//
// Segment layout (the CRC framing of internal/frame, as in checkpoint
// logs, so bit rot is detected, and a tmp+fsync+rename protocol, so a
// file that exists is complete):
//
//	8-byte magic "PNPSPIL1"
//	framed 'H' JSON header {count}
//	[u32 blob length][u32 blob CRC]  blob: count × [uvarint len][encoding]
//	[u32 index length][u32 index CRC]
//	index: count × [fp u64 LE][blob offset u64 LE], sorted by fp
//
// The blob and the index are both streamed and their frame headers
// patched afterwards; only the 16-byte-per-entry index of the new
// entries is buffered and sorted in memory during a spill.
const spillMagic = "PNPSPIL1"

const spillSectionHeader = 'H'

type spillHeader struct {
	Count int `json:"count"`
}

// spillFrameMax is the largest payload a u32-length frame can hold.
const spillFrameMax = 1<<32 - 1

// spillSet wraps an in-memory visited set with the segment tier.
// Segments are only replaced at level barriers (maybeSpill), which the
// runner serializes, so workers inside a level read an immutable
// segment list without locks.
type spillSet struct {
	mem     visitedDrainer
	limit   int64
	dir     string // user-chosen parent ("" = system temp)
	runDir  string // per-search segment directory, created lazily
	segs    []*spillSegment
	written int           // segment files written so far; names the next one
	w       *bufio.Writer // reused by every spill
	spilled atomic.Int64
	failed  bool // a failed spill disables the tier; memory keeps growing
	cSpill  *obs.Counter
}

func newSpillSet(mem visitedDrainer, limit int64, dir string, spilled *obs.Counter) *spillSet {
	return &spillSet{mem: mem, limit: limit, dir: dir, cSpill: spilled}
}

func (s *spillSet) seen(fp uint64, enc []byte, ends []int) bool {
	for _, seg := range s.segs {
		if seg.contains(fp, enc) {
			return true
		}
	}
	return s.mem.seen(fp, enc, ends)
}

// size is the total membership: spilled entries plus the in-memory tier.
func (s *spillSet) size() int { return int(s.spilled.Load()) + s.mem.size() }

// bytes reports only resident memory — segment files are the point of
// the tier and do not count against the budget. The mmap'd index/blob
// pages are file-backed and reclaimable, so they are excluded too.
func (s *spillSet) bytes() int64 { return s.mem.bytes() }

// maybeSpill flushes the in-memory tier to a new segment when it
// exceeds the budget, folding in the trailing segments spillFold
// picks. Called at level barriers only. The new segment is written and
// validated before the folded ones are deleted, and a merge that fails
// is retried as a plain spill, so a merge never loses a state or
// disables the tier. A spill that fails (unwritable directory, corrupt
// segment on re-open) deletes its partial output and permanently falls
// back to in-memory growth: the search continues, just without the
// budget.
func (s *spillSet) maybeSpill() {
	if s.failed || s.mem.bytes() <= s.limit {
		return
	}
	n := s.mem.size()
	if n == 0 {
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
	first := spillFold(n, s.segs)
	srcs := s.segs[first:]
	seg, err := s.writeSegment(n, srcs)
	if err != nil && len(srcs) > 0 {
		srcs = nil
		seg, err = s.writeSegment(n, nil)
	}
	if err != nil {
		s.failed = true
		return
	}
	for _, old := range srcs {
		old.close()
		os.Remove(old.path)
	}
	s.segs = append(s.segs[:len(s.segs)-len(srcs)], seg)
	s.mem.reset()
	s.spilled.Add(int64(n))
	s.cSpill.Add(int64(n))
}

// writeSegment writes the in-memory tier and srcs to a new segment file
// and opens it. On error nothing new is left on disk.
func (s *spillSet) writeSegment(n int, srcs []*spillSegment) (*spillSegment, error) {
	path := filepath.Join(s.runDir, fmt.Sprintf("seg-%06d.seg", s.written))
	s.written++
	if err := writeSpillSegment(s.w, path, n, s.mem.forEachEncoding, srcs); err != nil {
		os.Remove(path)
		return nil, err
	}
	seg, err := openSpillSegment(path)
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
// entries folds into its new segment (len(segs): none). It walks back
// from the newest segment, folding each one that holds no more spills
// than the running total: spill counts then stay distinct powers of
// two, strictly decreasing from the oldest segment, like the bits of a
// binary counter. The walk also stops before a segment that would take
// the folded blobs to half the frame limit or the merged index past
// it, so a merge is never what overflows a frame (past that size the
// counter is no longer binary and segments may accumulate).
func spillFold(n int, segs []*spillSegment) int {
	spills, count, blob := 1, uint64(n), uint64(0)
	i := len(segs)
	for ; i > 0; i-- {
		g := segs[i-1]
		if g.spills > spills || blob+uint64(g.blobLen) >= spillFrameMax/2 ||
			16*(count+uint64(g.count)) > spillFrameMax {
			break
		}
		spills += g.spills
		count += uint64(g.count)
		blob += uint64(g.blobLen)
	}
	return i
}

// close releases mappings and removes this search's segment directory.
func (s *spillSet) close() {
	for _, seg := range s.segs {
		seg.close()
	}
	s.segs = nil
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

// writeSpillSegment writes a new segment at path, via tmp+fsync+rename,
// holding the blobs of srcs followed by the count entries emit streams.
// Each source blob is copied whole, its offsets shifted by its base in
// the new blob; the index is a k-way merge of the sources' sorted
// indexes and the sorted index of the new entries. w is reset onto the
// file.
func writeSpillSegment(w *bufio.Writer, path string, count int, emit func(fn func(enc []byte)), srcs []*spillSegment) error {
	total := count
	for _, src := range srcs {
		total += src.count
	}
	if 16*uint64(total) > spillFrameMax {
		return fmt.Errorf("checker: spill: index exceeds frame limit (%d entries)", total)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	fail := func(err error) error {
		f.Close()
		return err
	}

	w.Reset(f)
	w.WriteString(spillMagic)
	hb, err := json.Marshal(spillHeader{Count: total})
	if err != nil {
		return fail(err)
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
	bases := make([]uint64, len(srcs))
	for k, src := range srcs {
		bases[k] = blobLen
		blob.write(src.data[src.blobOff : src.blobOff+src.blobLen])
		blobLen += uint64(src.blobLen)
	}
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
		return fail(fmt.Errorf("checker: spill: drained %d entries, expected %d", len(index), count))
	}
	if blobLen > spillFrameMax {
		return fail(fmt.Errorf("checker: spill: blob exceeds frame limit (%d bytes)", blobLen))
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
			put(bestFP, srcs[best].offAt(heads[best])+bases[best])
			heads[best]++
		} else {
			break
		}
	}
	idx.write(chunk)
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	patch := func(off int64, n, crc uint32) error {
		binary.LittleEndian.PutUint32(fh[0:4], n)
		binary.LittleEndian.PutUint32(fh[4:8], crc)
		_, err := f.WriteAt(fh[:], off)
		return err
	}
	if err := patch(blobFrameOff, uint32(blobLen), blob.crc); err != nil {
		return fail(err)
	}
	if err := patch(indexFrameOff, uint32(16*total), idx.crc); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// spillSegment is one immutable on-disk segment, probed through a
// read-only mapping of the whole file (or an in-heap copy where mmap is
// unavailable).
type spillSegment struct {
	path     string
	data     []byte
	mapped   bool
	count    int
	spills   int // spills merged into this segment (in memory only)
	blobOff  int
	blobLen  int
	indexOff int
}

// openSpillSegment maps and fully validates a segment. Any validation
// failure returns an error; callers discard the segment and carry on —
// a corrupt segment degrades the search, never crashes it.
func openSpillSegment(path string) (*spillSegment, error) {
	data, mapped, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	seg := &spillSegment{path: path, data: data, mapped: mapped}
	if err := seg.validate(); err != nil {
		seg.close()
		return nil, err
	}
	return seg, nil
}

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
		off := g.offAt(i)
		if _, ok := g.entryAt(off); !ok {
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

func (g *spillSegment) entryAt(off uint64) ([]byte, bool) {
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
