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
// The blob is streamed in drain order and its frame header patched
// afterwards; only the 16-byte-per-entry index is buffered and sorted
// in memory during a spill.
const spillMagic = "PNPSPIL1"

const spillSectionHeader = 'H'

type spillHeader struct {
	Count int `json:"count"`
}

// spillSet wraps an in-memory visited set with the segment tier.
// Segments are only appended at level barriers (maybeSpill), which the
// runner serializes, so workers inside a level read an immutable
// segment list without locks.
type spillSet struct {
	mem     visitedDrainer
	limit   int64
	dir     string // user-chosen parent ("" = system temp)
	runDir  string // per-search segment directory, created lazily
	segs    []*spillSegment
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
// exceeds the budget. Called at level barriers only. A spill that fails
// (unwritable directory, corrupt segment on re-open) deletes its
// partial output and permanently falls back to in-memory growth: the
// search continues, just without the budget.
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
	}
	path := filepath.Join(s.runDir, fmt.Sprintf("seg-%06d.seg", len(s.segs)))
	if err := writeSpillSegment(path, n, s.mem.forEachEncoding); err != nil {
		os.Remove(path)
		s.failed = true
		return
	}
	seg, err := openSpillSegment(path)
	if err != nil {
		// The segment we just wrote does not validate: treat it as lost
		// and keep the entries in memory rather than trusting it.
		os.Remove(path)
		s.failed = true
		return
	}
	s.segs = append(s.segs, seg)
	s.mem.reset()
	s.spilled.Add(int64(n))
	s.cSpill.Add(int64(n))
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

// writeSpillSegment streams count entries from emit into a new segment
// at path, via tmp+fsync+rename.
func writeSpillSegment(path string, count int, emit func(fn func(enc []byte))) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)

	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(spillMagic)
	hb, err := json.Marshal(spillHeader{Count: count})
	if err != nil {
		f.Close()
		return err
	}
	writeFrame := func(payload []byte) {
		hdr := frame.Header(payload)
		w.Write(hdr[:])
		w.Write(payload)
	}
	writeFrame(append([]byte{spillSectionHeader}, hb...))

	// Blob frame: reserve the header, stream entries while accumulating
	// the CRC and the index, patch the header afterwards. This is the one
	// frame not built by internal/frame: the blob is the whole visited set
	// and is never held in memory, so its checksum has to be a running
	// one. It is read back through frame.Next like every other frame.
	blobFrameOff := int64(len(spillMagic)) + frame.HeaderSize + int64(1+len(hb))
	w.Write(make([]byte, frame.HeaderSize))
	type idxEnt struct{ fp, off uint64 }
	index := make([]idxEnt, 0, count)
	crc := crc32.NewIEEE()
	var blobLen uint64
	var tmpLen [binary.MaxVarintLen64]byte
	emit(func(enc []byte) {
		index = append(index, idxEnt{fp: model.Hash64(enc), off: blobLen})
		n := binary.PutUvarint(tmpLen[:], uint64(len(enc)))
		w.Write(tmpLen[:n])
		w.Write(enc)
		crc.Write(tmpLen[:n])
		crc.Write(enc)
		blobLen += uint64(n) + uint64(len(enc))
	})
	if len(index) != count {
		f.Close()
		return fmt.Errorf("checker: spill: drained %d entries, expected %d", len(index), count)
	}
	if blobLen > 1<<32-1 {
		f.Close()
		return fmt.Errorf("checker: spill: blob exceeds frame limit (%d bytes)", blobLen)
	}
	sort.Slice(index, func(i, j int) bool { return index[i].fp < index[j].fp })
	ib := make([]byte, 0, 16*len(index))
	for _, e := range index {
		ib = binary.LittleEndian.AppendUint64(ib, e.fp)
		ib = binary.LittleEndian.AppendUint64(ib, e.off)
	}
	writeFrame(ib)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	var blobHdr [frame.HeaderSize]byte
	binary.LittleEndian.PutUint32(blobHdr[0:4], uint32(blobLen))
	binary.LittleEndian.PutUint32(blobHdr[4:8], crc.Sum32())
	if _, err := f.WriteAt(blobHdr[:], blobFrameOff); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
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
	if h.Count < 0 || len(index) != 16*h.Count {
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
