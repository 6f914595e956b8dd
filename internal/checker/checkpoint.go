package checker

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pnp/internal/frame"
	"pnp/internal/model"
	"pnp/internal/obs"
)

// DurabilityOptions makes the level engine crash-safe. The
// level barrier is the natural snapshot point: after a level completes,
// the frontier plus the visited set fully determine the remainder of
// the search, independent of worker count. A snapshot therefore resumes
// to the exact verdict — and the exact StatesStored — an uninterrupted
// run would produce.
//
// Checkpointing applies only where the level barrier exists: the
// level engine's safety and reachability searches over an exact visited
// set. Sequential DFS, liveness search, AG-EF goals, and bitstate runs
// ignore it silently — the search still completes, it is just not
// resumable.
type DurabilityOptions struct {
	// Dir is the directory checkpoint files live in (created on demand).
	Dir string
	// Key names this search's checkpoint file within Dir; callers use a
	// content hash of the submission (plus the property name when one
	// submission carries several searchable properties). Empty disables
	// checkpointing.
	Key string
	// Interval is the number of completed levels between snapshots
	// (default 1: every barrier). Larger intervals trade re-exploration
	// after a crash for less write bandwidth on deep searches.
	Interval int
	// Resume loads the last complete snapshot for Key before exploring.
	// A missing, foreign, or corrupt snapshot is ignored and the search
	// starts fresh — resume is always safe to request.
	Resume bool
	// OnWrite, when non-nil, is called after each durable snapshot with
	// the file path, the depth of the saved frontier, and the states
	// stored so far. verifyd journals checkpoint references through it.
	OnWrite func(file string, depth, states int)
}

// Checkpoint file layout: an 8-byte magic, then CRC-framed sections
// (internal/frame) where the payload's first byte tags the section: 'H' JSON header, 'V' a
// batch of visited-set encodings, 'F' a batch of frontier encodings.
// State batches are concatenated [uvarint length][canonical encoding]
// entries. Files are written to a temp name, fsynced, and renamed, so a
// file that exists is complete; CRCs guard against bit rot, not tears.
const ckptMagic = "PNPCKPT1"

const (
	ckptSectionHeader   = 'H'
	ckptSectionVisited  = 'V'
	ckptSectionFrontier = 'F'
)

// ckptHeader is the 'H' section: identity (phase + model fingerprint,
// so a stale file from another design or property kind is never
// resumed), the saved depth, the section counts, and the cumulative
// stats of the search up to the barrier.
type ckptHeader struct {
	Phase       string `json:"phase"`
	Model       string `json:"model"`
	Depth       int    `json:"depth"`
	Visited     int    `json:"visited"`
	Frontier    int    `json:"frontier"`
	Stored      int    `json:"stored"`
	Matched     int    `json:"matched"`
	Transitions int    `json:"transitions"`
	MaxDepth    int    `json:"max_depth"`
}

// CheckpointFileName maps a checkpoint key to its file name within the
// checkpoint directory. Exported so verifyd's GET /v1/checkpoints/{key}
// endpoint and the checker agree on the mapping. Characters outside
// [A-Za-z0-9._-] are replaced, so a key can never escape the directory.
func CheckpointFileName(key string) string {
	b := []byte(key)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			b[i] = '_'
		}
	}
	return string(b) + ".ckpt"
}

// checkpointer drives snapshots for one parallel search. A nil
// checkpointer (disabled, wrong engine, bitstate) is a no-op on every
// method.
type checkpointer struct {
	c       *Checker
	opts    DurabilityOptions
	phase   string
	file    string
	modelID string
	since   int
	failed  bool

	cBytes *obs.Counter
}

// newCheckpointer arms checkpointing for one parallel search, or
// returns nil when it does not apply (no options, no key, or a bitstate
// visited set — its bit table has no exact streamable entries).
func (c *Checker) newCheckpointer(phase string, r *parRunner) *checkpointer {
	o := c.opts.Durability
	if o == nil || o.Dir == "" || o.Key == "" {
		return nil
	}
	if _, ok := r.visited.(visitedDrainer); !ok {
		return nil
	}
	ck := &checkpointer{c: c, opts: *o, phase: phase, modelID: modelFingerprint(c.sys)}
	ck.file = filepath.Join(o.Dir, CheckpointFileName(o.Key))
	if ck.opts.Interval < 1 {
		ck.opts.Interval = 1
	}
	if reg := c.opts.Metrics; reg != nil {
		ck.cBytes = reg.Counter("checkpoint_bytes_written_total")
	}
	return ck
}

// modelFingerprint identifies the system a snapshot belongs to (FNV-1a
// over the model's structural fingerprint, hex).
func modelFingerprint(sys *model.System) string {
	var w model.Hash64Writer
	sys.WriteFingerprint(&w)
	return fmt.Sprintf("%016x", w.Sum64())
}

// maybeSnapshot writes a snapshot of the search at a completed level
// barrier if the interval has elapsed. frontier is the next level
// (depth = its distance from the root); an empty frontier means the
// search is about to terminate, so nothing is written. A write failure
// disables further snapshots but never fails the search.
func (ck *checkpointer) maybeSnapshot(depth int, frontier []parNode, r *parRunner, st *Stats) {
	if ck == nil || ck.failed || len(frontier) == 0 {
		return
	}
	ck.since++
	if ck.since < ck.opts.Interval {
		return
	}
	ck.since = 0
	n, err := ck.snapshot(depth, frontier, r, st)
	if err != nil {
		ck.failed = true
		return
	}
	ck.cBytes.Add(n)
	if ck.opts.OnWrite != nil {
		ck.opts.OnWrite(ck.file, depth, st.StatesStored)
	}
}

// snapshot streams the visited set (shard by shard under each shard's
// lock for the in-memory tiers, segment by segment for spilled entries)
// and the frontier to file.tmp, fsyncs, and renames. Returns the bytes
// written.
func (ck *checkpointer) snapshot(depth int, frontier []parNode, r *parRunner, st *Stats) (int64, error) {
	set := r.visited.(visitedDrainer)
	if err := os.MkdirAll(ck.opts.Dir, 0o755); err != nil {
		return 0, err
	}
	tmp := ck.file + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp)

	w := &ckptWriter{f: f}
	w.raw([]byte(ckptMagic))
	hdr := ckptHeader{
		Phase: ck.phase, Model: ck.modelID, Depth: depth,
		Visited: set.size(), Frontier: len(frontier),
		Stored: st.StatesStored, Matched: st.StatesMatched,
		Transitions: st.Transitions, MaxDepth: st.MaxDepth,
	}
	hb, err := json.Marshal(hdr)
	if err != nil {
		f.Close()
		return 0, err
	}
	w.section(ckptSectionHeader, hb)
	var batch bytes.Buffer
	const visitedBatch = 1 << 20
	batch.WriteByte(ckptSectionVisited)
	set.forEachEncoding(func(enc []byte) {
		appendEntry(&batch, enc)
		if batch.Len() >= visitedBatch {
			w.framed(batch.Bytes())
			batch.Reset()
			batch.WriteByte(ckptSectionVisited)
		}
	})
	if batch.Len() > 1 {
		w.framed(batch.Bytes())
	}
	const frontierBatch = 1 << 16
	var enc []byte
	for off := 0; off < len(frontier); off += frontierBatch {
		end := min(off+frontierBatch, len(frontier))
		batch.Reset()
		batch.WriteByte(ckptSectionFrontier)
		for i := off; i < end; i++ {
			enc = frontier[i].st.AppendKey(enc[:0])
			appendEntry(&batch, enc)
		}
		w.framed(batch.Bytes())
	}
	if w.err != nil {
		f.Close()
		return 0, w.err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, ck.file); err != nil {
		return 0, err
	}
	syncDir(ck.opts.Dir)
	return w.n, nil
}

// appendEntry appends one uvarint-length-prefixed state encoding.
func appendEntry[T ~string | ~[]byte](b *bytes.Buffer, enc T) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(enc)))
	b.Write(tmp[:n])
	b.Write([]byte(enc))
}

// syncDir fsyncs a directory so a rename survives power loss; errors
// are ignored (not all filesystems support it).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// ckptWriter frames sections and tracks bytes written / first error.
type ckptWriter struct {
	f   *os.File
	n   int64
	err error
}

func (w *ckptWriter) raw(b []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.f.Write(b)
	w.n += int64(len(b))
}

func (w *ckptWriter) section(tag byte, payload []byte) {
	w.framed(append([]byte{tag}, payload...))
}

func (w *ckptWriter) framed(payload []byte) {
	hdr := frame.Header(payload)
	w.raw(hdr[:])
	w.raw(payload)
}

// restore loads the last complete snapshot into the runner and returns
// the resumed frontier level and its depth. ok is false — and the
// search starts fresh — when resume is off, the file is missing, or
// anything about it fails validation.
func (ck *checkpointer) restore(r *parRunner, res *Result) (levels [][]parNode, depth int, ok bool) {
	if ck == nil || !ck.opts.Resume {
		return nil, 0, false
	}
	snap, err := readCheckpoint(ck.file)
	if err != nil {
		return nil, 0, false
	}
	if snap.header.Phase != ck.phase || snap.header.Model != ck.modelID {
		return nil, 0, false
	}
	shape := ck.c.sys.InitialState()
	front := make([]parNode, 0, len(snap.frontier))
	for _, enc := range snap.frontier {
		st, err := model.DecodeKey(shape, []byte(enc))
		if err != nil {
			return nil, 0, false
		}
		front = append(front, parNode{st: st, parent: -1})
	}
	if len(front) != snap.header.Frontier || len(snap.visited) != snap.header.Visited {
		return nil, 0, false
	}
	for _, enc := range snap.visited {
		// nil ends: the collapse set re-splits the encoding itself.
		r.visited.seen(model.Hash64([]byte(enc)), []byte(enc), nil)
	}
	r.stored.Store(int64(snap.header.Stored))
	res.Stats.StatesStored = snap.header.Stored
	res.Stats.StatesMatched = snap.header.Matched
	res.Stats.Transitions = snap.header.Transitions
	res.Stats.MaxDepth = snap.header.MaxDepth
	return [][]parNode{front}, snap.header.Depth, true
}

// finish removes the checkpoint once the search produced a real
// verdict. A Canceled search keeps its file — that is the crash/resume
// path — as does a crash (finish never runs).
func (ck *checkpointer) finish(res *Result) {
	if ck == nil || res.Kind == Canceled {
		return
	}
	os.Remove(ck.file)
}

// ckptSnapshot is a parsed checkpoint file.
type ckptSnapshot struct {
	header   ckptHeader
	visited  []string
	frontier []string
}

// readCheckpoint parses and validates a checkpoint file.
func readCheckpoint(file string) (*ckptSnapshot, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	if len(data) < len(ckptMagic) || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("checker: %s: bad checkpoint magic", file)
	}
	data = data[len(ckptMagic):]
	snap := &ckptSnapshot{}
	sawHeader := false
	for len(data) > 0 {
		var payload []byte
		payload, data, err = frame.Next(data)
		if err != nil {
			return nil, fmt.Errorf("checker: %s: section: %w", file, err)
		}
		tag, body := payload[0], payload[1:]
		switch tag {
		case ckptSectionHeader:
			if err := json.Unmarshal(body, &snap.header); err != nil {
				return nil, fmt.Errorf("checker: %s: bad header: %w", file, err)
			}
			sawHeader = true
		case ckptSectionVisited:
			snap.visited, err = readEntries(body, snap.visited)
		case ckptSectionFrontier:
			snap.frontier, err = readEntries(body, snap.frontier)
		default:
			return nil, fmt.Errorf("checker: %s: unknown section %q", file, tag)
		}
		if err != nil {
			return nil, fmt.Errorf("checker: %s: %w", file, err)
		}
	}
	if !sawHeader {
		return nil, fmt.Errorf("checker: %s: missing header section", file)
	}
	return snap, nil
}

// readEntries parses concatenated length-prefixed state encodings.
func readEntries(body []byte, into []string) ([]string, error) {
	for len(body) > 0 {
		n, w := binary.Uvarint(body)
		if w <= 0 || n > uint64(len(body)-w) {
			return nil, io.ErrUnexpectedEOF
		}
		into = append(into, string(body[w:w+int(n)]))
		body = body[w+int(n):]
	}
	return into, nil
}
