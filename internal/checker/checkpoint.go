package checker

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pnp/internal/frame"
	"pnp/internal/model"
	"pnp/internal/obs"
)

// DurabilityOptions makes the level engine crash-safe. The level engine
// stores a state at exactly the moment it puts that state into the next
// level, so the levels, concatenated, are the visited set and the last
// of them is the frontier — together they fully determine the remainder
// of the search, independent of worker count. A checkpoint is therefore
// a log of levels, each appended once at the barrier that completes it,
// and it resumes to the exact verdict — and the exact StatesStored — an
// uninterrupted run would produce.
//
// Checkpointing applies only where the level barrier exists: the level
// engine's safety and reachability searches, in every storage mode,
// with or without partial-order reduction. Liveness search, AG-EF
// goals, and safety searches with Options.ReportUnreached (a resumed
// search could not know which edges the levels before its frontier
// executed) ignore it silently — the search still completes, it is
// just not resumable.
type DurabilityOptions struct {
	// Dir is the directory checkpoint files live in (created on demand).
	Dir string
	// Key names this search's checkpoint file within Dir; callers use a
	// content hash of the submission (plus the property name when one
	// submission carries several searchable properties). Empty disables
	// checkpointing.
	Key string
	// Interval is the number of completed levels between commits
	// (default 1: every barrier). Every level is appended as it
	// completes; a commit and an fsync make the log up to it durable, so
	// larger intervals trade re-exploration after a crash for fewer
	// fsyncs.
	Interval int
	// Resume continues the log for Key from its last intact commit
	// before exploring. A missing, foreign, or corrupt log is ignored and
	// the search starts fresh — resume is always safe to request.
	Resume bool
	// OnWrite, when non-nil, is called after each durable commit with
	// the file path, the depth of the committed frontier, and the states
	// stored so far. verifyd journals checkpoint references through it.
	OnWrite func(file string, depth, states int)
}

// Checkpoint file layout: an 8-byte magic, then internal/frame frames
// whose first payload byte is a tag:
//
//	'L' uvarint depth, then [uvarint length][state vector] entries (the
//	    spill blob's entry layout): one BFS level, split into frames of
//	    about ckptFrameBytes
//	'C' JSON ckptCommit: every level before it is durable
//
// Levels follow each other in depth order from the root. The file is
// only ever appended to — a resume first truncates the uncommitted tail
// — so a reader keeps the prefix up to the last commit that agrees with
// the levels before it, and a log cut anywhere reads back as its last
// durable state.
//
// PNPCKPT3 logs hold state vectors. A PNPCKPT2 log, whose entries are
// the varint encoding that preceded them, is ignored like any foreign
// file: an old entry can have a vector's length and pass
// System.CheckState, and resuming from it would expand a state the
// design cannot reach.
const ckptMagic = "PNPCKPT3"

const (
	ckptTagLevel  = 'L'
	ckptTagCommit = 'C'

	ckptFrameBytes = 1 << 20
)

// ckptCommit is the 'C' record: identity (phase + model fingerprint +
// reduction, so a log from another design, property kind, or
// reduction setting is never resumed), the depth of the last level,
// and the cumulative stats of the search at that barrier. Stored is the
// number of entries before the commit.
type ckptCommit struct {
	Phase       string `json:"phase"`
	Model       string `json:"model"`
	POR         bool   `json:"por,omitempty"`
	Depth       int    `json:"depth"`
	Stored      int    `json:"stored"`
	Matched     int    `json:"matched"`
	Transitions int    `json:"transitions"`
	MaxDepth    int    `json:"max_depth"`
	Reduced     int    `json:"reduced,omitempty"`
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

// checkpointer appends one level search's log. A nil checkpointer
// (disabled, wrong engine) is a no-op on every method.
type checkpointer struct {
	c       *Checker
	opts    DurabilityOptions
	phase   string
	file    string
	modelID string
	f       *os.File // the open log: nil until the first barrier or a resume
	buf     []byte   // the frame being built, reused across barriers
	since   int
	failed  bool

	cBytes *obs.Counter
}

// newCheckpointer arms checkpointing for one level search, or returns
// nil when it does not apply (no options or no key).
func (c *Checker) newCheckpointer(phase string) *checkpointer {
	o := c.opts.Durability
	if o == nil || o.Dir == "" || o.Key == "" || c.opts.ReportUnreached {
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

// modelFingerprint identifies the system a log belongs to (model.Hash64
// of the model's structural fingerprint, hex).
func modelFingerprint(sys *model.System) string {
	var buf bytes.Buffer
	sys.WriteFingerprint(&buf)
	return fmt.Sprintf("%016x", model.Hash64(buf.Bytes()))
}

// barrier appends next, the level just collected at depth, to the log,
// and commits every Interval barriers. The first barrier of a fresh
// search creates the log and writes root, levels[0], ahead of it. An empty next means the search is
// about to terminate, so nothing is written. A write failure disables
// the checkpointer but never fails the search.
func (ck *checkpointer) barrier(depth int, root, next []parNode, st *Stats) {
	if ck == nil || ck.failed || len(next) == 0 {
		return
	}
	if err := ck.extend(depth, root, next, st); err != nil {
		ck.failed = true
	}
}

func (ck *checkpointer) extend(depth int, root, next []parNode, st *Stats) error {
	if ck.f == nil {
		if err := ck.create(root); err != nil {
			return err
		}
	}
	if err := ck.writeLevel(depth, next); err != nil {
		return err
	}
	if ck.since++; ck.since < ck.opts.Interval {
		return nil
	}
	ck.since = 0
	cb, err := json.Marshal(ckptCommit{
		Phase: ck.phase, Model: ck.modelID, POR: ck.c.opts.PartialOrder, Depth: depth,
		Stored: st.StatesStored, Matched: st.StatesMatched,
		Transitions: st.Transitions, MaxDepth: st.MaxDepth, Reduced: st.Reduced,
	})
	if err != nil {
		return err
	}
	ck.buf = append(ck.startFrame(ckptTagCommit), cb...)
	if err := ck.writeFrame(); err != nil {
		return err
	}
	if err := ck.f.Sync(); err != nil {
		return err
	}
	if ck.opts.OnWrite != nil {
		ck.opts.OnWrite(ck.file, depth, st.StatesStored)
	}
	return nil
}

// create starts a fresh log holding the root level.
func (ck *checkpointer) create(root []parNode) error {
	if err := os.MkdirAll(ck.opts.Dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(ck.file)
	if err != nil {
		return err
	}
	ck.f = f
	syncDir(ck.opts.Dir)
	if err := ck.write([]byte(ckptMagic)); err != nil {
		return err
	}
	return ck.writeLevel(0, root)
}

// writeLevel appends one level, given by its nodes' state vectors, as
// 'L' frames.
func (ck *checkpointer) writeLevel(depth int, level []parNode) error {
	start := func() { ck.buf = binary.AppendUvarint(ck.startFrame(ckptTagLevel), uint64(depth)) }
	start()
	for i := range level {
		enc := level[i].st.Bytes()
		ck.buf = binary.AppendUvarint(ck.buf, uint64(len(enc)))
		ck.buf = append(ck.buf, enc...)
		if len(ck.buf) >= ckptFrameBytes || i == len(level)-1 {
			if err := ck.writeFrame(); err != nil {
				return err
			}
			start()
		}
	}
	return nil
}

// startFrame resets buf to a blank frame header followed by tag.
func (ck *checkpointer) startFrame(tag byte) []byte {
	var hdr [frame.HeaderSize]byte
	return append(append(ck.buf[:0], hdr[:]...), tag)
}

// writeFrame fills in buf's frame header and appends the frame to the
// log in one write.
func (ck *checkpointer) writeFrame() error {
	h := frame.Header(ck.buf[frame.HeaderSize:])
	copy(ck.buf, h[:])
	return ck.write(ck.buf)
}

func (ck *checkpointer) write(b []byte) error {
	n, err := ck.f.Write(b)
	ck.cBytes.Add(int64(n))
	return err
}

// syncDir fsyncs a directory so a new or renamed entry survives power
// loss; errors are ignored (not all filesystems support it).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// restore loads the last intact commit of the log into the runner and
// returns the resumed frontier level and its depth, leaving the log
// open for appending right after that commit. ok is false — and the
// search starts fresh — when resume is off, the file is missing, or
// anything about it fails validation: an entry that is not a vector of
// the system's length, or a frontier state the system could not reach
// or not in canonical form (model.System.CheckState).
func (ck *checkpointer) restore(r *parRunner, res *Result) (levels [][]parNode, depth int, ok bool) {
	if ck == nil || !ck.opts.Resume {
		return nil, 0, false
	}
	data, err := os.ReadFile(ck.file)
	if err != nil {
		return nil, 0, false
	}
	log, err := readCheckpoint(data)
	if err != nil || log.commit.Phase != ck.phase || log.commit.Model != ck.modelID ||
		log.commit.POR != ck.c.opts.PartialOrder {
		return nil, 0, false
	}
	sys := ck.c.sys
	shape := sys.InitialState()
	// Every entry goes into the visited set, whose collapse tier cuts it
	// at the vector's fixed offsets.
	for _, enc := range log.visited {
		if len(enc) != len(shape.Bytes()) {
			return nil, 0, false
		}
	}
	frontier := log.visited[log.front:]
	front := make([]parNode, 0, len(frontier))
	for _, b := range frontier {
		st, err := model.DecodeKey(shape, b)
		if err != nil || sys.CheckState(st) != nil {
			return nil, 0, false
		}
		front = append(front, parNode{st: st, parent: -1})
	}
	f, err := os.OpenFile(ck.file, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, 0, false
	}
	if err := f.Truncate(log.size); err != nil {
		f.Close()
		return nil, 0, false
	}
	ck.f = f
	for _, enc := range log.visited {
		r.visited.seen(0, model.Hash64(enc), enc)
	}
	c := log.commit
	r.stored.Store(int64(c.Stored))
	res.Stats.StatesStored = c.Stored
	res.Stats.StatesMatched = c.Matched
	res.Stats.Transitions = c.Transitions
	res.Stats.MaxDepth = c.MaxDepth
	res.Stats.Reduced = c.Reduced
	return [][]parNode{front}, c.Depth, true
}

// finish closes the log and removes it once the search produced a real
// verdict. A Canceled search keeps its file — that is the crash/resume
// path — as does a crash (finish never runs).
func (ck *checkpointer) finish(res *Result) {
	if ck == nil {
		return
	}
	if ck.f != nil {
		ck.f.Close()
	}
	if res.Kind != Canceled {
		os.Remove(ck.file)
	}
}

// ckptLog is the committed prefix of a checkpoint log.
type ckptLog struct {
	commit  ckptCommit
	visited [][]byte // every stored state's encoding, level by level
	front   int      // index in visited of the frontier, the last level
	size    int64    // byte length of the prefix, through the commit
}

// readCheckpoint parses a checkpoint log up to its last valid commit:
// one whose depth is the last level's and whose Stored counts every
// entry before it. Scanning stops at the first torn or corrupt frame, so
// everything it keeps passed its CRC. Entries alias data.
func readCheckpoint(data []byte) (*ckptLog, error) {
	if !bytes.HasPrefix(data, []byte(ckptMagic)) {
		return nil, errors.New("checker: bad checkpoint magic")
	}
	var (
		log     *ckptLog
		entries [][]byte
		depth   = -1 // of the last level read
		front   int  // where its entries start
	)
	rest := data[len(ckptMagic):]
scan:
	for len(rest) > 0 {
		payload, next, err := frame.Next(rest)
		if err != nil {
			break
		}
		rest = next
		body := payload[1:]
		switch payload[0] {
		case ckptTagLevel:
			d, w := binary.Uvarint(body)
			switch {
			case w <= 0:
				break scan
			case d == uint64(depth+1):
				depth++
				front = len(entries)
			case depth < 0 || d != uint64(depth):
				break scan
			}
			more, err := readEntries(body[w:], entries)
			if err != nil {
				break scan
			}
			entries = more
		case ckptTagCommit:
			var c ckptCommit
			if json.Unmarshal(body, &c) != nil || c.Depth != depth || c.Stored != len(entries) || front == len(entries) {
				break scan
			}
			log = &ckptLog{commit: c, front: front, size: int64(len(data) - len(rest))}
		default:
			break scan
		}
	}
	if log == nil {
		return nil, errors.New("checker: checkpoint has no intact commit")
	}
	log.visited = entries[:log.commit.Stored]
	return log, nil
}

// readEntries appends the concatenated length-prefixed state encodings
// in body to into.
func readEntries(body []byte, into [][]byte) ([][]byte, error) {
	for len(body) > 0 {
		n, w := binary.Uvarint(body)
		if w <= 0 || n > uint64(len(body)-w) {
			return nil, io.ErrUnexpectedEOF
		}
		into = append(into, body[w:w+int(n)])
		body = body[w+int(n):]
	}
	return into, nil
}
