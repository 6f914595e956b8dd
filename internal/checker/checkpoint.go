package checker

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

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
	// checkpointing, as does a key another search of this process is
	// using: a log has one writer.
	Key string
	// Interval is the number of completed levels between commits. Every
	// level is appended as it completes; a commit and an fsync make the
	// log up to it durable. Zero (the default), or less, paces commits by
	// the disk: a log's first commit, fresh or resumed, is at its first
	// barrier, and each later one once the search has explored, since the
	// previous commit finished, at least as long as that commit's fsync
	// took. fsync time then stays within the exploration time plus one
	// commit, and a crash loses at most one commit's duration of
	// exploration plus one level. Interval ≥ 1 commits every Interval
	// barriers, whatever the disk costs.
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
//	'L' uvarint depth, then n × width bytes: n state vectors of one BFS
//	    level (frames of about ckptFrameBytes). Every vector is
//	    layout.size bytes and the commit's model id pins the system, so
//	    an entry needs no length.
//	'C' JSON ckptCommit: every level before it is durable
//
// Levels follow each other in depth order from the root. The file is
// only ever appended to — a resume first truncates the uncommitted tail
// — so a reader keeps the prefix up to the last commit that agrees with
// the levels before it, and a log cut anywhere reads back as its last
// durable state. The same writer keeps a budgeted search's level log
// when it is not durable: an unsynced scratch file with no commits,
// unlinked in the spill directory as it is created. Either way the log
// is the search's one on-disk copy of every state, which the spill tier
// indexes (spill.go).
//
// Older logs are ignored like any foreign file: PNPCKPT3 framed each
// vector with a uvarint length, and a PNPCKPT2 entry (the varint
// encoding before vectors) can have a vector's length and pass
// System.CheckState, so resuming it would expand an unreachable state.
const ckptMagic = "PNPCKPT4"

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

// checkpointer appends one level search's log. A nil checkpointer (no
// durability and no budget, or the wrong engine) is a no-op on every
// method.
type checkpointer struct {
	c       *Checker
	opts    DurabilityOptions
	durable bool // false: a budgeted search's scratch log, never committed or resumed
	phase   string
	file    string
	modelID string
	f       *os.File // the open log: nil until the first barrier or a resume
	size    int64    // bytes in the log: the offset of the next frame
	buf     []byte   // the frame being built, reused across barriers
	since   int      // barriers since the last commit (Interval ≥ 1)
	failed  bool
	spill   *spillSet // under a memory budget: indexes the logged vectors

	// Pacing (Interval < 1): the next commit is due once the clock has
	// moved last past mark.
	paced bool
	clock ckptClock
	last  time.Duration // the previous commit's fsync (zero before the first)
	mark  time.Time     // when that commit finished, OnWrite included

	cBytes   *obs.Counter
	cCommits *obs.Counter
	hFsync   *obs.Histogram
}

// ckptClock is what a durable log's commits are paced by: the time and
// the commit's fsync. Tests substitute a fake through Checker.clock so
// that a commit takes a chosen number of levels, without sleeping.
type ckptClock struct {
	now  func() time.Time
	sync func(*os.File) error
}

var wallClock = ckptClock{now: time.Now, sync: (*os.File).Sync}

// ckptOwners holds the paths of the durable logs open in this process.
// A budgeted search reads its log back at offsets it counted itself, so
// a log has one writer: a second search under a key in use (verifyd runs
// jobs of one submission side by side) must not truncate or append to it.
var ckptOwners sync.Map

// newCheckpointer arms the level log of one level search: the durable
// checkpoint when Options.Durability applies (options with a key, no
// ReportUnreached) and no other search of the process holds the key's
// log, otherwise the scratch log of spill, the search's spill tier. It
// returns nil when neither applies.
func (c *Checker) newCheckpointer(phase string, spill *spillSet) *checkpointer {
	o := c.opts.Durability
	var file string
	taken := true
	if o != nil && o.Dir != "" && o.Key != "" && !c.opts.ReportUnreached {
		file = filepath.Join(o.Dir, CheckpointFileName(o.Key))
		_, taken = ckptOwners.LoadOrStore(file, true)
	}
	if taken {
		if spill == nil {
			return nil
		}
		return &checkpointer{spill: spill, cBytes: spill.m.bytes}
	}
	ck := &checkpointer{c: c, opts: *o, durable: true, phase: phase, modelID: modelFingerprint(c.sys), spill: spill, file: file,
		paced: o.Interval < 1, clock: c.clock}
	if reg := c.opts.Metrics; reg != nil {
		ck.cBytes = reg.Counter("checkpoint_bytes_written_total")
		ck.cCommits = reg.Counter("checker_checkpoint_commits_total")
		ck.hFsync = reg.Histogram("checker_checkpoint_fsync_seconds", nil)
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
// commits it if durable and a commit is due, then lets the spill
// tier index what the log now holds when the budget is exceeded. The
// first barrier of a fresh search creates the log and writes root,
// levels[0], ahead of it. An empty next means the search is about to
// terminate, so nothing is written. A write failure disables the log
// but never fails the search; it turns the spill tier off too, since
// the index could point at vectors the log lacks.
func (ck *checkpointer) barrier(depth int, root, next []parNode, st *Stats) {
	if ck == nil || len(next) == 0 {
		return
	}
	s := ck.spill
	if !ck.failed && (ck.durable || !s.failed) && ck.extend(depth, root, next, st) != nil {
		ck.failed = true
	}
	if s != nil {
		if ck.failed {
			s.fail()
		} else if s.due() {
			s.spill(ck.f, ck.size)
		}
		st.SpilledStates = int(s.spilled.Load())
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
	if !ck.durable || !ck.due() {
		return nil
	}
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
	start := ck.clock.now()
	if err := ck.clock.sync(ck.f); err != nil {
		return err
	}
	ck.last = ck.clock.now().Sub(start)
	ck.hFsync.Observe(ck.last.Seconds())
	ck.cCommits.Add(1)
	if ck.opts.OnWrite != nil {
		ck.opts.OnWrite(ck.file, depth, st.StatesStored)
	}
	ck.mark = ck.clock.now()
	return nil
}

// due reports whether this barrier commits: every Interval barriers,
// or, paced, once the time since the previous commit finished is at
// least what it took. Before its first commit a log, fresh or resumed,
// has no previous one (zero last), so it commits at its first barrier.
func (ck *checkpointer) due() bool {
	if ck.paced {
		return ck.clock.now().Sub(ck.mark) >= ck.last
	}
	if ck.since++; ck.since < ck.opts.Interval {
		return false
	}
	ck.since = 0
	return true
}

// create starts a fresh log holding the root level: the named
// checkpoint file when durable, else a scratch file of the spill tier.
func (ck *checkpointer) create(root []parNode) error {
	var err error
	if !ck.durable {
		ck.f, err = ck.spill.create()
	} else if err = os.MkdirAll(ck.opts.Dir, 0o755); err == nil {
		if ck.f, err = os.Create(ck.file); err == nil {
			syncDir(ck.opts.Dir)
		}
	}
	if err != nil {
		return err
	}
	if err := ck.write([]byte(ckptMagic)); err != nil {
		return err
	}
	return ck.writeLevel(0, root)
}

// writeLevel appends one level, given by its nodes' state vectors, as
// 'L' frames, and queues each frame's run of vectors for the spill tier
// to index.
func (ck *checkpointer) writeLevel(depth int, level []parNode) error {
	per := max(1, ckptFrameBytes/len(level[0].st.Bytes()))
	for len(level) > 0 {
		n := min(len(level), per)
		ck.buf = binary.AppendUvarint(ck.startFrame(ckptTagLevel), uint64(depth))
		run := ckptRun{off: ck.size + int64(len(ck.buf)), n: n}
		for i := range level[:n] {
			ck.buf = append(ck.buf, level[i].st.Bytes()...)
		}
		if err := ck.writeFrame(); err != nil {
			return err
		}
		if ck.spill != nil {
			ck.spill.pending = append(ck.spill.pending, run)
		}
		level = level[n:]
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
	ck.size += int64(n)
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
// open for appending right after that commit. The log is mapped, not
// read into memory. Under a memory budget its committed vectors become
// one spill segment and the in-memory tier starts empty; otherwise they
// go into the in-memory visited set. ok is false — and the search
// starts fresh — when resume is off, the file is missing, or anything
// about it fails validation: a level frame that is not whole vectors
// of the system's width, or a frontier state the system could not reach
// or not in canonical form (model.System.CheckState).
func (ck *checkpointer) restore(r *parRunner, res *Result) (levels [][]parNode, depth int, ok bool) {
	if ck == nil || !ck.durable || !ck.opts.Resume {
		return nil, 0, false
	}
	f, err := os.OpenFile(ck.file, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return nil, 0, false
	}
	defer func() {
		if !ok {
			f.Close()
		}
	}()
	var view fileView
	if view.extendTo(f, -1) != nil {
		return nil, 0, false
	}
	defer view.close()
	sys := ck.c.sys
	shape := sys.InitialState()
	width := len(shape.Bytes())
	log, err := readCheckpoint(view.data, width)
	if err != nil || log.commit.Phase != ck.phase || log.commit.Model != ck.modelID ||
		log.commit.POR != ck.c.opts.PartialOrder {
		return nil, 0, false
	}
	var front []parNode
	ok = true
	eachVector(view.data, log.runs[log.front:], width, func(_ int64, vec []byte) {
		st, err := model.DecodeKey(shape, vec)
		if err != nil || sys.CheckState(st) != nil {
			ok = false
		} else if ok {
			front = append(front, parNode{st: st, parent: -1})
		}
	})
	if !ok || f.Truncate(log.size) != nil {
		return nil, 0, false
	}
	ck.f, ck.size = f, log.size
	indexed := false
	if s := ck.spill; s != nil {
		s.pending = log.runs
		indexed = s.spill(f, log.size)
		res.Stats.SpilledStates = int(s.spilled.Load())
	}
	if !indexed {
		eachVector(view.data, log.runs, width, func(_ int64, vec []byte) { r.visited.seen(0, model.Hash64(vec), vec) })
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

// finish closes the log, removes a durable one once the search produced
// a real verdict, and gives up its ownership. A Canceled search keeps
// its file — the crash/resume path — as does a crash (finish never
// runs). A scratch log was unlinked when it was created: it is gone once
// closed and unmapped.
func (ck *checkpointer) finish(res *Result) {
	if ck == nil {
		return
	}
	if ck.f != nil && ck.durable {
		ck.f.Close()
	} else if ck.f != nil {
		closeScratch(ck.f)
	}
	if ck.durable {
		if res.Kind != Canceled {
			os.Remove(ck.file)
		}
		ckptOwners.Delete(ck.file)
	}
}

// ckptLog is the committed prefix of a checkpoint log.
type ckptLog struct {
	commit ckptCommit
	runs   []ckptRun // every 'L' frame before the commit, in log order
	front  int       // runs[front:] hold the frontier, the last level
	size   int64     // byte length of the prefix, through the commit
}

// ckptRun is the vectors of one 'L' frame: n of them from byte off.
type ckptRun struct {
	off int64
	n   int
}

// eachVector calls fn with the offset and bytes of every width-byte
// vector of runs, runs of the log data.
func eachVector(data []byte, runs []ckptRun, width int, fn func(off int64, vec []byte)) {
	w := int64(width)
	for _, r := range runs {
		for off := r.off; off < r.off+int64(r.n)*w; off += w {
			fn(off, data[off:off+w:off+w])
		}
	}
}

// readCheckpoint parses a log of width-byte vectors up to its last
// valid commit: one whose depth is the last level's and whose Stored
// counts every vector before it. Scanning stops at the first torn or
// corrupt frame, or a level frame that is not whole vectors, so
// everything it keeps passed its CRC. The log aliases data.
func readCheckpoint(data []byte, width int) (*ckptLog, error) {
	if width < 1 || !bytes.HasPrefix(data, []byte(ckptMagic)) {
		return nil, errors.New("checker: bad checkpoint magic")
	}
	var (
		log    *ckptLog
		runs   []ckptRun
		stored int
		depth  = -1 // of the last level read
		front  int  // where its runs start
	)
	rest := data[len(ckptMagic):]
scan:
	for len(rest) > 0 {
		payload, next, err := frame.Next(rest)
		if err != nil {
			break
		}
		at := int64(len(data)-len(rest)) + frame.HeaderSize + 1 // the offset of body
		rest = next
		body := payload[1:]
		switch payload[0] {
		case ckptTagLevel:
			d, w := binary.Uvarint(body)
			if w <= 0 || len(body) == w || (len(body)-w)%width != 0 {
				break scan
			}
			switch {
			case d == uint64(depth+1):
				depth++
				front = len(runs)
			case depth < 0 || d != uint64(depth):
				break scan
			}
			n := (len(body) - w) / width
			runs = append(runs, ckptRun{off: at + int64(w), n: n})
			stored += n
		case ckptTagCommit:
			var c ckptCommit
			if json.Unmarshal(body, &c) != nil || c.Depth != depth || c.Stored != stored || front == len(runs) {
				break scan
			}
			log = &ckptLog{commit: c, runs: runs, front: front, size: int64(len(data) - len(rest))}
		default:
			break scan
		}
	}
	if log == nil {
		return nil, errors.New("checker: checkpoint has no intact commit")
	}
	return log, nil
}
