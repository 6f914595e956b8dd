package verifyd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pnp/internal/api"
	"pnp/internal/frame"
	"pnp/internal/obs"
)

// The job journal is the durability backbone of a --data-dir server: an
// append-only write-ahead log of job lifecycle records under
// <data-dir>/journal. Every accepted HTTP submission is journaled
// before its 202 is written; on startup the journal is replayed —
// completed jobs are re-registered with their verdicts, incomplete jobs
// are re-enqueued — so kill -9 loses nothing.
//
// One record is one internal/frame frame around a JSON payload. A torn
// tail (partial final record after a crash) fails its CRC or length
// check and replay stops there — exactly the records that were never
// acknowledged.
//
// Appends are group-committed: writers queue behind one fsync performed
// by a dedicated flusher goroutine, so a burst of submissions pays one
// disk flush, not one each. Segments rotate once the live segment
// passes journalSegmentBytes; rotation compacts — only records of jobs
// the server still retains are rewritten, so journal size is bounded by
// RetainJobs, not by history.
const (
	recAccepted   = "accepted"
	recStarted    = "started"
	recCheckpoint = "checkpoint"
	recCompleted  = "completed"
)

// journalSegmentBytes is the rotation threshold of the live segment.
const journalSegmentBytes = 4 << 20

// journalRecord is one WAL entry. Fields beyond Type/ID are
// type-dependent: accepted carries the full wire request (everything
// needed to re-run the job), started the attempt number, checkpoint a
// search-checkpoint file reference, completed the final report. Completed
// records are self-contained (seq + key + report), so compaction keeps
// only them for done jobs.
type journalRecord struct {
	Type    string          `json:"type"`
	ID      string          `json:"id"`
	Seq     int             `json:"seq,omitempty"`
	Time    time.Time       `json:"time"`
	Key     string          `json:"key,omitempty"`
	Req     *api.JobRequest `json:"req,omitempty"`
	Attempt int             `json:"attempt,omitempty"`
	File    string          `json:"file,omitempty"`
	Depth   int             `json:"depth,omitempty"`
	Report  *api.Report     `json:"report,omitempty"`

	CacheHits   int `json:"cache_hits,omitempty"`
	CacheMisses int `json:"cache_misses,omitempty"`

	// Module accounting of the completed job (since PR10), so a
	// replayed verdict keeps reporting what its compilation reused.
	Modules         []api.ModuleInfo `json:"modules,omitempty"`
	ModulesReused   int              `json:"modules_reused,omitempty"`
	ModulesCompiled int              `json:"modules_compiled,omitempty"`
}

// journalFsyncBuckets resolve sub-millisecond SSD flushes out to
// second-class spinning-rust outliers.
var journalFsyncBuckets = []float64{
	0.0001, 0.0005, 0.001, 0.004, 0.016, 0.064, 0.256, 1, 4,
}

type journal struct {
	dir      string
	segLimit int64

	hFsync   *obs.Histogram
	cRecords *obs.Counter

	mu      sync.Mutex
	f       *os.File
	size    int64
	seg     int
	waiters []chan error
	closed  bool

	flushC chan struct{}
	quit   chan struct{}
	done   chan struct{}
}

// openJournal opens (creating if needed) the journal under dir, replays
// every intact record from its segments in order, and starts the fsync
// flusher. The returned records are in append order across segments.
func openJournal(dir string, segLimit int64, reg *obs.Registry) (*journal, []journalRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	segs, err := journalSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	var recs []journalRecord
	last := 0
	for _, seg := range segs {
		data, err := os.ReadFile(filepath.Join(dir, segmentName(seg)))
		if err != nil {
			return nil, nil, err
		}
		recs = append(recs, decodeRecords(data)...)
		last = seg
	}
	j := &journal{
		dir:      dir,
		segLimit: segLimit,
		hFsync:   reg.Histogram("verifyd_journal_fsync_seconds", journalFsyncBuckets),
		cRecords: reg.Counter("verifyd_journal_records_total"),
		seg:      last + 1,
		flushC:   make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	j.f, err = os.OpenFile(filepath.Join(dir, segmentName(j.seg)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	go j.flusher()
	return j, recs, nil
}

func segmentName(seg int) string { return fmt.Sprintf("wal-%08d.log", seg) }

// journalSegments lists segment sequence numbers in ascending order.
func journalSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "wal-%08d.log", &n); err == nil {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// decodeRecords parses framed records until the data ends or a frame
// fails validation — a torn tail from a crash mid-append truncates
// there, never poisoning earlier records.
func decodeRecords(data []byte) []journalRecord {
	var recs []journalRecord
	for {
		payload, rest, err := frame.Next(data)
		if err != nil {
			break
		}
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			break
		}
		recs = append(recs, rec)
		data = rest
	}
	return recs
}

// append writes one record and blocks until it is durable (group
// fsync). Safe for concurrent callers; callers must not hold locks the
// flusher's compaction callbacks need.
func (j *journal) append(rec journalRecord) error {
	buf, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	w := make(chan error, 1)
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return fmt.Errorf("verifyd: journal closed")
	}
	if _, err := j.f.Write(buf); err != nil {
		j.mu.Unlock()
		return err
	}
	j.size += int64(len(buf))
	j.waiters = append(j.waiters, w)
	j.mu.Unlock()
	select {
	case j.flushC <- struct{}{}:
	default:
	}
	j.cRecords.Add(1)
	return <-w
}

func encodeRecord(rec journalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return frame.Append(make([]byte, 0, frame.HeaderSize+len(payload)), payload), nil
}

// flusher performs the group commits: every wakeup syncs once and
// releases every writer that queued since the previous sync.
func (j *journal) flusher() {
	defer close(j.done)
	for {
		select {
		case <-j.quit:
			j.flush()
			return
		case <-j.flushC:
			j.flush()
		}
	}
}

func (j *journal) flush() {
	j.mu.Lock()
	ws := j.waiters
	j.waiters = nil
	f := j.f
	j.mu.Unlock()
	if len(ws) == 0 {
		return
	}
	t0 := time.Now()
	err := f.Sync()
	j.hFsync.Observe(time.Since(t0).Seconds())
	for _, w := range ws {
		w <- err
	}
}

// overLimit reports whether the live segment has outgrown the rotation
// threshold.
func (j *journal) overLimit() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size > j.segLimit
}

// compact rewrites the journal down to the live records — the callback
// runs under the journal lock, so no append can slip between the live
// snapshot and the segment swap. The new segment is fully written and
// fsynced before old segments are removed; a crash mid-compaction
// leaves either the old segments or the complete new one.
func (j *journal) compact(live func() []journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	recs := live()
	next := j.seg + 1
	path := filepath.Join(j.dir, segmentName(next))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	var size int64
	for _, rec := range recs {
		buf, err := encodeRecord(rec)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		if _, err := f.Write(buf); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		size += int64(len(buf))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	old, _ := journalSegments(j.dir)
	j.f.Close()
	j.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.size = size
	j.seg = next
	for _, seg := range old {
		if seg < next {
			os.Remove(filepath.Join(j.dir, segmentName(seg)))
		}
	}
	return nil
}

// close stops the flusher after a final flush. Outstanding appends are
// released; further appends fail.
func (j *journal) close() {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	j.closed = true
	j.mu.Unlock()
	close(j.quit)
	<-j.done
}
