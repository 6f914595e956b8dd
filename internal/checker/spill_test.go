package checker

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"pnp/internal/frame"
	"pnp/internal/model"
	"pnp/internal/obs"
)

// testLog writes a level log holding encs as one level, and returns its
// path, its bytes and each vector's index entry.
func testLog(tb testing.TB, dir string, encs [][]byte) (path string, data []byte, ents []idxEnt) {
	tb.Helper()
	body := []byte{ckptTagLevel, 0}
	for _, e := range encs {
		ents = append(ents, idxEnt{fp: model.Hash64(e), off: uint64(len(ckptMagic) + frame.HeaderSize + len(body))})
		body = append(body, e...)
	}
	data = frame.Append([]byte(ckptMagic), body)
	path = filepath.Join(dir, "levels.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		tb.Fatal(err)
	}
	return path, data, ents
}

// writeTestSegment writes, at dir/seg-num.seg, a segment whose index
// merges ents, sorted here, with the indexes of srcs.
func writeTestSegment(tb testing.TB, dir string, num int, ents []idxEnt, srcs ...*spillSegment) string {
	tb.Helper()
	ents = slices.Clone(ents)
	slices.SortFunc(ents, func(a, b idxEnt) int { return cmp.Compare(a.fp, b.fp) })
	path := filepath.Join(dir, fmt.Sprintf("seg-%06d.seg", num))
	if err := writeSpillSegment(bufio.NewWriter(nil), path, ents, srcs); err != nil {
		tb.Fatalf("writeSpillSegment: %v", err)
	}
	return path
}

// writeMergedTestSegment writes each part of ents but the last as a
// plain segment, numbered in order, then segment len(parts)-1: the last
// part's entries merged with all of theirs. It returns the merged
// segment's path; the sources are open until the test ends.
func writeMergedTestSegment(tb testing.TB, dir string, logLen int64, width int, parts ...[]idxEnt) string {
	tb.Helper()
	last := len(parts) - 1
	var srcs []*spillSegment
	for num := range last {
		seg, err := openSpillSegment(writeTestSegment(tb, dir, num, parts[num]), logLen, width)
		if err != nil {
			tb.Fatalf("openSpillSegment: %v", err)
		}
		tb.Cleanup(seg.close)
		srcs = append(srcs, seg)
	}
	return writeTestSegment(tb, dir, last, parts[last], srcs...)
}

// A segment, written whole or merged from sources and new entries,
// holds exactly its entries, each found through its vector in the log;
// over a log too short for one of its entries it does not open.
func TestSpillSegmentRoundTrip(t *testing.T) {
	_, encs, fps := benchComponentStates(t, 1500)
	dir := t.TempDir()
	_, log, ents := testLog(t, dir, encs)
	width := len(encs[0])
	merged := writeMergedTestSegment(t, t.TempDir(), int64(len(log)), width, ents[:900], ents[900:1300], ents[1300:])
	if seg, err := openSpillSegment(merged, int64(len(log)-1), width); err == nil {
		seg.close()
		t.Fatal("segment opened over a log that ends inside its last vector")
	}
	for name, path := range map[string]string{
		"plain":  writeTestSegment(t, t.TempDir(), 0, ents),
		"merged": merged,
	} {
		seg, err := openSpillSegment(path, int64(len(log)), width)
		if err != nil {
			t.Fatalf("%s: openSpillSegment: %v", name, err)
		}
		defer seg.close()
		if seg.count != len(encs) {
			t.Fatalf("%s: count = %d, want %d", name, seg.count, len(encs))
		}
		for j := range encs {
			if !seg.contains(fps[j], encs[j], log) {
				t.Fatalf("%s: entry %d missing from segment", name, j)
			}
		}
		absent := slices.Clone(encs[0])
		absent[len(absent)-1] ^= 0xff
		if seg.contains(model.Hash64(absent), absent, log) {
			t.Fatalf("%s: segment claims to contain an absent entry", name)
		}
		// Same fingerprint, different bytes: must compare bytes, not hashes.
		if seg.contains(fps[0], absent, log) {
			t.Fatalf("%s: segment matched on fingerprint alone", name)
		}
	}
}

// spillCorruptions are the ways a segment file can rot, each applied to
// a copy of a valid file with at least one entry.
var spillCorruptions = map[string]func([]byte) []byte{
	"magic":  func(b []byte) []byte { b[0] ^= 0xff; return b },
	"header": func(b []byte) []byte { b[len(spillMagic)+9] ^= 0xff; return b },
	"index":  func(b []byte) []byte { b[len(b)-4] ^= 0xff; return b },
	// The last entry's vector far past the log, under a valid CRC: only
	// the range check can catch it.
	"offset": func(b []byte) []byte {
		at := len(spillMagic) + frame.HeaderSize + int(binary.LittleEndian.Uint32(b[len(spillMagic):]))
		binary.LittleEndian.PutUint64(b[len(b)-8:], 1<<40)
		binary.LittleEndian.PutUint32(b[at+4:], crc32.ChecksumIEEE(b[at+frame.HeaderSize:]))
		return b
	},
	"truncated": func(b []byte) []byte { return b[:len(b)-10] },
	"trailing":  func(b []byte) []byte { return append(b, 0xAA) },
	"empty":     func(b []byte) []byte { return b[:0] },
}

// Every flavor of corruption must be detected at open — never probed.
func TestSpillSegmentCorruptionDetected(t *testing.T) {
	_, encs, _ := benchComponentStates(t, 200)
	dir := t.TempDir()
	_, log, ents := testLog(t, dir, encs)
	data, err := os.ReadFile(writeTestSegment(t, dir, 0, ents))
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range spillCorruptions {
		t.Run(name, func(t *testing.T) {
			bad := mutate(append([]byte(nil), data...))
			p := filepath.Join(dir, "bad-"+name+".seg")
			if err := os.WriteFile(p, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if seg, err := openSpillSegment(p, int64(len(log)), len(encs[0])); err == nil {
				seg.close()
				t.Fatal("corrupt segment opened without error")
			}
		})
	}
}

// spillHarness is a budgeted search's barriers in miniature: each level
// call stores a batch of fresh states, logs it as the next level of a
// scratch log (the batch of the first call is the root level and level
// 1) and lets the spill tier index it.
type spillHarness struct {
	tb    testing.TB
	s     *spillSet
	ck    *checkpointer
	shape *model.State
	root  []parNode
	depth int
}

func newSpillHarness(tb testing.TB, shape *model.State, mem memTier, dir string) *spillHarness {
	reg := obs.NewRegistry()
	s := newSpillSet(mem, len(shape.Bytes()), 1, dir, newSpillMetrics(reg, "test", reg.Counter("spilled")))
	tb.Cleanup(s.close)
	return &spillHarness{tb: tb, s: s, ck: &checkpointer{spill: s, cBytes: s.m.bytes}, shape: shape}
}

func (h *spillHarness) level(encs [][]byte) {
	h.tb.Helper()
	nodes := make([]parNode, len(encs))
	for i, e := range encs {
		if h.s.seen(0, model.Hash64(e), e) {
			h.tb.Fatalf("fresh state %d of the level reported seen", i)
		}
		st, err := model.DecodeKey(h.shape, e)
		if err != nil {
			h.tb.Fatal(err)
		}
		nodes[i] = parNode{st: st}
	}
	if h.root == nil {
		h.root, nodes = nodes[:1], nodes[1:]
	}
	h.depth++
	h.ck.barrier(h.depth, h.root, nodes, &Stats{})
}

// has fails the test unless the set holds every one of encs.
func (h *spillHarness) has(encs [][]byte) {
	h.tb.Helper()
	for j, e := range encs {
		if !h.s.seen(0, model.Hash64(e), e) {
			h.tb.Fatalf("state %d lost", j)
		}
	}
	if h.s.size() != len(encs) {
		h.tb.Fatalf("size = %d, want %d", h.s.size(), len(encs))
	}
}

// tierOff fails the test unless the tier turned off, and
// checker_spill_tier_off_total says so once.
func (h *spillHarness) tierOff() {
	h.tb.Helper()
	if !h.s.failed || h.s.m.off.Value() != 1 {
		h.tb.Fatalf("tier failed=%v, checker_spill_tier_off_total %d; want off, counted once", h.s.failed, h.s.m.off.Value())
	}
}

// runFiles lists the spill run directory.
func (h *spillHarness) runFiles() []os.DirEntry {
	h.tb.Helper()
	files, err := os.ReadDir(h.s.runDir)
	if err != nil {
		h.tb.Fatal(err)
	}
	return files
}

// A spillSet whose directory cannot be created (its parent is a file)
// degrades to in-memory growth: no log, no spill, same membership, no
// crash.
func TestSpillSetUnwritableDirDegrades(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	shape, encs, _ := benchComponentStates(t, 500)
	h := newSpillHarness(t, shape, newStateTable(len(encs[0]), 1, nil), filepath.Join(file, "sub"))
	for j := 0; j < len(encs); j += 50 {
		h.level(encs[j : j+50])
	}
	h.has(encs)
	h.tierOff()
	if h.s.spilled.Load() != 0 || !h.ck.failed {
		t.Fatalf("spilled %d states, log failed=%v; want no spill and no log", h.s.spilled.Load(), h.ck.failed)
	}
}

// A level log that stops taking writes turns the tier off: the states
// already indexed stay probed, the level the log lost stays in memory,
// and membership stays exact.
func TestSpillSetFailedLogWriteDegrades(t *testing.T) {
	shape, encs, _ := benchComponentStates(t, 400)
	h := newSpillHarness(t, shape, newStateTable(len(encs[0]), 1, nil), t.TempDir())
	h.level(encs[:100])
	h.level(encs[100:200])
	if h.s.spilled.Load() != 200 || h.s.failed {
		t.Fatalf("spilled %d, failed=%v before the log broke", h.s.spilled.Load(), h.s.failed)
	}
	h.ck.f.Close() // every later write fails
	h.level(encs[200:300])
	h.level(encs[300:])
	if !h.ck.failed || !h.s.failed || h.s.spilled.Load() != 200 || h.s.mem.size() != 200 {
		t.Fatalf("log failed=%v, tier failed=%v, %d spilled, %d in memory; want the tier off after 200",
			h.ck.failed, h.s.failed, h.s.spilled.Load(), h.s.mem.size())
	}
	h.has(encs)
	h.tierOff()
}

// A spillSet holding maxFiles live segments turns the tier off instead
// of mapping another: later states stay in memory, the segments already
// written stay probed, and membership stays exact.
func TestSpillSetStopsAtMaxFiles(t *testing.T) {
	shape, encs, _ := benchComponentStates(t, 500)
	h := newSpillHarness(t, shape, newStateTable(len(encs[0]), 1, nil), t.TempDir())
	h.s.maxFiles = 2
	for j := 0; j < len(encs); j += 50 {
		h.level(encs[j : j+50])
	}
	// Three spills leave two live segments (of two spills and of one);
	// the fourth finds the bound reached.
	if !h.s.failed || len(h.s.segs) != 2 || h.s.spilled.Load() != 150 {
		t.Fatalf("failed=%v, %d segments, %d spilled; want the tier off after 3 spills of 150 states",
			h.s.failed, len(h.s.segs), h.s.spilled.Load())
	}
	if files := h.runFiles(); len(files) != 3 {
		t.Fatalf("%d files in the run dir, want the log and 2 segments", len(files))
	}
	h.has(encs)
	h.tierOff()
	if h.s.mem.size() != len(encs)-150 {
		t.Fatalf("%d states in memory, want %d", h.s.mem.size(), len(encs)-150)
	}
}

// spillMems are the in-memory tiers a spill set can wrap.
func spillMems(shape *model.State) map[string]func() memTier {
	return map[string]func() memTier{
		"exact":    func() memTier { return newStateTable(len(shape.Bytes()), 1, nil) },
		"collapse": func() memTier { return newCollapseSet(shape, nil) },
	}
}

// The spill set keeps exact membership across spills, for both exact
// and collapse in-memory tiers. Spilling after every small level merges
// indexes like a binary counter: a search that spilled S times probes
// at most bits.Len(S) indexes, with strictly decreasing spill and state
// counts, and its run dir holds the log and the live segments only —
// each merged segment is deleted.
func TestSpillSetMembershipAcrossSpills(t *testing.T) {
	shape, encs, _ := benchComponentStates(t, 2000)
	for name, mk := range spillMems(shape) {
		t.Run(name, func(t *testing.T) {
			h := newSpillHarness(t, shape, mk(), t.TempDir())
			spills := 0
			for j := 0; j < len(encs); j += 8 {
				h.level(encs[j : j+8]) // MemLimit 1: every barrier spills
				spills++
				s := h.s
				if len(s.segs) > bits.Len(uint(spills)) {
					t.Fatalf("after %d spills: %d segments", spills, len(s.segs))
				}
				total := 0
				for i, seg := range s.segs {
					total += seg.spills
					if i > 0 && (seg.spills >= s.segs[i-1].spills || seg.count >= s.segs[i-1].count) {
						t.Fatalf("after %d spills: segment %d holds %d spills/%d states, older one %d/%d",
							spills, i, seg.spills, seg.count, s.segs[i-1].spills, s.segs[i-1].count)
					}
				}
				if total != spills {
					t.Fatalf("segments hold %d spills, want %d", total, spills)
				}
				if files := h.runFiles(); len(files) != len(s.segs)+1 {
					t.Fatalf("after %d spills: %d files for %d segments and the log", spills, len(files), len(s.segs))
				}
			}
			if spills < 200 {
				t.Fatalf("only %d spills", spills)
			}
			h.has(encs)
			if int(h.s.spilled.Load()) != len(encs) {
				t.Fatalf("spilled = %d, want %d", h.s.spilled.Load(), len(encs))
			}
		})
	}
}

func TestSpillFold(t *testing.T) {
	seg := func(spills, count int) *spillSegment {
		return &spillSegment{spills: spills, count: count}
	}
	cases := []struct {
		name string
		n    int
		segs []*spillSegment
		want int
	}{
		{"no segments", 10, nil, 0},
		{"equal spills", 10, []*spillSegment{seg(1, 10)}, 0},
		{"carry", 10, []*spillSegment{seg(4, 40), seg(2, 20), seg(1, 10)}, 0},
		{"older holds more spills", 10, []*spillSegment{seg(4, 40), seg(1, 10)}, 1},
		{"spills, not states", 5000, []*spillSegment{seg(2, 20)}, 1},
		{"index frame limit", 1, []*spillSegment{seg(1, spillFrameMax/16)}, 1},
	}
	for _, c := range cases {
		if got := spillFold(c.n, c.segs); got != c.want {
			t.Errorf("%s: spillFold = %d, want %d", c.name, got, c.want)
		}
	}
}

// A merge that cannot be written leaves its sources in place and
// membership exact: it is retried as a plain spill, and only when that
// fails too does the tier give up.
func TestSpillSetFailedMergeKeepsSegments(t *testing.T) {
	shape, encs, _ := benchComponentStates(t, 400)
	for _, blocked := range []int{1, 2} {
		t.Run(fmt.Sprintf("blocked-%d", blocked), func(t *testing.T) {
			h := newSpillHarness(t, shape, newStateTable(len(encs[0]), 1, nil), t.TempDir())
			for j := 0; j < 300; j += 100 {
				h.level(encs[j : j+100])
			}
			// Three spills: one segment of two spills, one of one.
			s := h.s
			before := slices.Clone(s.segs)
			if len(before) != 2 {
				t.Fatalf("%d segments before the merge, want 2", len(before))
			}
			// A directory where the next segment file goes makes
			// creating it fail.
			for k := 0; k < blocked; k++ {
				path := filepath.Join(s.runDir, fmt.Sprintf("seg-%06d.seg", s.written+k))
				if err := os.Mkdir(path, 0o755); err != nil {
					t.Fatal(err)
				}
			}
			h.level(encs[300:]) // would fold both indexes
			if !slices.Equal(s.segs[:2], before) {
				t.Fatal("sources replaced by a failed merge")
			}
			for _, seg := range before {
				if _, err := os.Stat(seg.path); err != nil {
					t.Errorf("source %s: %v", seg.path, err)
				}
			}
			switch blocked {
			case 1:
				if s.failed || len(s.segs) != 3 || s.spilled.Load() != 400 {
					t.Fatalf("retry: failed=%v, %d segments, %d spilled; want a plain spill",
						s.failed, len(s.segs), s.spilled.Load())
				}
			case 2:
				if len(s.segs) != 2 || s.spilled.Load() != 300 {
					t.Fatalf("%d segments, %d spilled; want the tier off, memory kept", len(s.segs), s.spilled.Load())
				}
				h.tierOff()
			}
			h.has(encs)
		})
	}
}

// FuzzSpillSegment feeds openSpillSegment arbitrary file contents as an
// index of the vectors of a fixed log, goldenCheckpoint's. It must
// reject them, or return a segment whose every index entry's vector
// lies in the log and is found under the entry's own fingerprint, and
// whose probes never panic.
func FuzzSpillSegment(f *testing.F) {
	golden, err := hex.DecodeString(goldenSpillSegment)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	dir := f.TempDir()
	log, width, ents := goldenLogEntries(f)
	merged, err := os.ReadFile(writeMergedTestSegment(f, dir, int64(len(log)), width, ents[:1], ents[1:2], ents[2:]))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(merged)
	for _, name := range []string{"magic", "header", "index", "offset", "truncated", "trailing", "empty"} {
		f.Add(spillCorruptions[name](slices.Clone(merged)))
	}
	// A header count whose 16× wraps around to the index length.
	wrap := []byte(spillMagic)
	wrap = frame.Append(wrap, []byte(`H{"count":1152921504606846977}`))
	wrap = frame.Append(wrap, make([]byte, 16))
	f.Add(wrap)
	path := filepath.Join(dir, "fuzz.seg")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		seg, err := openSpillSegment(path, int64(len(log)), width)
		if err != nil {
			return
		}
		defer seg.close()
		for i := 0; i < seg.count; i++ {
			off := seg.offAt(i)
			if off+uint64(width) > uint64(len(log)) {
				t.Fatalf("index entry %d at %d does not resolve in a %d-byte log", i, off, len(log))
			}
			e := log[off : off+uint64(width)]
			if !seg.contains(seg.fpAt(i), e, log) {
				t.Fatalf("entry %d not found under its own fingerprint", i)
			}
			seg.contains(model.Hash64(e), e, log)
		}
		seg.contains(0, nil, log)
	})
}

// A 1 KB-budget durable search records one checker_spill_seconds sample
// and one new segment file per spill, and at every commit
// checker_spill_bytes_total equals the summed size of every segment the
// run dir has held: each spill adds its segment's bytes once, and no
// file is rewritten. The log is the checkpoint, so no other spill-tier
// file exists.
func TestSpillMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	parent := t.TempDir()
	const phase = "safety-par-bfs"
	seconds := reg.Histogram(obs.Labels("checker_spill_seconds", "phase", phase), spillSecondsBuckets)
	written := reg.Counter(obs.Labels("checker_spill_bytes_total", "phase", phase))
	barriers := 0
	held := map[string]int64{} // every segment file seen, by name
	var heldBytes int64
	onWrite := func(string, int, int) {
		barriers++
		runs, _ := filepath.Glob(filepath.Join(parent, "pnp-spill-*", "*"))
		for _, p := range runs {
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			if size, ok := held[p]; ok && size != fi.Size() {
				t.Fatalf("barrier %d: %s rewritten, %d bytes then %d", barriers, p, size, fi.Size())
			} else if !ok {
				held[p] = fi.Size()
				heldBytes += fi.Size()
			}
		}
		if seconds.Count() != int64(len(held)) || written.Value() != heldBytes {
			t.Fatalf("barrier %d: %d spill samples and %d bytes counted, %d files of %d bytes held",
				barriers, seconds.Count(), written.Value(), len(held), heldBytes)
		}
	}
	res := New(sysFromSource(t, ckptSrc), Options{Workers: 2, Metrics: reg,
		Storage:    StorageOptions{MemLimit: 1024, SpillDir: parent},
		Durability: &DurabilityOptions{Dir: t.TempDir(), Key: "m", Interval: 1, OnWrite: onWrite},
	}).CheckSafety()
	if !res.OK || res.Stats.SpilledStates == 0 {
		t.Fatalf("%s, %d spilled", res.Summary(), res.Stats.SpilledStates)
	}
	if seconds.Count() < 100 || barriers < 100 {
		t.Fatalf("%d spills over %d barriers", seconds.Count(), barriers)
	}
	spilled := reg.Counter(obs.Labels("checker_visited_spilled_states_total", "phase", phase))
	if spilled.Value() != int64(res.Stats.SpilledStates) {
		t.Errorf("spilled states counter %d, Stats %d", spilled.Value(), res.Stats.SpilledStates)
	}
}

// close removes the per-search spill directory, scratch log included.
func TestSpillSetCloseRemovesSegments(t *testing.T) {
	shape, encs, _ := benchComponentStates(t, 300)
	parent := t.TempDir()
	h := newSpillHarness(t, shape, newStateTable(len(encs[0]), 1, nil), parent)
	h.level(encs)
	if len(h.s.segs) == 0 {
		t.Fatal("no segment written")
	}
	runDir := h.s.runDir
	h.ck.finish(&Result{})
	h.s.close()
	if _, err := os.Stat(runDir); !os.IsNotExist(err) {
		t.Errorf("run dir %s not removed (err=%v)", runDir, err)
	}
	ents, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("%d entries left in spill parent", len(ents))
	}
}

// --- checkpoint/resume over collapse and spilled visited sets ---

// ckptStorageOptions applies one storage mode to a base Options value.
func ckptStorageOptions(t *testing.T, o Options, mode string) Options {
	t.Helper()
	switch mode {
	case "collapse":
		o.Storage.Visited = VisitedCollapse
	case "spill":
		o.Storage = StorageOptions{Visited: VisitedExact, MemLimit: 1, SpillDir: t.TempDir()}
	case "collapse-spill":
		o.Storage = StorageOptions{Visited: VisitedCollapse, MemLimit: 1, SpillDir: t.TempDir()}
	case "bitstate":
		o.Storage = StorageOptions{Bitstate: true}
	}
	return o
}

// A snapshot taken over a collapse-compressed or spilled visited set
// must resume — at a different worker count, in any storage mode — to
// the exact verdict and stats of an uninterrupted run.
func TestCheckpointResumeAcrossStorageModes(t *testing.T) {
	full := New(sysFromSource(t, ckptSrc), Options{Workers: 1}).CheckSafety()
	if !full.OK {
		t.Fatalf("baseline should verify: %s", full.Summary())
	}
	for _, snapMode := range []string{"collapse", "spill", "collapse-spill"} {
		t.Run(snapMode, func(t *testing.T) {
			// Steal a mid-run snapshot from a search using snapMode storage.
			dir := t.TempDir()
			var stolen []byte
			opts := ckptStorageOptions(t, Options{Workers: 2, Durability: &DurabilityOptions{
				Dir: dir, Key: "s", Interval: 1,
				OnWrite: func(file string, d, states int) {
					if d == 40 {
						stolen, _ = os.ReadFile(file)
					}
				},
			}}, snapMode)
			res := New(sysFromSource(t, ckptSrc), opts).CheckSafety()
			if !res.OK || len(stolen) == 0 {
				t.Fatalf("snapshot run failed (stolen=%d bytes): %s", len(stolen), res.Summary())
			}
			if snapMode != "collapse" && res.Stats.SpilledStates == 0 {
				t.Fatalf("budgeted snapshot run spilled nothing")
			}

			// Resume it under a different storage mode and worker count:
			// snapshots carry full encodings, so the storage tiers are
			// interchangeable across restarts.
			for _, resumeMode := range []string{"exact", snapMode} {
				rdir := t.TempDir()
				if err := os.WriteFile(filepath.Join(rdir, CheckpointFileName("s")), stolen, 0o644); err != nil {
					t.Fatal(err)
				}
				ropts := ckptStorageOptions(t, Options{Workers: 8, Durability: &DurabilityOptions{
					Dir: rdir, Key: "s", Resume: true,
				}}, resumeMode)
				resumed := New(sysFromSource(t, ckptSrc), ropts).CheckSafety()
				if !resumed.OK {
					t.Fatalf("resume as %s failed: %s", resumeMode, resumed.Summary())
				}
				if !statsEqualIgnoringElapsed(resumed.Stats, full.Stats) {
					t.Errorf("resume as %s: stats %+v, uninterrupted %+v", resumeMode, resumed.Stats, full.Stats)
				}
			}
		})
	}
}

// A violation past the snapshot point is found on resume with the same
// counterexample length (the same last steps at one worker), spill
// active on both sides of the restart.
func TestCheckpointResumeSpilledFindsViolation(t *testing.T) {
	src := ckptSrc + `
active proctype R() { (a == 50 && b == 2) -> assert(false) }`
	full := New(sysFromSource(t, src), Options{Workers: 1}).CheckSafety()
	if full.OK || full.Trace == nil {
		t.Fatalf("baseline should find the assertion: %s", full.Summary())
	}
	for _, w := range []struct{ snap, resume int }{{1, 1}, {2, 8}} {
		stolen := violationSnapshot(t, src, ckptStorageOptions(t, Options{Workers: w.snap}, "collapse-spill"), 20)
		rdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(rdir, CheckpointFileName("v")), stolen, 0o644); err != nil {
			t.Fatal(err)
		}
		ropts := ckptStorageOptions(t, Options{Workers: w.resume, Durability: &DurabilityOptions{
			Dir: rdir, Key: "v", Resume: true,
		}}, "collapse-spill")
		resumed := New(sysFromSource(t, src), ropts).CheckSafety()
		if resumed.OK || resumed.Kind != full.Kind {
			t.Fatalf("workers %d->%d: resumed: %s, want %s", w.snap, w.resume, resumed.Summary(), full.Kind)
		}
		if !statsEqualIgnoringElapsed(resumed.Stats, full.Stats) {
			t.Errorf("workers %d->%d: resumed stats %+v, uninterrupted %+v", w.snap, w.resume, resumed.Stats, full.Stats)
		}
		assertResumedTrace(t, full, resumed, 20, w.resume == 1)
	}
}

// A search resumed under a memory budget keeps to it: the committed
// vectors become one index over the log, not in-memory entries, so the
// resumed run's peak visited bytes are no more than the uninterrupted
// budgeted run's, with the same stats.
func TestCheckpointResumeRespectsBudget(t *testing.T) {
	budget := func(o Options) Options { return ckptStorageOptions(t, o, "spill") }
	full := New(sysFromSource(t, ckptSrc), budget(Options{Workers: 1})).CheckSafety()
	if !full.OK || full.Stats.SpilledStates == 0 {
		t.Fatalf("baseline should verify and spill: %s, %d spilled", full.Summary(), full.Stats.SpilledStates)
	}
	stolen, err := os.ReadFile(snapAt(t, t.TempDir(), 40))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, CheckpointFileName("b")), stolen, 0o644); err != nil {
		t.Fatal(err)
	}
	var first int
	resumed := New(sysFromSource(t, ckptSrc), budget(Options{Workers: 1, Durability: &DurabilityOptions{
		Dir: dir, Key: "b", Resume: true,
		OnWrite: func(_ string, d, _ int) {
			if first == 0 {
				first = d
			}
		},
	}})).CheckSafety()
	if !resumed.OK || !statsEqualIgnoringElapsed(resumed.Stats, full.Stats) || first != 41 {
		t.Fatalf("resumed %s %+v from depth %d, uninterrupted %+v", resumed.Summary(), resumed.Stats, first-1, full.Stats)
	}
	if resumed.Stats.VisitedBytes > full.Stats.VisitedBytes {
		t.Errorf("resumed run peaked at %d visited bytes, the uninterrupted budgeted run at %d",
			resumed.Stats.VisitedBytes, full.Stats.VisitedBytes)
	}
}

// wrapSrc's counters wrap, so later levels find states of earlier ones,
// which a budgeted search remembers only through its segments over the
// log.
const wrapSrc = `
byte a; byte b;
active proctype P() { do :: a = (a + 1) % 40 od }
active proctype Q() { do :: b = (b + 3) % 40 od }`

// A level log has one owner. A budgeted search reads its log back
// through a mapping, so a second search under the same key — verifyd
// runs jobs for one submission side by side — must not truncate or
// append to the first one's file: it runs without durability while the
// first holds the log. The second search starts inside the first one's
// commit at depth 10, fresh and with another commit interval: sharing
// the file, its bytes would differ from the first search's at the
// offsets the first search had indexed. Then two searches race for the
// key, and both must still match the uninterrupted run.
func TestDurableLogHasOneOwner(t *testing.T) {
	src := wrapSrc
	budget := func(o Options) Options { return ckptStorageOptions(t, o, "spill") }
	full := New(sysFromSource(t, src), budget(Options{Workers: 1})).CheckSafety()
	if !full.OK || full.Stats.SpilledStates == 0 {
		t.Fatalf("baseline should verify and spill: %s, %d spilled", full.Summary(), full.Stats.SpilledStates)
	}
	dir := t.TempDir()
	var second *Result
	secondWrites := 0
	first := New(sysFromSource(t, src), budget(Options{Workers: 2, Durability: &DurabilityOptions{
		Dir: dir, Key: "same",
		OnWrite: func(_ string, d, _ int) {
			if d != 10 {
				return
			}
			second = New(sysFromSource(t, src), budget(Options{Workers: 2, Durability: &DurabilityOptions{
				Dir: dir, Key: "same", Interval: 3,
				OnWrite: func(string, int, int) { secondWrites++ },
			}})).CheckSafety()
		},
	}})).CheckSafety()
	if second == nil {
		t.Fatal("the second search never ran")
	}
	for name, res := range map[string]*Result{"first": first, "second": second} {
		if !res.OK || !statsEqualIgnoringElapsed(res.Stats, full.Stats) {
			t.Errorf("%s search: %s %+v, uninterrupted %+v", name, res.Summary(), res.Stats, full.Stats)
		}
	}
	if secondWrites != 0 {
		t.Errorf("the second search committed %d times to a log the first one holds", secondWrites)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("checkpoint dir holds %d files after both searches verified", len(ents))
	}
	// Once the first search is done, the key is free again.
	writes := 0
	res := New(sysFromSource(t, src), budget(Options{Workers: 1, Durability: &DurabilityOptions{
		Dir: dir, Key: "same", OnWrite: func(string, int, int) { writes++ },
	}})).CheckSafety()
	if !res.OK || writes == 0 {
		t.Errorf("a later search under the key: %s, %d commits", res.Summary(), writes)
	}
	// Two searches started together under one key, in either order.
	var wg sync.WaitGroup
	both := make([]*Result, 2)
	for i := range both {
		c := New(sysFromSource(t, src), budget(Options{Workers: 2, Durability: &DurabilityOptions{
			Dir: dir, Key: "same", Resume: true}}))
		wg.Add(1)
		go func() {
			defer wg.Done()
			both[i] = c.CheckSafety()
		}()
	}
	wg.Wait()
	for i, res := range both {
		if !res.OK || !statsEqualIgnoringElapsed(res.Stats, full.Stats) {
			t.Errorf("concurrent search %d: %s %+v, uninterrupted %+v", i, res.Summary(), res.Stats, full.Stats)
		}
	}
}

// The spill tier reads the log through the writer's own file: a file
// renamed over the log's path mid-search (verifyd's checkpoint fetch
// does so) is never mapped in its place. The stand-in is longer than
// the log and holds other bytes, so reading it would lose states.
func TestDurableLogReadThroughItsOwnFile(t *testing.T) {
	budget := func(o Options) Options { return ckptStorageOptions(t, o, "spill") }
	full := New(sysFromSource(t, wrapSrc), budget(Options{Workers: 1})).CheckSafety()
	dir := t.TempDir()
	replaced := false
	res := New(sysFromSource(t, wrapSrc), budget(Options{Workers: 2, Durability: &DurabilityOptions{
		Dir: dir, Key: "k",
		OnWrite: func(file string, d, _ int) {
			if d != 10 {
				return
			}
			tmp := file + ".fetch"
			if err := os.WriteFile(tmp, bytes.Repeat([]byte{0xAA}, 1<<20), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(tmp, file); err != nil {
				t.Fatal(err)
			}
			replaced = true
		},
	}})).CheckSafety()
	if !replaced || !res.OK || !statsEqualIgnoringElapsed(res.Stats, full.Stats) {
		t.Fatalf("replaced %v: %s %+v, uninterrupted %+v", replaced, res.Summary(), res.Stats, full.Stats)
	}
}

// A durable search under a budget writes each state to disk once, to
// the checkpoint log: its spill segments hold 16-byte index entries and
// no vectors. The model's 128-byte pad makes a vector outweigh an
// entry's rewrites by the binary-counter merge.
func TestDurableSpillWritesEachStateOnce(t *testing.T) {
	src := ckptSrc + "\nbyte pad[128];"
	reg := obs.NewRegistry()
	res := New(sysFromSource(t, src), Options{Workers: 2, Metrics: reg,
		Storage:    StorageOptions{MemLimit: 1, SpillDir: t.TempDir()},
		Durability: &DurabilityOptions{Dir: t.TempDir(), Key: "once"},
	}).CheckSafety()
	if !res.OK || res.Stats.SpilledStates == 0 {
		t.Fatalf("%s, %d spilled", res.Summary(), res.Stats.SpilledStates)
	}
	width := len(sysFromSource(t, src).InitialState().Bytes())
	spill := reg.Counter(obs.Labels("checker_spill_bytes_total", "phase", "safety-par-bfs")).Value()
	logged := reg.Counter("checkpoint_bytes_written_total").Value()
	if vectors := int64(res.Stats.StatesStored * width); spill >= vectors || logged < vectors {
		t.Errorf("%d states of %d bytes: %d spill bytes, %d log bytes; want under and over %d",
			res.Stats.StatesStored, width, spill, logged, vectors)
	}
}

// growHeap, the in-heap view of builds without mmap and of a unix view
// whose first mmap failed, extends a copy of a growing file's prefix by
// the appended bytes only.
func TestGrowHeapExtendsByTheAppendedBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "levels.log")
	if err := os.WriteFile(path, []byte("PNPCKPT4abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := growHeap(nil, f, 10)
	if err != nil || string(data) != "PNPCKPT4ab" {
		t.Fatalf("first view %q, %v", data, err)
	}
	f.WriteString("defg")
	data[0] = 'x' // a byte the next extension must not read again
	if data, err = growHeap(data, f, 15); err != nil || string(data) != "xNPCKPT4abcdefg" {
		t.Fatalf("extended view %q, %v", data, err)
	}
	if _, err := growHeap(data, f, 16); err == nil {
		t.Fatal("extended past the end of the file")
	}
}
