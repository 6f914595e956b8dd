package checker

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pnp/internal/frame"
	"pnp/internal/model"
	"pnp/internal/obs"
)

func emitAll(encs [][]byte) func(fn func(enc []byte)) {
	return func(fn func(enc []byte)) {
		for _, e := range encs {
			fn(e)
		}
	}
}

func writeTestSegment(tb testing.TB, dir string, encs [][]byte) string {
	tb.Helper()
	path := filepath.Join(dir, "seg-000000.seg")
	if err := writeSpillSegment(bufio.NewWriter(nil), path, 0, len(encs), emitAll(encs), nil); err != nil {
		tb.Fatalf("writeSpillSegment: %v", err)
	}
	return path
}

// writeMergedTestSegment writes every part but the last as a plain
// segment, numbered in order, then segment len(parts)-1: the last part's
// blob and an index merging its entries with all of theirs. It returns
// the merged segment's path and its sources, open until the test ends;
// the merged segment only validates in their context.
func writeMergedTestSegment(tb testing.TB, dir string, parts ...[][]byte) (string, []*spillSegment) {
	tb.Helper()
	w := bufio.NewWriter(nil)
	write := func(num int, fold []*spillSegment) string {
		path := filepath.Join(dir, fmt.Sprintf("seg-%06d.seg", num))
		if err := writeSpillSegment(w, path, num, len(parts[num]), emitAll(parts[num]), fold); err != nil {
			tb.Fatalf("writeSpillSegment: %v", err)
		}
		return path
	}
	last := len(parts) - 1
	var srcs []*spillSegment
	for num := range last {
		seg, err := openSpillSegment(write(num, nil), srcs...)
		if err != nil {
			tb.Fatalf("openSpillSegment: %v", err)
		}
		tb.Cleanup(seg.close)
		srcs = append(srcs, seg)
	}
	return write(last, srcs), srcs
}

// A segment, written whole or merged from sources and new entries,
// holds exactly its entries; a merged one only in the context of the
// segments its index points into.
func TestSpillSegmentRoundTrip(t *testing.T) {
	_, encs, fps := benchComponentStates(t, 1500)
	merged, srcs := writeMergedTestSegment(t, t.TempDir(), encs[:900], encs[900:1300], encs[1300:])
	if seg, err := openSpillSegment(merged); err == nil {
		seg.close()
		t.Fatal("merged segment opened without the segments it points into")
	}
	type opened struct {
		path  string
		prior []*spillSegment
	}
	for name, o := range map[string]opened{
		"plain":  {writeTestSegment(t, t.TempDir(), encs), nil},
		"merged": {merged, srcs},
	} {
		seg, err := openSpillSegment(o.path, o.prior...)
		if err != nil {
			t.Fatalf("%s: openSpillSegment: %v", name, err)
		}
		defer seg.close()
		if seg.count != len(encs) {
			t.Fatalf("%s: count = %d, want %d", name, seg.count, len(encs))
		}
		for j := range encs {
			if !seg.contains(fps[j], encs[j]) {
				t.Fatalf("%s: entry %d missing from segment", name, j)
			}
		}
		absent := []byte("never-stored-encoding")
		if seg.contains(model.Hash64(absent), absent) {
			t.Fatalf("%s: segment claims to contain an absent entry", name)
		}
		// Same fingerprint, different bytes: must compare bytes, not hashes.
		if seg.contains(fps[0], append(append([]byte{}, encs[0]...), 0xFF)) {
			t.Fatalf("%s: segment matched on fingerprint alone", name)
		}
	}
}

// spillCorruptions are the ways a segment file can rot, each applied to
// a copy of a valid file.
var spillCorruptions = map[string]func([]byte) []byte{
	"magic":     func(b []byte) []byte { b[0] ^= 0xff; return b },
	"header":    func(b []byte) []byte { b[len(spillMagic)+9] ^= 0xff; return b },
	"blob":      func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b },
	"index":     func(b []byte) []byte { b[len(b)-4] ^= 0xff; return b },
	"truncated": func(b []byte) []byte { return b[:len(b)-10] },
	"trailing":  func(b []byte) []byte { return append(b, 0xAA) },
	"empty":     func(b []byte) []byte { return b[:0] },
}

// Every flavor of corruption must be detected at open — never probed.
func TestSpillSegmentCorruptionDetected(t *testing.T) {
	_, encs, _ := benchComponentStates(t, 200)
	dir := t.TempDir()
	path := writeTestSegment(t, dir, encs)
	data, err := os.ReadFile(path)
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
			if seg, err := openSpillSegment(p); err == nil {
				seg.close()
				t.Fatal("corrupt segment opened without error")
			}
		})
	}
}

// A spillSet whose segment directory cannot be created degrades to
// in-memory growth: no spill, same membership, no crash.
func TestSpillSetUnwritableDirDegrades(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o500); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	_, encs, fps := benchComponentStates(t, 500)
	s := newSpillSet(newShardedSet(nil), 1, filepath.Join(dir, "sub"), spillMetrics{})
	defer s.close()
	for j := range encs {
		if s.seen(fps[j], encs[j]) {
			t.Fatalf("fresh state %d reported seen", j)
		}
		s.maybeSpill()
	}
	for j := range encs {
		if !s.seen(fps[j], encs[j]) {
			t.Fatalf("state %d lost", j)
		}
	}
	if s.size() != len(encs) {
		t.Fatalf("size = %d, want %d", s.size(), len(encs))
	}
	if s.spilled.Load() != 0 {
		t.Fatalf("spilled %d states into an unwritable dir", s.spilled.Load())
	}
}

// A spillSet that has written maxFiles segments turns the tier off
// instead of mapping another: later states stay in memory, the
// segments already written stay probed, and membership stays exact.
func TestSpillSetStopsAtMaxFiles(t *testing.T) {
	_, encs, fps := benchComponentStates(t, 500)
	s := newSpillSet(newShardedSet(nil), 1, t.TempDir(), spillMetrics{})
	defer s.close()
	s.maxFiles = 3
	for j := range encs {
		if s.seen(fps[j], encs[j]) {
			t.Fatalf("fresh state %d reported seen", j)
		}
		if j%50 == 49 {
			s.maybeSpill()
		}
	}
	if !s.failed || len(s.files) != 3 || s.spilled.Load() != 150 {
		t.Fatalf("failed=%v, %d files, %d spilled; want the tier off after 3 files of 150 states",
			s.failed, len(s.files), s.spilled.Load())
	}
	files, err := os.ReadDir(s.runDir)
	if err != nil || len(files) != 3 {
		t.Fatalf("%d files in the run dir (%v), want 3", len(files), err)
	}
	for j := range encs {
		if !s.seen(fps[j], encs[j]) {
			t.Fatalf("state %d lost", j)
		}
	}
	if s.size() != len(encs) || s.mem.size() != len(encs)-150 {
		t.Fatalf("size = %d (%d in memory), want %d (%d)", s.size(), s.mem.size(), len(encs), len(encs)-150)
	}
}

// spillMems are the in-memory tiers a spill set can wrap.
func spillMems(shape *model.State) map[string]func() visitedDrainer {
	return map[string]func() visitedDrainer{
		"exact":    func() visitedDrainer { return newShardedSet(nil) },
		"collapse": func() visitedDrainer { return newCollapseSet(shape, nil) },
	}
}

// The spill set keeps exact membership across spills, for both exact
// and collapse in-memory tiers. Spilling after every small batch merges
// indexes like a binary counter: a search that spilled S times probes
// at most bits.Len(S) indexes, with strictly decreasing spill and state
// counts, and keeps one file per spill on disk.
func TestSpillSetMembershipAcrossSpills(t *testing.T) {
	shape, encs, fps := benchComponentStates(t, 2000)
	for name, mk := range spillMems(shape) {
		t.Run(name, func(t *testing.T) {
			s := newSpillSet(mk(), 1, t.TempDir(), spillMetrics{})
			defer s.close()
			spills := 0
			for j := range encs {
				if s.seen(fps[j], encs[j]) {
					t.Fatalf("fresh state %d reported seen", j)
				}
				if j%8 != 7 {
					continue
				}
				s.maybeSpill() // MemLimit 1: every barrier spills
				spills++
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
				files, err := os.ReadDir(s.runDir)
				if err != nil {
					t.Fatal(err)
				}
				if len(files) != len(s.files) || len(s.files) != spills {
					t.Fatalf("after %d spills: %d files for %d segments", spills, len(files), len(s.files))
				}
			}
			if spills < 200 {
				t.Fatalf("only %d spills", spills)
			}
			for j := range encs {
				if !s.seen(fps[j], encs[j]) {
					t.Fatalf("state %d lost after merges", j)
				}
			}
			if s.size() != len(encs) || int(s.spilled.Load()) != len(encs) {
				t.Fatalf("size = %d, spilled = %d, want %d", s.size(), s.spilled.Load(), len(encs))
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
	_, encs, fps := benchComponentStates(t, 400)
	for _, blocked := range []int{1, 2} {
		t.Run(fmt.Sprintf("blocked-%d", blocked), func(t *testing.T) {
			s := newSpillSet(newShardedSet(nil), 1, t.TempDir(), spillMetrics{})
			defer s.close()
			for j := range encs {
				if s.seen(fps[j], encs[j]) {
					t.Fatalf("fresh state %d reported seen", j)
				}
				if j%100 == 99 && j < 300 {
					s.maybeSpill()
				}
			}
			// Three spills: one segment of two spills, one of one.
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
			s.maybeSpill() // would fold both indexes
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
				if !s.failed || len(s.segs) != 2 || s.spilled.Load() != 300 {
					t.Fatalf("failed=%v, %d segments, %d spilled; want the tier off, memory kept",
						s.failed, len(s.segs), s.spilled.Load())
				}
			}
			for j := range encs {
				if !s.seen(fps[j], encs[j]) {
					t.Fatalf("state %d lost", j)
				}
			}
			if s.size() != len(encs) {
				t.Fatalf("size = %d, want %d", s.size(), len(encs))
			}
		})
	}
}

// FuzzSpillSegment feeds openSpillSegment arbitrary file contents,
// opened standalone and as the segment written after two fixed sources.
// It must reject them, or return a segment whose every index entry
// resolves and is found by its own fingerprint, and whose probes never
// panic. What opens standalone opens in context too: it names no
// other segment.
func FuzzSpillSegment(f *testing.F) {
	golden, err := hex.DecodeString(goldenSpillSegment)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	dir := f.TempDir()
	_, encs, _ := benchComponentStates(f, 60)
	mergedPath, srcs := writeMergedTestSegment(f, dir, encs[:20], encs[20:40], encs[40:])
	merged, err := os.ReadFile(mergedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(merged)
	for _, mutate := range spillCorruptions {
		f.Add(mutate(slices.Clone(merged)))
	}
	// A header count whose 16× wraps around to the index length.
	wrap := []byte(spillMagic)
	wrap = frame.Append(wrap, []byte(`H{"count":1152921504606846977}`))
	wrap = frame.Append(wrap, []byte("\x01a"))
	wrap = frame.Append(wrap, make([]byte, 16))
	f.Add(wrap)
	path := filepath.Join(dir, "fuzz.seg")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		standalone := false
		for _, prior := range [][]*spillSegment{nil, srcs} {
			seg, err := openSpillSegment(path, prior...)
			if err != nil {
				if standalone {
					t.Fatalf("opens standalone, not after its %d sources: %v", len(prior), err)
				}
				continue
			}
			standalone = prior == nil
			for i := 0; i < seg.count; i++ {
				e, ok := seg.entryAt(seg.offAt(i))
				if !ok {
					t.Fatalf("index entry %d does not resolve", i)
				}
				if !seg.contains(seg.fpAt(i), e) {
					t.Fatalf("entry %d not found under its own fingerprint", i)
				}
				seg.contains(model.Hash64(e), e)
			}
			seg.contains(0, nil)
			seg.close()
		}
	})
}

// A 1 KB-budget search records one checker_spill_seconds sample per
// spill, and at every barrier checker_spill_bytes_total equals the
// summed size of the files in the run dir: every spill adds one file
// and no file is ever rewritten.
func TestSpillMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	parent := t.TempDir()
	const phase = "safety-par-bfs"
	seconds := reg.Histogram(obs.Labels("checker_spill_seconds", "phase", phase), spillSecondsBuckets)
	written := reg.Counter(obs.Labels("checker_spill_bytes_total", "phase", phase))
	barriers := 0
	onWrite := func(string, int, int) {
		barriers++
		runs, _ := filepath.Glob(filepath.Join(parent, "pnp-spill-*", "*"))
		var size int64
		for _, p := range runs {
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			size += fi.Size()
		}
		if seconds.Count() != int64(len(runs)) || written.Value() != size {
			t.Fatalf("barrier %d: %d spill samples and %d bytes counted, %d files of %d bytes on disk",
				barriers, seconds.Count(), written.Value(), len(runs), size)
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

// close removes the per-search segment directory.
func TestSpillSetCloseRemovesSegments(t *testing.T) {
	_, encs, fps := benchComponentStates(t, 300)
	parent := t.TempDir()
	s := newSpillSet(newShardedSet(nil), 1, parent, spillMetrics{})
	for j := range encs {
		s.seen(fps[j], encs[j])
	}
	s.maybeSpill()
	if len(s.segs) == 0 {
		t.Fatal("no segment written")
	}
	runDir := s.runDir
	s.close()
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
