package checker

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"math/rand/v2"
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
	path = filepath.Join(dir, "level.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		tb.Fatal(err)
	}
	return path, data, ents
}

// layoutTestSegment lays out the bytes of a segment whose index merges
// ents, sorted here, with the indexes of srcs.
func layoutTestSegment(ents []idxEnt, srcs ...*spillSegment) []byte {
	ents = slices.Clone(ents)
	slices.SortFunc(ents, func(a, b idxEnt) int { return cmp.Compare(a.fp, b.fp) })
	total := len(ents)
	for _, src := range srcs {
		total += src.count
	}
	data := make([]byte, spillSegmentSize(total))
	layoutSpillSegment(data, total, ents, srcs)
	return data
}

// validSegment validates data as a segment indexing width-byte vectors
// in a logLen-byte log.
func validSegment(data []byte, logLen int64, width int) (*spillSegment, error) {
	seg := &spillSegment{view: fileView{data: data}}
	return seg, seg.validate(logLen, width)
}

// layoutMergedTestSegment lays out each part of ents but the last as a
// plain segment, then returns the bytes of the last part's entries
// merged with all of theirs.
func layoutMergedTestSegment(tb testing.TB, logLen int64, width int, parts ...[]idxEnt) []byte {
	tb.Helper()
	last := len(parts) - 1
	var srcs []*spillSegment
	for _, part := range parts[:last] {
		seg, err := validSegment(layoutTestSegment(part), logLen, width)
		if err != nil {
			tb.Fatalf("validate: %v", err)
		}
		srcs = append(srcs, seg)
	}
	return layoutTestSegment(parts[last], srcs...)
}

// A segment, written whole or merged from sources and new entries,
// holds exactly its entries, each found through its vector in the log;
// over a log too short for one of its entries it does not open.
func TestSpillSegmentRoundTrip(t *testing.T) {
	_, encs, fps := benchComponentStates(t, 1500)
	dir := t.TempDir()
	_, log, ents := testLog(t, dir, encs)
	width := len(encs[0])
	merged := layoutMergedTestSegment(t, int64(len(log)), width, ents[:900], ents[900:1300], ents[1300:])
	if _, err := validSegment(merged, int64(len(log)-1), width); err == nil {
		t.Fatal("segment validated over a log that ends inside its last vector")
	}
	for name, data := range map[string][]byte{
		"plain":  layoutTestSegment(ents),
		"merged": merged,
	} {
		seg, err := validSegment(data, int64(len(log)), width)
		if err != nil {
			t.Fatalf("%s: validate: %v", name, err)
		}
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

// spillFrameAt returns the offset of frame n of segment b: 0 the
// index, 1 the filter.
func spillFrameAt(b []byte, n int) int {
	at := len(spillMagic)
	for ; n > 0; n-- {
		at += frame.HeaderSize + int(binary.LittleEndian.Uint32(b[at:]))
	}
	return at
}

// reframe recomputes the CRC of the frame at at, so a mutation of its
// payload passes the framing and only a content check can catch it.
func reframe(b []byte, at int) {
	n := int(binary.LittleEndian.Uint32(b[at:]))
	binary.LittleEndian.PutUint32(b[at+4:], crc32.ChecksumIEEE(b[at+frame.HeaderSize:at+frame.HeaderSize+n]))
}

// spillCorruptions are the ways a segment can rot, each applied to a
// copy of a valid one with at least one entry.
var spillCorruptions = map[string]func([]byte) []byte{
	"magic": func(b []byte) []byte { b[0] ^= 0xff; return b },
	"index": func(b []byte) []byte { b[spillFrameAt(b, 1)-4] ^= 0xff; return b },
	// The last entry's vector far past the log, under a valid CRC: only
	// the range check can catch it.
	"offset": func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[spillFrameAt(b, 1)-8:], 1<<40)
		reframe(b, spillFrameAt(b, 0))
		return b
	},
	// One of the first entry's filter bits cleared, under a valid CRC:
	// only the per-entry filter check can catch it.
	"filter": func(b []byte) []byte {
		index, filter := spillFrameAt(b, 0), spillFrameAt(b, 1)
		words := uint64(binary.LittleEndian.Uint32(b[filter:]) / 8)
		w, mask := bloomSlot(binary.LittleEndian.Uint64(b[index+frame.HeaderSize:]), words)
		at := filter + frame.HeaderSize + 8*int(w)
		binary.LittleEndian.PutUint64(b[at:], binary.LittleEndian.Uint64(b[at:])&^(mask&-mask))
		reframe(b, filter)
		return b
	},
	"truncated": func(b []byte) []byte { return b[:len(b)-10] },
	"trailing":  func(b []byte) []byte { return append(b, 0xAA) },
	"empty":     func(b []byte) []byte { return b[:0] },
}

// Every flavor of corruption must fail validation — never be probed.
func TestSpillSegmentCorruptionDetected(t *testing.T) {
	_, encs, _ := benchComponentStates(t, 200)
	_, log, ents := testLog(t, t.TempDir(), encs)
	data := layoutTestSegment(ents)
	for name, mutate := range spillCorruptions {
		t.Run(name, func(t *testing.T) {
			bad := mutate(append([]byte(nil), data...))
			if _, err := validSegment(bad, int64(len(log)), len(encs[0])); err == nil {
				t.Fatal("corrupt segment validated without error")
			}
		})
	}
}

// spillHarness is a budgeted search's barriers in miniature: each level
// call stores a batch of fresh states, logs it as the next level of a
// scratch log (the batch of the first call is the root level and level
// 1) and lets the spill tier index it. At every barrier and after close
// it checks that the spill dir holds no file and that every segment a
// barrier merged away is unmapped.
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
	h := &spillHarness{tb: tb, s: s, ck: &checkpointer{spill: s, cBytes: s.m.bytes}, shape: shape}
	tb.Cleanup(func() {
		segs := s.segs
		h.ck.finish(&Result{})
		s.close()
		for i, seg := range segs {
			if seg.view.data != nil {
				tb.Errorf("segment %d still mapped after close", i)
			}
		}
		h.noFiles()
	})
	return h
}

// noFiles fails the test if the spill dir holds anything. A dir that
// does not exist, or is not one, holds nothing.
func (h *spillHarness) noFiles() {
	h.tb.Helper()
	if !scratchUnlinked {
		return
	}
	if ents, err := os.ReadDir(h.s.dir); err == nil && len(ents) > 0 {
		h.tb.Fatalf("spill dir holds %d entries, %s first; want none", len(ents), ents[0].Name())
	}
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
	before := slices.Clone(h.s.segs)
	h.ck.barrier(h.depth, h.root, nodes, &Stats{})
	for i, seg := range before {
		if live := slices.Contains(h.s.segs, seg); live != (seg.view.data != nil) {
			h.tb.Fatalf("barrier %d: segment %d live=%v but mapped=%v", h.depth, i, live, seg.view.data != nil)
		}
	}
	h.noFiles()
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
// counts; each merged segment is unmapped (the harness checks).
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

// sortByFP orders entries by fingerprint, keeping every entry, for a
// spill's few uniform fingerprints, for buckets past the insertion-sort
// size and for duplicates.
func TestSortByFP(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for name, fp := range map[string]func() uint64{
		"uniform":   rng.Uint64,
		"one-byte":  func() uint64 { return 0xab<<56 | rng.Uint64()>>8 },
		"repeating": func() uint64 { return rng.Uint64N(40) << 50 },
	} {
		for _, n := range []int{0, 1, 900, 20000} {
			ents := make([]idxEnt, n)
			for i := range ents {
				ents[i] = idxEnt{fp: fp(), off: uint64(i)}
			}
			byFPOff := func(a, b idxEnt) int { return cmp.Or(cmp.Compare(a.fp, b.fp), cmp.Compare(a.off, b.off)) }
			want := slices.Clone(ents)
			slices.SortFunc(want, byFPOff)
			sortByFP(ents)
			if !slices.IsSortedFunc(ents, func(a, b idxEnt) int { return cmp.Compare(a.fp, b.fp) }) {
				t.Fatalf("%s/%d: not sorted", name, n)
			}
			// Equal fingerprints may come in any order.
			slices.SortFunc(ents, byFPOff)
			if !slices.Equal(ents, want) {
				t.Fatalf("%s/%d: entries lost or duplicated", name, n)
			}
		}
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

// A merge whose file cannot be created, or cannot be sized (a read-only
// file outside the spill dir), leaves its sources mapped and membership
// exact: it is retried as a plain spill, and only when that fails too
// does the tier give up.
func TestSpillSetFailedMergeKeepsSegments(t *testing.T) {
	shape, encs, _ := benchComponentStates(t, 400)
	readOnly := filepath.Join(t.TempDir(), "read-only")
	if err := os.WriteFile(readOnly, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	broken := map[string]func() (*os.File, error){
		"blocked":   func() (*os.File, error) { return nil, errors.New("no space left on device") },
		"unsizable": func() (*os.File, error) { return os.Open(readOnly) },
	}
	for flavour, brokenFile := range broken {
		for _, blocked := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s-%d", flavour, blocked), func(t *testing.T) {
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
				// The next blocked segment files are broken.
				fails := blocked
				s.scratch = func(dir string) (*os.File, error) {
					if fails > 0 {
						fails--
						return brokenFile()
					}
					return scratchFile(dir)
				}
				h.level(encs[300:]) // would fold both indexes
				if !slices.Equal(s.segs[:2], before) {
					t.Fatal("sources replaced by a failed merge")
				}
				for i, seg := range before {
					if seg.view.data == nil {
						t.Errorf("source %d unmapped by a failed merge", i)
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
}

// FuzzSpillSegment feeds validate arbitrary bytes as an index of the
// vectors of a fixed log, goldenCheckpoint's. It must reject them, or
// accept a segment whose every index entry's vector lies in the log and
// is found under the entry's own fingerprint, and whose probes never
// panic.
func FuzzSpillSegment(f *testing.F) {
	f.Add(goldenBytes(f, goldenSpillSegment))
	log, width, ents := goldenLogEntries(f)
	merged := layoutMergedTestSegment(f, int64(len(log)), width, ents[:1], ents[1:2], ents[2:])
	f.Add(merged)
	for _, name := range []string{"magic", "index", "offset", "filter", "truncated", "trailing", "empty"} {
		f.Add(spillCorruptions[name](slices.Clone(merged)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := validSegment(data, int64(len(log)), width)
		if err != nil {
			return
		}
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

// Each spill creates one file, its segment, and counts that segment's
// bytes once: at every barrier of ckptSrc's levels checker_spill_bytes_total
// equals the summed mapped size of every segment created so far, plus the
// scratch log's bytes when the log is not durable (a durable one counts
// in checkpoint_bytes_written_total), and checker_spill_seconds holds
// one sample per segment. A whole durable search under a 1 KB budget
// counts its spilled states as its Stats do.
func TestSpillMetrics(t *testing.T) {
	sys := sysFromSource(t, ckptSrc)
	levels := bfsLevels(t, sys)
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			h := newSpillHarness(t, sys.InitialState(), newStateTable(len(levels[0][0]), 1, nil), t.TempDir())
			if durable {
				c := New(sys, Options{Durability: &DurabilityOptions{Dir: t.TempDir(), Key: "m"}})
				h.ck = c.newCheckpointer("safety-par-bfs", h.s)
			}
			created := 0
			h.s.scratch = func(dir string) (*os.File, error) {
				created++
				return scratchFile(dir)
			}
			seen := map[*spillSegment]bool{}
			var segBytes int64
			for _, level := range levels {
				h.level(level) // MemLimit 1: every barrier past the root spills
				for _, seg := range h.s.segs {
					if !seen[seg] {
						seen[seg] = true
						segBytes += int64(len(seg.view.data))
					}
				}
				files, want := len(seen), segBytes
				if !durable && h.ck.f != nil {
					files, want = files+1, want+h.ck.size
				}
				m := h.s.m
				if created != files || m.seconds.Count() != int64(len(seen)) || m.bytes.Value() != want {
					t.Fatalf("barrier %d: %d files created, %d spill samples and %d bytes counted; want %d files, %d samples, %d bytes",
						h.depth, created, m.seconds.Count(), m.bytes.Value(), files, len(seen), want)
				}
			}
			if len(seen) < 100 {
				t.Fatalf("%d segments over %d barriers", len(seen), h.depth)
			}
		})
	}

	reg := obs.NewRegistry()
	res := New(sys, Options{Workers: 2, Metrics: reg,
		Storage:    StorageOptions{MemLimit: 1024, SpillDir: t.TempDir()},
		Durability: &DurabilityOptions{Dir: t.TempDir(), Key: "m"},
	}).CheckSafety()
	const phase = "safety-par-bfs"
	spilled := reg.Counter(obs.Labels("checker_visited_spilled_states_total", "phase", phase)).Value()
	spills := reg.Histogram(obs.Labels("checker_spill_seconds", "phase", phase), spillSecondsBuckets).Count()
	if !res.OK || res.Stats.SpilledStates == 0 || spilled != int64(res.Stats.SpilledStates) || spills < 100 {
		t.Fatalf("%s: %d spilled, counter %d, %d spills", res.Summary(), res.Stats.SpilledStates, spilled, spills)
	}
}

// bfsLevels returns the state vectors of sys's breadth-first levels,
// the root level first.
func bfsLevels(tb testing.TB, sys *model.System) [][][]byte {
	tb.Helper()
	shape := sys.InitialState()
	cur := [][]byte{slices.Clone(shape.Bytes())}
	seen := map[string]bool{string(cur[0]): true}
	var levels [][][]byte
	for len(cur) > 0 {
		levels = append(levels, cur)
		var next [][]byte
		for _, enc := range cur {
			st, err := model.DecodeKey(shape, enc)
			if err != nil {
				tb.Fatal(err)
			}
			for _, tr := range sys.Successors(st) {
				if k := tr.Next.Bytes(); tr.Violation == "" && !seen[string(k)] {
					seen[string(k)] = true
					next = append(next, slices.Clone(k))
				}
			}
		}
		cur = next
	}
	return levels
}

// Every entry of every segment a search of 207 spills holds — each
// merged one included — passes its segment's filter, so the filter
// never hides a state.
func TestSpillFilterHoldsEveryEntry(t *testing.T) {
	sys := sysFromSource(t, `
byte a; byte b;
active proctype P() { do :: a < 52 -> a = a + 1 :: else -> break od }
active proctype Q() { do :: b < 50 -> b = b + 1 :: else -> break od }
active proctype R() { skip }`)
	levels := bfsLevels(t, sys)
	h := newSpillHarness(t, sys.InitialState(), newStateTable(len(levels[0][0]), 1, nil), t.TempDir())
	merged := 0
	for _, level := range levels {
		h.level(level) // MemLimit 1: every barrier past the root spills
		for _, seg := range h.s.segs {
			if seg.spills > 1 {
				merged++
			}
			for i := range seg.count {
				if !seg.mayHold(seg.fpAt(i)) {
					t.Fatalf("after %d spills: entry %d of a segment of %d spills fails its filter", h.depth-1, i, seg.spills)
				}
			}
		}
	}
	if h.depth-1 != 207 || merged == 0 {
		t.Fatalf("%d spills, %d merged segments seen; want 207 spills and merges", h.depth-1, merged)
	}
	var all [][]byte
	for _, level := range levels {
		all = append(all, level...)
	}
	h.has(all)
}

// The filter's false-positive rate — the share of absent fingerprints
// that still cost an index search — is under 5 % (2.3 % expected at 10
// bits and 3 probes per entry) on 10⁵ absent fingerprints against a
// segment of 10⁵ entries.
func TestSpillFilterFalsePositives(t *testing.T) {
	const n = 100000
	rng := rand.New(rand.NewPCG(1, 2))
	ents := make([]idxEnt, n)
	for i := range ents {
		ents[i] = idxEnt{fp: rng.Uint64()}
	}
	seg, err := validSegment(layoutTestSegment(ents), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if seg.words != uint64(spillFilterWords(n)) || seg.words != 15625 {
		t.Fatalf("filter of %d words, want 15625", seg.words)
	}
	fps := 0
	for range n {
		if seg.mayHold(rng.Uint64()) {
			fps++
		}
	}
	rate := float64(fps) / n
	t.Logf("false-positive rate %.2f %%", 100*rate)
	if rate >= 0.05 {
		t.Fatalf("false-positive rate %.2f %%, want under 5 %%", 100*rate)
	}
}

// checker_level_serial_ns_total counts the wall time between levels
// once per search. Every spill runs inside that time, so at 2 workers
// under a 1 KiB budget it is at least checker_spill_seconds' sum.
func TestLevelSerialCounter(t *testing.T) {
	reg := obs.NewRegistry()
	const phase = "safety-par-bfs"
	res := New(sysFromSource(t, ckptSrc), Options{Workers: 2, Metrics: reg,
		Storage: StorageOptions{MemLimit: 1024, SpillDir: t.TempDir()}}).CheckSafety()
	if !res.OK || res.Stats.SpilledStates == 0 {
		t.Fatalf("%s, %d spilled", res.Summary(), res.Stats.SpilledStates)
	}
	serial := reg.Counter(obs.Labels("checker_level_serial_ns_total", "phase", phase)).Value()
	spill := reg.Histogram(obs.Labels("checker_spill_seconds", "phase", phase), spillSecondsBuckets).Sum()
	if serial <= 0 || float64(serial) < spill*1e9 {
		t.Fatalf("serial section %d ns, spills %.0f ns", serial, spill*1e9)
	}
	if elapsed := res.Stats.Elapsed.Nanoseconds(); serial > elapsed {
		t.Fatalf("serial section %d ns longer than the search, %d ns", serial, elapsed)
	}
}

// close unmaps every segment and the log, the last references to their
// unlinked files, and leaves the spill dir as empty as it was during
// the search.
func TestSpillSetCloseRemovesSegments(t *testing.T) {
	shape, encs, _ := benchComponentStates(t, 300)
	h := newSpillHarness(t, shape, newStateTable(len(encs[0]), 1, nil), t.TempDir())
	h.level(encs)
	segs := h.s.segs
	if len(segs) == 0 || h.s.log.data == nil {
		t.Fatal("no segment written")
	}
	h.ck.finish(&Result{})
	h.s.close()
	for i, seg := range segs {
		if seg.view.data != nil {
			t.Errorf("segment %d still mapped", i)
		}
	}
	if h.s.log.data != nil {
		t.Error("log still mapped")
	}
	h.noFiles()
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
		Dir: dir, Key: "same", Interval: 1,
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
		Dir: dir, Key: "same", Interval: 1, OnWrite: func(string, int, int) { writes++ },
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
		Dir: dir, Key: "k", Interval: 1,
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
	path := filepath.Join(t.TempDir(), "level.log")
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
