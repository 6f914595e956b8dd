package checker

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pnp/internal/model"
	"pnp/internal/obs"
)

// ckptSrc is deep enough (~120 levels) that a search canceled mid-way
// has real work left, and wide enough that every barrier snapshot
// carries a non-trivial frontier.
const ckptSrc = `
byte a; byte b;
active proctype P() { do :: a < 80 -> a = a + 1 :: else -> break od }
active proctype Q() { do :: b < 80 -> b = b + 1 :: else -> break od }`

// snapAt runs a checkpointed search to completion, stealing a copy of
// the snapshot written at the given depth — exactly the file a process
// killed at that barrier would leave behind.
func snapAt(t *testing.T, dir string, depth int) (stolen string) {
	t.Helper()
	stolen = filepath.Join(dir, "stolen.bin")
	s := sysFromSource(t, ckptSrc)
	res := New(s, Options{Workers: 2, Durability: &DurabilityOptions{
		Dir: dir, Key: "steal", Interval: 1,
		OnWrite: func(file string, d, states int) {
			if d == depth {
				data, err := os.ReadFile(file)
				if err != nil {
					t.Fatalf("reading snapshot: %v", err)
				}
				if err := os.WriteFile(stolen, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		},
	}}).CheckSafety()
	if !res.OK {
		t.Fatalf("checkpointed search should verify: %s", res.Summary())
	}
	if _, err := os.Stat(stolen); err != nil {
		t.Fatalf("no snapshot captured at depth %d: %v", depth, err)
	}
	return stolen
}

// A search resumed from a mid-run snapshot must produce the same
// verdict and the same stats as an uninterrupted run — including when
// the worker counts before and after the crash differ.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	full := New(sysFromSource(t, ckptSrc), Options{Workers: 1}).CheckSafety()
	if !full.OK {
		t.Fatalf("baseline should verify: %s", full.Summary())
	}
	stolen := snapAt(t, t.TempDir(), 40)

	for _, w := range []int{1, 8} {
		dir := t.TempDir()
		data, _ := os.ReadFile(stolen)
		if err := os.WriteFile(filepath.Join(dir, CheckpointFileName("k")), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var depths []int
		res := New(sysFromSource(t, ckptSrc), Options{Workers: w, Durability: &DurabilityOptions{
			Dir: dir, Key: "k", Resume: true,
			OnWrite: func(file string, d, states int) { depths = append(depths, d) },
		}}).CheckSafety()
		if !res.OK {
			t.Fatalf("workers=%d: resumed search should verify: %s", w, res.Summary())
		}
		if !statsEqualIgnoringElapsed(res.Stats, full.Stats) {
			t.Errorf("workers=%d: resumed stats %+v, uninterrupted %+v", w, res.Stats, full.Stats)
		}
		// Proof it resumed rather than restarting: the first snapshot of
		// the resumed run is past the stolen one, not at depth 1.
		if len(depths) == 0 || depths[0] <= 40 {
			t.Errorf("workers=%d: first snapshot at %v, want > 40 (did the search restart?)", w, depths)
		}
		// The completed verdict clears the checkpoint.
		if _, err := os.Stat(filepath.Join(dir, CheckpointFileName("k"))); !os.IsNotExist(err) {
			t.Errorf("workers=%d: checkpoint not removed after verdict (err=%v)", w, err)
		}
	}
}

// A violation behind the snapshot point is still found on resume, with
// the same kind and counterexample length as the uninterrupted search —
// and, when both runs have one worker, the very same last steps.
func TestCheckpointResumeFindsViolation(t *testing.T) {
	src := ckptSrc + `
active proctype R() { (a == 50 && b == 2) -> assert(false) }`
	full := New(sysFromSource(t, src), Options{Workers: 1}).CheckSafety()
	if full.OK || full.Trace == nil {
		t.Fatalf("baseline should find the assertion: %s", full.Summary())
	}
	for _, w := range []struct{ snap, resume int }{{1, 1}, {2, 8}} {
		stolen := violationSnapshot(t, src, Options{Workers: w.snap}, 20)
		rdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(rdir, CheckpointFileName("v")), stolen, 0o644); err != nil {
			t.Fatal(err)
		}
		resumed := New(sysFromSource(t, src), Options{Workers: w.resume, Durability: &DurabilityOptions{
			Dir: rdir, Key: "v", Resume: true,
		}}).CheckSafety()
		if resumed.OK || resumed.Kind != full.Kind {
			t.Fatalf("workers %d->%d: resumed: %s, want %s", w.snap, w.resume, resumed.Summary(), full.Kind)
		}
		if !statsEqualIgnoringElapsed(resumed.Stats, full.Stats) {
			t.Errorf("workers %d->%d: resumed stats %+v, uninterrupted %+v", w.snap, w.resume, resumed.Stats, full.Stats)
		}
		assertResumedTrace(t, full, resumed, 20, w.resume == 1)
	}
}

// violationSnapshot runs a checkpointed search of src that must find a
// violation and returns the snapshot it wrote at depth.
func violationSnapshot(t *testing.T, src string, opts Options, depth int) []byte {
	t.Helper()
	var stolen []byte
	opts.Durability = &DurabilityOptions{
		Dir: t.TempDir(), Key: "v", Interval: 1,
		OnWrite: func(file string, d, states int) {
			if d == depth {
				stolen, _ = os.ReadFile(file)
			}
		},
	}
	res := New(sysFromSource(t, src), opts).CheckSafety()
	if res.OK || len(stolen) == 0 {
		t.Fatalf("expected violation and a depth-%d snapshot: %s", depth, res.Summary())
	}
	return stolen
}

// assertResumedTrace checks a counterexample resumed from a snapshot at
// depth against the uninterrupted one: it starts at the checkpoint
// frontier, so it covers only the levels explored after the resume. With
// sameSteps (one worker on both sides, which keeps the frontier in the
// uninterrupted run's order) it must be exactly that run's last steps;
// otherwise same-level parents may be chosen differently, so only the
// length is fixed.
func assertResumedTrace(t *testing.T, full, resumed *Result, depth int, sameSteps bool) {
	t.Helper()
	if resumed.Trace == nil || resumed.Trace.Len() != full.Trace.Len()-depth {
		t.Fatalf("resumed counterexample length %d, want %d (full %d minus %d checkpointed levels)",
			resumed.Trace.Len(), full.Trace.Len()-depth, full.Trace.Len(), depth)
	}
	if sameSteps && (!reflect.DeepEqual(resumed.Trace.Prefix, full.Trace.Prefix[depth:]) || resumed.Trace.Final != full.Trace.Final) {
		t.Errorf("resumed counterexample\n%s\nis not the tail of\n%s", resumed.Trace, full.Trace)
	}
}

// The real crash path: a canceled search keeps its last snapshot, and a
// fresh checker resumes it to the uninterrupted verdict.
func TestCheckpointCanceledKeepsFileAndResumes(t *testing.T) {
	full := New(sysFromSource(t, ckptSrc), Options{Workers: 1}).CheckSafety()
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := New(sysFromSource(t, ckptSrc), Options{Workers: 2, Context: ctx,
		Durability: &DurabilityOptions{
			Dir: dir, Key: "c", Interval: 1,
			OnWrite: func(file string, d, states int) {
				if d == 30 {
					cancel()
				}
			},
		}}).CheckSafety()
	if res.Kind != Canceled {
		t.Fatalf("expected Canceled, got %s", res.Summary())
	}
	file := filepath.Join(dir, CheckpointFileName("c"))
	if _, err := os.Stat(file); err != nil {
		t.Fatalf("canceled search should keep its checkpoint: %v", err)
	}

	resumed := New(sysFromSource(t, ckptSrc), Options{Workers: 2,
		Durability: &DurabilityOptions{Dir: dir, Key: "c", Resume: true}}).CheckSafety()
	if !resumed.OK {
		t.Fatalf("resumed search should verify: %s", resumed.Summary())
	}
	if !statsEqualIgnoringElapsed(resumed.Stats, full.Stats) {
		t.Errorf("resumed stats %+v, uninterrupted %+v", resumed.Stats, full.Stats)
	}
	if _, err := os.Stat(file); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after resumed verdict (err=%v)", err)
	}
}

// Reachability checkpoints resume to the same witness length and, for
// unreachable targets, the same exhaustive state count.
func TestCheckpointReachabilityResume(t *testing.T) {
	s := sysFromSource(t, ckptSrc)
	target, err := s.Prog.CompileGlobalExpr("a == 55 && b == 3")
	if err != nil {
		t.Fatal(err)
	}
	full := New(s, Options{Workers: 1}).CheckReachable(target)
	if !full.OK || full.Trace == nil {
		t.Fatalf("baseline witness search failed: %s", full.Summary())
	}

	dir := t.TempDir()
	var stolen []byte
	sys2 := sysFromSource(t, ckptSrc)
	res := New(sys2, Options{Workers: 2, Durability: &DurabilityOptions{
		Dir: dir, Key: "r", Interval: 1,
		OnWrite: func(file string, d, states int) {
			if d == 25 {
				stolen, _ = os.ReadFile(file)
			}
		},
	}}).CheckReachable(target)
	if !res.OK || len(stolen) == 0 {
		t.Fatalf("expected witness and a depth-25 snapshot: %s", res.Summary())
	}

	rdir := t.TempDir()
	if err := os.WriteFile(filepath.Join(rdir, CheckpointFileName("r")), stolen, 0o644); err != nil {
		t.Fatal(err)
	}
	sys3 := sysFromSource(t, ckptSrc)
	target3, _ := sys3.Prog.CompileGlobalExpr("a == 55 && b == 3")
	resumed := New(sys3, Options{Workers: 8, Durability: &DurabilityOptions{
		Dir: rdir, Key: "r", Resume: true,
	}}).CheckReachable(target3)
	if !resumed.OK || resumed.Trace == nil {
		t.Fatalf("resumed witness search failed: %s", resumed.Summary())
	}
	if got, want := resumed.Trace.Len(), full.Trace.Len()-25; got != want {
		t.Errorf("resumed witness length %d, want %d", got, want)
	}
	if resumed.Stats.StatesStored != full.Stats.StatesStored {
		t.Errorf("resumed StatesStored %d, uninterrupted %d",
			resumed.Stats.StatesStored, full.Stats.StatesStored)
	}
}

// A snapshot from a different system (or a corrupt file) must be
// ignored: the search starts fresh and still verifies.
func TestCheckpointForeignOrCorruptSnapshotIgnored(t *testing.T) {
	stolen := snapAt(t, t.TempDir(), 10)
	data, _ := os.ReadFile(stolen)

	t.Run("foreign-model", func(t *testing.T) {
		dir := t.TempDir()
		os.WriteFile(filepath.Join(dir, CheckpointFileName("f")), data, 0o644)
		res := New(sysFromSource(t, parOKSrc), Options{Workers: 2,
			Durability: &DurabilityOptions{Dir: dir, Key: "f", Resume: true}}).CheckSafety()
		want := New(sysFromSource(t, parOKSrc), Options{Workers: 1}).CheckSafety()
		if !res.OK || !statsEqualIgnoringElapsed(res.Stats, want.Stats) {
			t.Errorf("foreign snapshot not ignored: %+v vs fresh %+v", res.Stats, want.Stats)
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		dir := t.TempDir()
		bad := append([]byte(nil), data...)
		bad[len(bad)/2] ^= 0xff // flip a bit mid-file: some section CRC must fail
		os.WriteFile(filepath.Join(dir, CheckpointFileName("c")), bad, 0o644)
		res := New(sysFromSource(t, ckptSrc), Options{Workers: 2,
			Durability: &DurabilityOptions{Dir: dir, Key: "c", Resume: true}}).CheckSafety()
		want := New(sysFromSource(t, ckptSrc), Options{Workers: 1}).CheckSafety()
		if !res.OK || !statsEqualIgnoringElapsed(res.Stats, want.Stats) {
			t.Errorf("corrupt snapshot not ignored: %+v vs fresh %+v", res.Stats, want.Stats)
		}
	})
}

// A log whose CRCs, commit and model id are all valid but whose frontier
// holds a state the system cannot be in — the bytes are well-formed
// varints, so DecodeKey accepts them — must be ignored, not expanded
// (expanding a PC past its process's nodes indexes out of range): the
// search starts fresh and reaches the fresh verdict.
func TestCheckpointResumeRejectsImpossibleState(t *testing.T) {
	const src = `
chan c = [1] of { byte, byte };
byte g;
active proctype P() { byte l; c!1,2; c?l,g; l = g }`
	want := New(sysFromSource(t, src), Options{Workers: 1}).CheckSafety()
	cases := map[string]func(st *model.State) []byte{
		"pc past the nodes": func(st *model.State) []byte { st.PCs[0] = 99; return st.AppendKey(nil) },
		"negative pc":       func(st *model.State) []byte { st.PCs[0] = -1; return st.AppendKey(nil) },
		"atomic holder":     func(st *model.State) []byte { st.Atomic = 1; return st.AppendKey(nil) },
		"locals count":      func(st *model.State) []byte { st.Locals[0] = []int64{0, 0}; return st.AppendKey(nil) },
		"partial message":   func(st *model.State) []byte { st.Chans[0] = []int64{1, 2, 3}; return st.AppendKey(nil) },
		"over capacity":     func(st *model.State) []byte { st.Chans[0] = []int64{1, 2, 3, 4}; return st.AppendKey(nil) },
		"pc past int32": func(st *model.State) []byte {
			return append(binary.AppendVarint([]byte{1}, 1<<32), st.AppendKey(nil)[2:]...)
		},
		"non-canonical form": func(st *model.State) []byte { return append([]byte{0x81, 0x00}, st.AppendKey(nil)[1:]...) },
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			sys := sysFromSource(t, src)
			dir := t.TempDir()
			ck := New(sys, Options{Workers: 1, Durability: &DurabilityOptions{Dir: dir, Key: "bad"}}).newCheckpointer("safety-par-bfs")
			root, _ := sys.InitialState().AppendComponentKeys(nil, nil)
			ck.barrier(1, []nodeEnc{{enc: root}}, []nodeEnc{{enc: bad(sys.InitialState())}},
				&Stats{StatesStored: 2, Transitions: 1})
			if ck.failed {
				t.Fatal("writing the log failed")
			}
			ck.f.Close()
			data, err := os.ReadFile(ck.file)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := readCheckpoint(data); err != nil {
				t.Fatalf("the crafted log does not read back: %v", err)
			}
			res := New(sysFromSource(t, src), Options{Workers: 2, Durability: &DurabilityOptions{
				Dir: dir, Key: "bad", Resume: true,
			}}).CheckSafety()
			if res.OK != want.OK || res.Kind != want.Kind || !statsEqualIgnoringElapsed(res.Stats, want.Stats) {
				t.Fatalf("resumed %s %+v, fresh %s %+v", res.Summary(), res.Stats, want.Summary(), want.Stats)
			}
		})
	}
}

// A log cut at any byte of its last level or commit — a crash in the
// middle of an append — resumes from the commit before the cut (uncut,
// from the last one) to the uninterrupted stats.
func TestCheckpointTornTailResumes(t *testing.T) {
	const src = `
byte a; byte b;
active proctype P() { do :: a < 6 -> a = a + 1 :: else -> break od }
active proctype Q() { do :: b < 6 -> b = b + 1 :: else -> break od }`
	full := New(sysFromSource(t, src), Options{Workers: 1}).CheckSafety()
	logs := map[int][]byte{}
	New(sysFromSource(t, src), Options{Workers: 1, Durability: &DurabilityOptions{
		Dir: t.TempDir(), Key: "t",
		OnWrite: func(file string, d, _ int) { logs[d], _ = os.ReadFile(file) },
	}}).CheckSafety()
	prev, last := logs[4], logs[5]
	if len(prev) == 0 || len(last) <= len(prev) || !bytes.HasPrefix(last, prev) {
		t.Fatalf("depth-5 log (%d bytes) does not extend the depth-4 log (%d bytes)", len(last), len(prev))
	}

	dir := t.TempDir()
	for cut := len(prev); cut <= len(last); cut++ {
		want := 4
		if cut == len(last) {
			want = 5
		}
		if log, err := readCheckpoint(last[:cut]); err != nil || log.commit.Depth != want {
			t.Fatalf("cut at %d: readCheckpoint = %+v, %v; want the depth-%d commit", cut, log, err, want)
		}
		if err := os.WriteFile(filepath.Join(dir, CheckpointFileName("t")), last[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		first := -1
		res := New(sysFromSource(t, src), Options{Workers: 2, Durability: &DurabilityOptions{
			Dir: dir, Key: "t", Resume: true,
			OnWrite: func(_ string, d, _ int) {
				if first < 0 {
					first = d
				}
			},
		}}).CheckSafety()
		if !res.OK || !statsEqualIgnoringElapsed(res.Stats, full.Stats) {
			t.Fatalf("cut at %d: resumed %s %+v, uninterrupted %+v", cut, res.Summary(), res.Stats, full.Stats)
		}
		if first != want+1 {
			t.Fatalf("cut at %d: first commit after resume at depth %d, want %d", cut, first, want+1)
		}
	}
}

// With Interval 3, a search canceled between two commits leaves levels
// behind its last commit. Resume truncates them, continues the same log
// — whose next commit then reads back — and ends with the uninterrupted
// stats.
func TestCheckpointIntervalResumeTruncatesUncommitted(t *testing.T) {
	full := New(sysFromSource(t, ckptSrc), Options{Workers: 1}).CheckSafety()
	dir := t.TempDir()
	file := filepath.Join(dir, CheckpointFileName("i"))
	// Cancellation lands at the next context poll, some levels after the
	// commit that asks for it; try commits until one lands between two.
	var data []byte
	var log *ckptLog
	for d := 3; d < 150 && log == nil; d += 3 {
		ctx, cancel := context.WithCancel(context.Background())
		res := New(sysFromSource(t, ckptSrc), Options{Workers: 1, Context: ctx,
			Durability: &DurabilityOptions{
				Dir: dir, Key: "i", Interval: 3,
				OnWrite: func(_ string, depth, _ int) {
					if depth == d {
						cancel()
					}
				},
			}}).CheckSafety()
		cancel()
		if res.Kind != Canceled {
			continue
		}
		data, _ = os.ReadFile(file)
		l, err := readCheckpoint(data)
		if err != nil {
			t.Fatalf("canceled log: %v", err)
		}
		if l.size < int64(len(data)) {
			log = l
		}
	}
	if log == nil {
		t.Fatal("no canceled run left uncommitted levels behind its last commit")
	}

	var resumedLog []byte
	var first int
	res := New(sysFromSource(t, ckptSrc), Options{Workers: 2, Durability: &DurabilityOptions{
		Dir: dir, Key: "i", Interval: 3, Resume: true,
		OnWrite: func(file string, d, _ int) {
			if resumedLog == nil {
				first = d
				resumedLog, _ = os.ReadFile(file)
			}
		},
	}}).CheckSafety()
	if !res.OK || !statsEqualIgnoringElapsed(res.Stats, full.Stats) {
		t.Fatalf("resumed %s %+v, uninterrupted %+v", res.Summary(), res.Stats, full.Stats)
	}
	if want := log.commit.Depth + 3; first != want {
		t.Fatalf("first commit after resume at depth %d, want %d", first, want)
	}
	if !bytes.HasPrefix(resumedLog, data[:log.size]) {
		t.Fatal("resumed log does not continue the committed prefix")
	}
	if l, err := readCheckpoint(resumedLog); err != nil || l.commit.Depth != first || l.size != int64(len(resumedLog)) {
		t.Fatalf("continued log reads back as %+v, %v; want its depth-%d commit at the end (stale levels left in?)", l, err, first)
	}
}

// A checkpoint writes each stored state once: after a canceled run the
// bytes written equal the log's size — nothing was rewritten.
func TestCheckpointWritesEachStateOnce(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := New(sysFromSource(t, ckptSrc), Options{Workers: 2, Context: ctx, Metrics: reg,
		Durability: &DurabilityOptions{
			Dir: dir, Key: "w",
			OnWrite: func(_ string, d, _ int) {
				if d == 30 {
					cancel()
				}
			},
		}}).CheckSafety()
	if res.Kind != Canceled {
		t.Fatalf("expected Canceled, got %s", res.Summary())
	}
	fi, err := os.Stat(filepath.Join(dir, CheckpointFileName("w")))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("checkpoint_bytes_written_total").Value(); got != fi.Size() {
		t.Errorf("checkpoint_bytes_written_total = %d, log size %d", got, fi.Size())
	}
}

// Bitstate runs resume too: replaying the logged states sets exactly
// the bits the interrupted run had set.
func TestCheckpointResumeBitstate(t *testing.T) {
	bitstate := func(o Options) Options { return ckptStorageOptions(t, o, "bitstate") }
	full := New(sysFromSource(t, ckptSrc), bitstate(Options{Workers: 1})).CheckSafety()
	if !full.OK {
		t.Fatalf("baseline should verify: %s", full.Summary())
	}
	var stolen []byte
	snap := New(sysFromSource(t, ckptSrc), bitstate(Options{Workers: 2, Durability: &DurabilityOptions{
		Dir: t.TempDir(), Key: "b",
		OnWrite: func(file string, d, _ int) {
			if d == 40 {
				stolen, _ = os.ReadFile(file)
			}
		},
	}})).CheckSafety()
	if !snap.OK || len(stolen) == 0 {
		t.Fatalf("expected a verified run and a depth-40 log: %s", snap.Summary())
	}
	for _, w := range []int{1, 8} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, CheckpointFileName("b")), stolen, 0o644); err != nil {
			t.Fatal(err)
		}
		var first int
		res := New(sysFromSource(t, ckptSrc), bitstate(Options{Workers: w, Durability: &DurabilityOptions{
			Dir: dir, Key: "b", Resume: true,
			OnWrite: func(_ string, d, _ int) {
				if first == 0 {
					first = d
				}
			},
		}})).CheckSafety()
		if !res.OK || !statsEqualIgnoringElapsed(res.Stats, full.Stats) {
			t.Errorf("workers=%d: resumed %s %+v, uninterrupted %+v", w, res.Summary(), res.Stats, full.Stats)
		}
		if first != 41 {
			t.Errorf("workers=%d: first commit after resume at depth %d, want 41", w, first)
		}
	}
}

// FuzzReadCheckpoint feeds readCheckpoint the bytes a replica may fetch
// from a peer. It must never panic, and a log it accepts must hold
// exactly the committed number of states and a non-empty frontier.
func FuzzReadCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := readCheckpoint(data)
		if err != nil {
			return
		}
		if len(log.visited) != log.commit.Stored {
			t.Fatalf("accepted %d states under a commit of %d", len(log.visited), log.commit.Stored)
		}
		if log.front < 0 || log.front >= len(log.visited) {
			t.Fatalf("accepted an empty frontier (starts at %d of %d)", log.front, len(log.visited))
		}
		if log.size < int64(len(ckptMagic)) || log.size > int64(len(data)) {
			t.Fatalf("committed prefix of %d bytes in %d", log.size, len(data))
		}
	})
}

// DecodeKey inverts AppendKey exactly, given the system's state shape.
func TestDecodeKeyRoundTrip(t *testing.T) {
	s := sysFromSource(t, parOKSrc)
	shape := s.InitialState()
	seen := 0
	frontier := []*model.State{shape}
	for depth := 0; depth < 8; depth++ {
		var next []*model.State
		for _, st := range frontier {
			enc := st.AppendKey(nil)
			dec, err := model.DecodeKey(shape, enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if dec.Key() != st.Key() {
				t.Fatalf("round trip diverged at depth %d", depth)
			}
			seen++
			for _, tr := range s.Successors(st) {
				if tr.Violation == "" {
					next = append(next, tr.Next)
				}
			}
		}
		frontier = next
	}
	if seen < 10 {
		t.Fatalf("walked only %d states", seen)
	}
	if _, err := model.DecodeKey(shape, []byte{0x01}); err == nil {
		t.Error("truncated encoding should fail to decode")
	}
}
