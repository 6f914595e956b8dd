package checker

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pnp/internal/frame"
	"pnp/internal/model"
	"pnp/internal/obs"
)

// ckptSrc is deep enough (322 levels) that a search canceled mid-way
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

// craftedLog is a log of src's search committed at depth 1: the root
// level, then a level holding front alone, whatever its bytes.
func craftedLog(t *testing.T, sys *model.System, front []byte) []byte {
	t.Helper()
	data := []byte(ckptMagic)
	for depth, enc := range [][]byte{sys.InitialState().Bytes(), front} {
		payload := binary.AppendUvarint([]byte{ckptTagLevel}, uint64(depth))
		data = frame.Append(data, append(payload, enc...))
	}
	commit, err := json.Marshal(ckptCommit{Phase: "safety-par-bfs", Model: modelFingerprint(sys), Depth: 1, Stored: 2, Transitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	return frame.Append(data, append([]byte{ckptTagCommit}, commit...))
}

// A log whose CRCs, commit and model id are all valid but whose frontier
// holds bytes that are not a state the system can be in must be
// ignored, not expanded (expanding a PC past its process's nodes
// indexes out of range): the search starts fresh and reaches the fresh
// verdict. A frontier of the wrong length is not whole vectors, so the
// reader already drops its frame and with it the commit; one of the
// right length reads back and is refused by System.CheckState. The
// vector of src is [atomic][pc][g][l][count][field][field].
func TestCheckpointResumeRejectsImpossibleState(t *testing.T) {
	const src = `
chan c = [1] of { byte, byte };
byte g;
active proctype P() { byte l; c!1,2; c?l,g; l = g }`
	want := New(sysFromSource(t, src), Options{Workers: 1}).CheckSafety()
	set := func(off int, b byte) func(v []byte) []byte {
		return func(v []byte) []byte { v[off] = b; return v }
	}
	cases := map[string]func(v []byte) []byte{
		"pc past the nodes": set(1, 99),
		"negative pc":       set(1, 0xff), // the byte -1 truncates to
		"atomic holder":     set(0, 2),    // process 1 of 1
		// A vector laid out with a second local of P.
		"locals count": func(v []byte) []byte { return append(v[:4:4], append([]byte{0}, v[4:]...)...) },
		// A vector cut inside the message slot.
		"partial message": func(v []byte) []byte { return v[:6] },
		"over capacity":   set(4, 2),
		// A vector with a 4-byte PC.
		"pc past int32": func(v []byte) []byte { return append(v[:2:2], append([]byte{0, 0, 0}, v[2:]...)...) },
		// A byte past the channel's count that is not zero.
		"non-canonical form": set(5, 1),
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			sys := sysFromSource(t, src)
			dir := t.TempDir()
			front := bad(sys.InitialState().AppendKey(nil))
			data := craftedLog(t, sys, front)
			width := len(sys.InitialState().Bytes())
			if _, err := readCheckpoint(data, width); (err == nil) != (len(front) == width) {
				t.Fatalf("a crafted frontier of %d bytes for %d-byte vectors: readCheckpoint = %v", len(front), width, err)
			}
			if err := os.WriteFile(filepath.Join(dir, CheckpointFileName("bad")), data, 0o644); err != nil {
				t.Fatal(err)
			}
			res := New(sysFromSource(t, src), Options{Workers: 2, Durability: &DurabilityOptions{
				Dir: dir, Key: "bad", Resume: true,
			}}).CheckSafety()
			if res.OK != want.OK || res.Kind != want.Kind || !statsEqualIgnoringElapsed(res.Stats, want.Stats) {
				t.Fatalf("resumed %s %+v, fresh %s %+v", res.Summary(), res.Stats, want.Summary(), want.Stats)
			}
		})
	}
	// The crafted log itself resumes when its frontier is a real state.
	sys := sysFromSource(t, src)
	succ := sys.Successors(sys.InitialState())[0].Next
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, CheckpointFileName("good")), craftedLog(t, sys, succ.Bytes()), 0o644); err != nil {
		t.Fatal(err)
	}
	ck := New(sys, Options{Workers: 1, Durability: &DurabilityOptions{Dir: dir, Key: "good", Resume: true}}).newCheckpointer("safety-par-bfs", nil)
	if _, depth, ok := ck.restore(New(sys, Options{Workers: 1}).newParRunner("safety-par-bfs"), &Result{}); !ok || depth != 1 {
		t.Fatalf("a crafted log of a reachable frontier does not resume: ok %v, depth %d", ok, depth)
	}
	ck.finish(&Result{Kind: Canceled})
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
		Dir: t.TempDir(), Key: "t", Interval: 1,
		OnWrite: func(file string, d, _ int) { logs[d], _ = os.ReadFile(file) },
	}}).CheckSafety()
	width := len(sysFromSource(t, src).InitialState().Bytes())
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
		if log, err := readCheckpoint(last[:cut], width); err != nil || log.commit.Depth != want {
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
		l, err := readCheckpoint(data, ckptWidth(t))
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
	if l, err := readCheckpoint(resumedLog, ckptWidth(t)); err != nil || l.commit.Depth != first || l.size != int64(len(resumedLog)) {
		t.Fatalf("continued log reads back as %+v, %v; want its depth-%d commit at the end (stale levels left in?)", l, err, first)
	}
}

// pacedClock is a fake ckptClock: every reading moves it one tick, so a
// barrier that does not commit (one reading) explores for one tick, and
// an fsync moves it k ticks more and counts itself in syncs. Nothing is
// synced.
func pacedClock(k int, syncs *int) ckptClock {
	var ticks time.Duration
	return ckptClock{
		now: func() time.Time { ticks++; return time.Unix(0, 0).Add(ticks) },
		sync: func(*os.File) error {
			ticks += time.Duration(k)
			*syncs++
			return nil
		},
	}
}

// A paced search (Interval 0) commits at its first barrier, then once
// it has explored as long as its previous commit took. On a clock where
// a commit takes about k levels, a fresh log commits at depth 1 (what
// verifyd's resume proof tells a fresh attempt by) and then about every
// k levels. Each commit reaches OnWrite only after its fsync and at a
// deeper level than the one before, and the log stolen at any commit —
// what a crash right after it leaves — resumes to the uninterrupted
// stats at 1 and 8 workers, committing at its first barrier. Under the
// same clock, Interval 1 still commits at every level.
func TestCheckpointPacedCommits(t *testing.T) {
	const k = 20
	full := New(sysFromSource(t, ckptSrc), Options{Workers: 1}).CheckSafety()
	commits := func(interval int) (depths []int, logs [][]byte) {
		syncs := 0
		c := New(sysFromSource(t, ckptSrc), Options{Workers: 2, Durability: &DurabilityOptions{
			Dir: t.TempDir(), Key: "p", Interval: interval,
			OnWrite: func(file string, d, _ int) {
				if syncs != len(depths)+1 {
					t.Fatalf("interval %d: commit %d (depth %d) reported after %d fsyncs", interval, len(depths)+1, d, syncs)
				}
				if n := len(depths); n > 0 && d <= depths[n-1] {
					t.Fatalf("interval %d: commit at depth %d after one at %d", interval, d, depths[n-1])
				}
				log, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				depths, logs = append(depths, d), append(logs, log)
			},
		}})
		c.clock = pacedClock(k, &syncs)
		if res := c.CheckSafety(); !res.OK || !statsEqualIgnoringElapsed(res.Stats, full.Stats) {
			t.Fatalf("interval %d: %s %+v, uninterrupted %+v", interval, res.Summary(), res.Stats, full.Stats)
		}
		return depths, logs
	}

	every, _ := commits(1)
	if len(every) != full.Stats.MaxDepth || every[len(every)-1] != full.Stats.MaxDepth {
		t.Fatalf("interval 1 committed at %v, want every depth 1..%d", every, full.Stats.MaxDepth)
	}
	depths, logs := commits(0)
	if len(depths) == 0 || depths[0] != 1 || len(depths) < full.Stats.MaxDepth/(k+2) {
		t.Fatalf("paced: %d commits over %d levels (%v)", len(depths), full.Stats.MaxDepth, depths)
	}
	for i := 1; i < len(depths); i++ {
		if gap := depths[i] - depths[i-1]; gap < k || gap > k+2 {
			t.Fatalf("paced: commits at %v, %d levels apart; want %d to %d", depths, gap, k, k+2)
		}
	}
	for i, d := range depths {
		for _, w := range []int{1, 8} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, CheckpointFileName("p")), logs[i], 0o644); err != nil {
				t.Fatal(err)
			}
			first := -1
			res := New(sysFromSource(t, ckptSrc), Options{Workers: w, Durability: &DurabilityOptions{
				Dir: dir, Key: "p", Resume: true,
				OnWrite: func(_ string, d, _ int) {
					if first < 0 {
						first = d
					}
				},
			}}).CheckSafety()
			if !res.OK || !statsEqualIgnoringElapsed(res.Stats, full.Stats) {
				t.Fatalf("workers=%d, log of depth %d: resumed %s %+v, uninterrupted %+v", w, d, res.Summary(), res.Stats, full.Stats)
			}
			if want := d + 1; d < full.Stats.MaxDepth && first != want {
				t.Fatalf("workers=%d, log of depth %d: first commit after resume at depth %d, want %d", w, d, first, want)
			}
		}
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
			Dir: dir, Key: "w", Interval: 1,
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
		Dir: t.TempDir(), Key: "b", Interval: 1,
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
// from a peer, as a log of goldenSrc's vectors. It must never panic,
// and a log it accepts must hold exactly the committed number of whole
// vectors inside its committed prefix, and a non-empty frontier.
func FuzzReadCheckpoint(f *testing.F) {
	width := goldenWidth(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := readCheckpoint(data, width)
		if err != nil {
			return
		}
		if log.size < int64(len(ckptMagic)) || log.size > int64(len(data)) {
			t.Fatalf("committed prefix of %d bytes in %d", log.size, len(data))
		}
		n, front := 0, 0
		eachVector(data, log.runs, width, func(off int64, vec []byte) {
			if off < int64(len(ckptMagic)) || off+int64(len(vec)) > log.size || len(vec) != width {
				t.Fatalf("vector of %d bytes at %d outside the %d-byte committed prefix", len(vec), off, log.size)
			}
			n++
		})
		eachVector(data, log.runs[log.front:], width, func(int64, []byte) { front++ })
		if n != log.commit.Stored {
			t.Fatalf("accepted %d states under a commit of %d", n, log.commit.Stored)
		}
		if front == 0 {
			t.Fatalf("accepted an empty frontier (frame %d of %d)", log.front, len(log.runs))
		}
	})
}

// ckptWidth is the vector width of ckptSrc's states.
func ckptWidth(tb testing.TB) int {
	return len(sysFromSource(tb, ckptSrc).InitialState().Bytes())
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
