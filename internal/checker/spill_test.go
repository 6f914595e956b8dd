package checker

import (
	"os"
	"path/filepath"
	"testing"

	"pnp/internal/model"
)

func writeTestSegment(t *testing.T, dir string, encs [][]byte) string {
	t.Helper()
	path := filepath.Join(dir, "seg-000000.seg")
	emit := func(fn func(enc []byte)) {
		for _, e := range encs {
			fn(e)
		}
	}
	if err := writeSpillSegment(path, len(encs), emit); err != nil {
		t.Fatalf("writeSpillSegment: %v", err)
	}
	return path
}

func TestSpillSegmentRoundTrip(t *testing.T) {
	_, encs, fps, _ := benchComponentStates(1500)
	path := writeTestSegment(t, t.TempDir(), encs)
	seg, err := openSpillSegment(path)
	if err != nil {
		t.Fatalf("openSpillSegment: %v", err)
	}
	defer seg.close()
	if seg.count != len(encs) {
		t.Fatalf("count = %d, want %d", seg.count, len(encs))
	}
	for j := range encs {
		if !seg.contains(fps[j], encs[j]) {
			t.Fatalf("entry %d missing from segment", j)
		}
	}
	absent := []byte("never-stored-encoding")
	if seg.contains(model.Hash64(absent), absent) {
		t.Fatal("segment claims to contain an absent entry")
	}
	// Same fingerprint, different bytes: must compare bytes, not hashes.
	if seg.contains(fps[0], append(append([]byte{}, encs[0]...), 0xFF)) {
		t.Fatal("segment matched on fingerprint alone")
	}
}

// Every flavor of corruption must be detected at open — never probed.
func TestSpillSegmentCorruptionDetected(t *testing.T) {
	_, encs, _, _ := benchComponentStates(200)
	dir := t.TempDir()
	path := writeTestSegment(t, dir, encs)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"magic":     func(b []byte) []byte { b[0] ^= 0xff; return b },
		"header":    func(b []byte) []byte { b[len(spillMagic)+9] ^= 0xff; return b },
		"blob":      func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b },
		"index":     func(b []byte) []byte { b[len(b)-4] ^= 0xff; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)-10] },
		"trailing":  func(b []byte) []byte { return append(b, 0xAA) },
		"empty":     func(b []byte) []byte { return b[:0] },
	}
	for name, mutate := range cases {
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
	_, encs, fps, endss := benchComponentStates(500)
	s := newSpillSet(newShardedSet(nil), 1, filepath.Join(dir, "sub"), nil)
	defer s.close()
	for j := range encs {
		if s.seen(fps[j], encs[j], endss[j]) {
			t.Fatalf("fresh state %d reported seen", j)
		}
		s.maybeSpill()
	}
	for j := range encs {
		if !s.seen(fps[j], encs[j], endss[j]) {
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

// The spill set keeps exact membership across spills, for both exact
// and collapse in-memory tiers.
func TestSpillSetMembershipAcrossSpills(t *testing.T) {
	shape, encs, fps, endss := benchComponentStates(2000)
	mems := map[string]func() visitedDrainer{
		"exact":    func() visitedDrainer { return newShardedSet(nil) },
		"collapse": func() visitedDrainer { return newCollapseSet(shape, nil) },
	}
	for name, mk := range mems {
		t.Run(name, func(t *testing.T) {
			s := newSpillSet(mk(), 1, t.TempDir(), nil)
			defer s.close()
			for j := range encs {
				if s.seen(fps[j], encs[j], endss[j]) {
					t.Fatalf("fresh state %d reported seen", j)
				}
				if j%97 == 0 {
					s.maybeSpill() // MemLimit 1: every barrier spills
				}
			}
			if s.spilled.Load() == 0 {
				t.Fatal("nothing spilled despite 1-byte budget")
			}
			if len(s.segs) == 0 {
				t.Fatal("no segments on disk")
			}
			for j := range encs {
				if !s.seen(fps[j], encs[j], endss[j]) {
					t.Fatalf("state %d lost after spill", j)
				}
			}
			if s.size() != len(encs) {
				t.Fatalf("size = %d, want %d", s.size(), len(encs))
			}
		})
	}
}

// close removes the per-search segment directory.
func TestSpillSetCloseRemovesSegments(t *testing.T) {
	_, encs, fps, endss := benchComponentStates(300)
	parent := t.TempDir()
	s := newSpillSet(newShardedSet(nil), 1, parent, nil)
	for j := range encs {
		s.seen(fps[j], encs[j], endss[j])
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
