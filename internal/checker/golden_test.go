package checker

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"pnp/internal/model"
)

// goldenSrc is the tiny model both checkpoint goldens were written for,
// searched with one worker and captured at depth 2.
const goldenSrc = "byte a; active proctype P() { do :: a < 3 -> a = a + 1 :: else -> break od }"

// goldenCheckpoint is today's log of goldenSrc at depth 2: levels 0, 1
// and 2, one state each, then the commit.
const goldenCheckpoint = "" +
	"504e50434b505432070000000aa9f2544c00040104000007000000c1ae2a9c4c0104010600007500000011fad2a7437b" +
	"227068617365223a227361666574792d7061722d626673222c226d6f64656c223a226633326230643834346362336566" +
	"3166222c226465707468223a312c2273746f726564223a322c226d617463686564223a302c227472616e736974696f6e" +
	"73223a312c226d61785f6465707468223a307d07000000836a0c2b4c02040104020075000000f0922ddb437b22706861" +
	"7365223a227361666574792d7061722d626673222c226d6f64656c223a2266333262306438343463623365663166222c" +
	"226465707468223a322c2273746f726564223a332c226d617463686564223a302c227472616e736974696f6e73223a32" +
	"2c226d61785f6465707468223a317d"

// goldenCheckpointV1 is the same search's whole-set snapshot in the
// PNPCKPT1 format that preceded the level log. A rolling restart can
// hand one to a newer binary, which must ignore it and search fresh.
const goldenCheckpointV1 = "" +
	"504e50434b5054318e0000003a8776dc487b227068617365223a227361666574792d7061722d626673222c226d6f6465" +
	"6c223a2266333262306438343463623365663166222c226465707468223a322c2276697369746564223a332c2266726f" +
	"6e74696572223a312c2273746f726564223a332c226d617463686564223a302c227472616e736974696f6e73223a322c" +
	"226d61785f6465707468223a317d100000000e4e48de56040104020004010600000401040000060000002943c0104604" +
	"01040200"

// goldenSpillSegment was written by the commit before internal/frame
// existed (hand-rolled length+CRC framing); segments on disk must stay
// readable, so the bytes are pinned, not regenerated. It holds the
// entries "alpha", "beta", "gamma".
const goldenSpillSegment = "" +
	"504e505350494c310c000000a6b6d0ce487b22636f756e74223a337d11000000f17a838405616c706861046265746105" +
	"67616d6d6130000000baf1e7b86aa96b1fbd7691220b00000000000000a72046959b61277606000000000000002b20ed" +
	"85bb25c68a0000000000000000"

func goldenFile(t *testing.T, name, hexBytes string) (path string, data []byte) {
	t.Helper()
	data, err := hex.DecodeString(hexBytes)
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// goldenLogAt runs goldenSrc with a checkpoint log and returns the log
// as it stood after the commit at depth.
func goldenLogAt(t *testing.T, depth int) []byte {
	t.Helper()
	var log []byte
	res := New(sysFromSource(t, goldenSrc), Options{Workers: 1, Durability: &DurabilityOptions{
		Dir: t.TempDir(), Key: "g",
		OnWrite: func(file string, d, _ int) {
			if d == depth {
				log, _ = os.ReadFile(file)
			}
		},
	}}).CheckSafety()
	if !res.OK || log == nil {
		t.Fatalf("no depth-%d log: %s", depth, res.Summary())
	}
	return log
}

// TestCheckpointGoldenBytes pins the level-log format: today's writer
// produces the golden bytes, they parse to the expected commit and
// levels, and a PNPCKPT1 snapshot from the previous format is ignored
// on resume — the search starts fresh and reaches the same verdict.
func TestCheckpointGoldenBytes(t *testing.T) {
	_, golden := goldenFile(t, "g.ckpt", goldenCheckpoint)
	if got := goldenLogAt(t, 2); !bytes.Equal(got, golden) {
		t.Errorf("checkpoint bytes moved:\n got %x\nwant %x", got, golden)
	}
	log, err := readCheckpoint(golden)
	if err != nil {
		t.Fatalf("readCheckpoint: %v", err)
	}
	c := log.commit
	if c.Phase != "safety-par-bfs" || c.Depth != 2 || c.Stored != 3 || c.Matched != 0 ||
		c.Transitions != 2 || c.MaxDepth != 1 {
		t.Errorf("commit = %+v", c)
	}
	if len(log.visited) != 3 || log.front != 2 || log.size != int64(len(golden)) {
		t.Errorf("parsed %d visited, frontier at %d, %d of %d bytes; want 3, 2, all",
			len(log.visited), log.front, log.size, len(golden))
	}

	t.Run("previous-format", func(t *testing.T) {
		want := New(sysFromSource(t, goldenSrc), Options{Workers: 1}).CheckSafety()
		dir := t.TempDir()
		path := filepath.Join(dir, CheckpointFileName("g"))
		old, _ := hex.DecodeString(goldenCheckpointV1)
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		var depths []int
		res := New(sysFromSource(t, goldenSrc), Options{Workers: 2, Durability: &DurabilityOptions{
			Dir: dir, Key: "g", Resume: true,
			OnWrite: func(_ string, d, _ int) { depths = append(depths, d) },
		}}).CheckSafety()
		if !res.OK || !statsEqualIgnoringElapsed(res.Stats, want.Stats) {
			t.Errorf("resume over a PNPCKPT1 file: %s %+v, fresh %+v", res.Summary(), res.Stats, want.Stats)
		}
		if len(depths) == 0 || depths[0] != 1 {
			t.Errorf("commits at %v, want a fresh log from depth 1", depths)
		}
	})
}

// TestSpillSegmentGoldenBytes: a segment written before the framing
// moved to internal/frame opens and probes identically, and today's
// writer produces the same bytes for the same entries.
func TestSpillSegmentGoldenBytes(t *testing.T) {
	path, golden := goldenFile(t, "g.seg", goldenSpillSegment)
	seg, err := openSpillSegment(path)
	if err != nil {
		t.Fatalf("openSpillSegment: %v", err)
	}
	defer seg.close()
	encs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	if seg.count != len(encs) {
		t.Fatalf("count = %d, want %d", seg.count, len(encs))
	}
	for _, e := range encs {
		if !seg.contains(model.Hash64(e), e) {
			t.Errorf("entry %q missing from golden segment", e)
		}
	}

	rewritten, err := os.ReadFile(writeTestSegment(t, t.TempDir(), encs))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewritten, golden) {
		t.Errorf("segment bytes moved:\n got %x\nwant %x", rewritten, golden)
	}
}
