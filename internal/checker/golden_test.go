package checker

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"pnp/internal/frame"
	"pnp/internal/model"
)

// The two files below were written by the commit before internal/frame
// existed (hand-rolled length+CRC framing in checkpoint.go and
// spill.go). Checkpoints and segments on disk must stay readable, so
// the bytes are pinned, not regenerated.

// goldenCheckpoint is the depth-2 snapshot of
// "byte a; active proctype P() { do :: a < 3 -> a = a + 1 :: else -> break od }"
// searched with one worker.
const goldenCheckpoint = "" +
	"504e50434b5054318e0000003a8776dc487b227068617365223a227361666574792d7061722d626673222c226d6f6465" +
	"6c223a2266333262306438343463623365663166222c226465707468223a322c2276697369746564223a332c2266726f" +
	"6e74696572223a312c2273746f726564223a332c226d617463686564223a302c227472616e736974696f6e73223a322c" +
	"226d61785f6465707468223a317d100000000e4e48de56040104020004010600000401040000060000002943c0104604" +
	"01040200"

// goldenSpillSegment holds the entries "alpha", "beta", "gamma".
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

// TestCheckpointGoldenBytes: a checkpoint written before the framing
// moved to internal/frame parses to the same snapshot, and re-framing
// its sections reproduces the file byte for byte.
func TestCheckpointGoldenBytes(t *testing.T) {
	path, golden := goldenFile(t, "g.ckpt", goldenCheckpoint)
	snap, err := readCheckpoint(path)
	if err != nil {
		t.Fatalf("readCheckpoint: %v", err)
	}
	h := snap.header
	if h.Phase != "safety-par-bfs" || h.Depth != 2 || h.Visited != 3 || h.Frontier != 1 ||
		h.Stored != 3 || h.Transitions != 2 || h.MaxDepth != 1 {
		t.Errorf("header = %+v", h)
	}
	if len(snap.visited) != 3 || len(snap.frontier) != 1 {
		t.Errorf("parsed %d visited / %d frontier entries, want 3 / 1", len(snap.visited), len(snap.frontier))
	}

	rewritten := []byte(ckptMagic)
	for rest := golden[len(ckptMagic):]; len(rest) > 0; {
		var payload []byte
		if payload, rest, err = frame.Next(rest); err != nil {
			t.Fatal(err)
		}
		rewritten = frame.Append(rewritten, payload)
	}
	if !bytes.Equal(rewritten, golden) {
		t.Errorf("checkpoint bytes moved:\n got %x\nwant %x", rewritten, golden)
	}
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
