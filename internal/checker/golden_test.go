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

// goldenCheckpoint is the log of goldenSrc at depth 2: levels 0, 1
// and 2, one state vector each, then the commit.
const goldenCheckpoint = "" +
	"504e50434b50543405000000d72017694c0000020005000000f376b0c84c0100030075000000930e071d437b22706861" +
	"7365223a227361666574792d7061722d626673222c226d6f64656c223a2263626564366332303265303761353334222c" +
	"226465707468223a312c2273746f726564223a322c226d617463686564223a302c227472616e736974696f6e73223a31" +
	"2c226d61785f6465707468223a307d05000000cad819b44c02000201750000007266f861437b227068617365223a2273" +
	"61666574792d7061722d626673222c226d6f64656c223a2263626564366332303265303761353334222c226465707468" +
	"223a322c2273746f726564223a332c226d617463686564223a302c227472616e736974696f6e73223a322c226d61785f" +
	"6465707468223a317d"

// goldenCheckpointV3 is the same log in the PNPCKPT3 format, which
// framed each vector with a uvarint length. A rolling restart can hand
// one to a newer binary, which must ignore it and search fresh.
const goldenCheckpointV3 = "" +
	"504e50434b50543306000000d8a6dbe94c00030002000600000029bea0cd4c010300030075000000930e071d437b2270" +
	"68617365223a227361666574792d7061722d626673222c226d6f64656c223a2263626564366332303265303761353334" +
	"222c226465707468223a312c2273746f726564223a322c226d617463686564223a302c227472616e736974696f6e7322" +
	"3a312c226d61785f6465707468223a307d060000002ec51ce44c0203000201750000007266f861437b22706861736522" +
	"3a227361666574792d7061722d626673222c226d6f64656c223a2263626564366332303265303761353334222c226465" +
	"707468223a322c2273746f726564223a332c226d617463686564223a302c227472616e736974696f6e73223a322c226d" +
	"61785f6465707468223a317d"

// goldenCheckpointV2 is the same log in the PNPCKPT2 format, whose
// entries are the varint state encoding that preceded state vectors. A
// rolling restart can hand one to a newer binary, which must ignore it
// and search fresh.
const goldenCheckpointV2 = "" +
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

// goldenSpillSegment pins the segment format: the index and filter of
// the three vectors of goldenCheckpoint's log. Segments are per-search
// scratch, never read by another search or release, so the bytes pin
// what the writer produces and the reader accepts, not cross-version
// reads.
const goldenSpillSegment = "" +
	"504e505350494c3430000000daf8f2bfd413a9de61345602a9000000000000009abbe8cbd66a35c31f00000000000000" +
	"85f1f832ec8e5ffb120000000000000008000000d75334c56088120400400000"

func goldenBytes(tb testing.TB, hexBytes string) []byte {
	tb.Helper()
	data, err := hex.DecodeString(hexBytes)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// goldenLogAt runs goldenSrc with a checkpoint log and returns the log
// as it stood after the commit at depth.
func goldenLogAt(t *testing.T, depth int) []byte {
	t.Helper()
	var log []byte
	res := New(sysFromSource(t, goldenSrc), Options{Workers: 1, Durability: &DurabilityOptions{
		Dir: t.TempDir(), Key: "g", Interval: 1,
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

// TestCheckpointGoldenBytes pins the level-log format: the writer
// produces the golden bytes, they parse to the expected commit and
// levels, and a PNPCKPT1 snapshot or a PNPCKPT2 or PNPCKPT3 log from a
// previous format is ignored on resume — the search starts fresh and reaches the
// same verdict and counts.
func TestCheckpointGoldenBytes(t *testing.T) {
	golden := goldenBytes(t, goldenCheckpoint)
	if got := goldenLogAt(t, 2); !bytes.Equal(got, golden) {
		t.Errorf("checkpoint bytes moved:\n got %x\nwant %x", got, golden)
	}
	log, err := readCheckpoint(golden, goldenWidth(t))
	if err != nil {
		t.Fatalf("readCheckpoint: %v", err)
	}
	c := log.commit
	if c.Phase != "safety-par-bfs" || c.Depth != 2 || c.Stored != 3 || c.Matched != 0 ||
		c.Transitions != 2 || c.MaxDepth != 1 {
		t.Errorf("commit = %+v", c)
	}
	if len(log.runs) != 3 || log.front != 2 || log.size != int64(len(golden)) {
		t.Errorf("parsed %d level frames, frontier at %d, %d of %d bytes; want 3, 2, all",
			len(log.runs), log.front, log.size, len(golden))
	}

	t.Run("previous-format", func(t *testing.T) {
		want := New(sysFromSource(t, goldenSrc), Options{Workers: 1}).CheckSafety()
		for name, hexBytes := range map[string]string{
			"PNPCKPT1": goldenCheckpointV1, "PNPCKPT2": goldenCheckpointV2, "PNPCKPT3": goldenCheckpointV3,
		} {
			dir := t.TempDir()
			path := filepath.Join(dir, CheckpointFileName("g"))
			old, _ := hex.DecodeString(hexBytes)
			if err := os.WriteFile(path, old, 0o644); err != nil {
				t.Fatal(err)
			}
			var depths []int
			res := New(sysFromSource(t, goldenSrc), Options{Workers: 2, Durability: &DurabilityOptions{
				Dir: dir, Key: "g", Interval: 1, Resume: true,
				OnWrite: func(_ string, d, _ int) { depths = append(depths, d) },
			}}).CheckSafety()
			if res.OK != want.OK || !statsEqualIgnoringElapsed(res.Stats, want.Stats) {
				t.Errorf("resume over a %s file: %s %+v, fresh %+v", name, res.Summary(), res.Stats, want.Stats)
			}
			if len(depths) == 0 || depths[0] != 1 {
				t.Errorf("%s: commits at %v, want a fresh log from depth 1", name, depths)
			}
		}
	})
}

// goldenWidth is the vector width of goldenSrc's states.
func goldenWidth(tb testing.TB) int {
	return len(sysFromSource(tb, goldenSrc).InitialState().Bytes())
}

// goldenLogEntries returns goldenCheckpoint's bytes, its vector width,
// and the index entries of its three vectors.
func goldenLogEntries(tb testing.TB) (log []byte, width int, ents []idxEnt) {
	tb.Helper()
	log, err := hex.DecodeString(goldenCheckpoint)
	if err != nil {
		tb.Fatal(err)
	}
	width = goldenWidth(tb)
	l, err := readCheckpoint(log, width)
	if err != nil {
		tb.Fatalf("readCheckpoint: %v", err)
	}
	eachVector(log, l.runs, width, func(off int64, vec []byte) { ents = append(ents, idxEnt{fp: model.Hash64(vec), off: uint64(off)}) })
	return log, width, ents
}

// TestSpillSegmentGoldenBytes: the layout produces the golden bytes for
// the index of goldenCheckpoint's vectors, and the golden segment
// validates over that log and finds each of them.
func TestSpillSegmentGoldenBytes(t *testing.T) {
	log, width, ents := goldenLogEntries(t)
	rewritten := layoutTestSegment(ents)
	golden := goldenBytes(t, goldenSpillSegment)
	if !bytes.Equal(rewritten, golden) {
		t.Errorf("segment bytes moved:\n got %x\nwant %x", rewritten, golden)
	}
	seg, err := validSegment(golden, int64(len(log)), width)
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if seg.count != len(ents) || len(ents) != 3 {
		t.Fatalf("count = %d, want %d entries, 3", seg.count, len(ents))
	}
	for _, e := range ents {
		vec := log[e.off : e.off+uint64(width)]
		if !seg.contains(model.Hash64(vec), vec, log) {
			t.Errorf("vector at %d missing from golden segment", e.off)
		}
	}
}
