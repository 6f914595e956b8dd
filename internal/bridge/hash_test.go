package bridge

import (
	"testing"

	"pnp/internal/blocks"
	"pnp/internal/model"
)

// fnv1a is the FNV-1a 64 hash model.Hash64 replaced, kept here as the
// quality baseline.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// reachableVectors returns every reachable state vector of sys in
// breadth-first order.
func reachableVectors(t *testing.T, sys *model.System) [][]byte {
	t.Helper()
	init := sys.InitialState()
	seen := map[string]bool{init.Key(): true}
	out := [][]byte{init.Bytes()}
	var a model.Arena
	var trs []model.Transition
	for i := 0; i < len(out); i++ {
		st, err := model.DecodeKey(init, out[i])
		if err != nil {
			t.Fatal(err)
		}
		trs = sys.SuccessorsAppend(st, &a, trs[:0])
		for _, tr := range trs {
			if tr.Violation != "" {
				continue
			}
			if enc := tr.Next.Bytes(); !seen[string(enc)] {
				seen[string(enc)] = true
				out = append(out, append([]byte(nil), enc...))
			}
			a.Recycle(tr.Next)
		}
	}
	return out
}

// hashQuality holds the figures of one hash over a set of vectors; for
// each, lower is better.
type hashQuality struct {
	stripeMaxOverMean float64 // busiest of the 64 stripes fp%64, over the mean
	tagChi2PerBucket  float64 // chi-square per bucket of the 28-bit tag's low 16 bits
	longestProbeRun   float64 // mean over tables of the longest insert probe
}

// measureHash computes the figures. The probe figure fills tables of
// 2^12 slots to 3/4 load with consecutive vectors, each slotted at its
// encTable home fp>>52 and probed linearly, and averages the longest
// probe sequence over all tables.
func measureHash(vecs [][]byte, hash func([]byte) uint64) hashQuality {
	fps := make([]uint64, len(vecs))
	for i, v := range vecs {
		fps[i] = hash(v)
	}
	var q hashQuality

	var stripes [64]int
	for _, fp := range fps {
		stripes[fp%64]++
	}
	most := 0
	for _, c := range stripes {
		most = max(most, c)
	}
	q.stripeMaxOverMean = float64(most) / (float64(len(fps)) / 64)

	const tagBuckets = 1 << 16
	counts := make([]int, tagBuckets)
	for _, fp := range fps {
		counts[(fp>>36)%tagBuckets]++
	}
	mean := float64(len(fps)) / tagBuckets
	for _, c := range counts {
		d := float64(c) - mean
		q.tagChi2PerBucket += d * d / mean
	}
	q.tagChi2PerBucket /= tagBuckets

	const slotsLog2 = 12
	const fill = 3 << (slotsLog2 - 2)
	slots := make([]bool, 1<<slotsLog2)
	tables := 0
	for lo := 0; lo+fill <= len(fps); lo += fill {
		clear(slots)
		longest := 0
		for _, fp := range fps[lo : lo+fill] {
			probe := 1
			i := fp >> (64 - slotsLog2)
			for ; slots[i]; i = (i + 1) % (1 << slotsLog2) {
				probe++
			}
			slots[i] = true
			longest = max(longest, probe)
		}
		q.longestProbeRun += float64(longest)
		tables++
	}
	q.longestProbeRun /= float64(tables)
	return q
}

// TestHash64QualityOnBridge hashes every reachable bridge N=1 vector
// (N=2's 347,916 take over a second to enumerate) with model.Hash64 and
// with FNV-1a. On stripe balance, tag spread and the longest probe at
// 3/4 load, Hash64 may be at most 10 % worse. Seeded SHA-256 prefixes,
// an ideal hash for this purpose, put the probe figure 1–8 % above
// FNV-1a's on these vectors.
func TestHash64QualityOnBridge(t *testing.T) {
	b, err := Build(Config{Variant: ExactlyN, CarsPerSide: 1, N: 1, EnterSend: blocks.SynBlockingSend}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vecs := reachableVectors(t, b.System())
	if len(vecs) != 183506 {
		t.Fatalf("%d reachable vectors, want 183506", len(vecs))
	}
	fnv, h64 := measureHash(vecs, fnv1a), measureHash(vecs, model.Hash64)
	t.Logf("FNV-1a %+v", fnv)
	t.Logf("Hash64 %+v", h64)
	for _, f := range []struct {
		name      string
		fnv, hash float64
	}{
		{"stripe max/mean", fnv.stripeMaxOverMean, h64.stripeMaxOverMean},
		{"tag chi-square per bucket", fnv.tagChi2PerBucket, h64.tagChi2PerBucket},
		{"longest probe at 3/4 load", fnv.longestProbeRun, h64.longestProbeRun},
	} {
		if f.hash > 1.1*f.fnv {
			t.Errorf("%s: Hash64 %.3f, FNV-1a %.3f: more than 10%% worse", f.name, f.hash, f.fnv)
		}
	}
}
