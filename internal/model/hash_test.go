package model

import (
	"bytes"
	"fmt"
	"testing"
)

// hash64Ref spells Hash64 out byte by byte, with its own constants: each
// word is assembled from single bytes, so a word-load, tail or length
// bug in Hash64 shows as a mismatch.
func hash64Ref(b []byte) uint64 {
	const m = 0xc6a4a7935bd1e995
	h := uint64(0x9e3779b97f4a7c15) ^ uint64(len(b))*m
	for len(b) > 0 {
		n := min(8, len(b))
		var k uint64
		for j := n - 1; j >= 0; j-- {
			k = k<<8 | uint64(b[j])
		}
		if n == 8 {
			k *= m
			k ^= k >> 47
			k *= m
		}
		h ^= k
		h *= m
		b = b[n:]
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// hashInput is a deterministic n-byte input.
func hashInput(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

// Known answers: checkpoint logs store Hash64 values, so the function
// must not change silently. Lengths cover the empty input, a lone tail,
// a full word with and without a tail, two words, and the 205-byte
// vector of bridge N=2.
func TestHash64KnownAnswers(t *testing.T) {
	for _, c := range []struct {
		n    int
		want uint64
	}{
		{0, 0x9ca066f1a4ab2eea},
		{1, 0x6a42855c7db9e1bc},
		{7, 0x8565a1f5d4c05e97},
		{8, 0x9199baaaa7bc47a6},
		{9, 0x7e5d5f66f2d2ed00},
		{16, 0x28cfc699c92d58f8},
		{17, 0x32403956fea8a634},
		{205, 0xdd3494cbafc89c90},
	} {
		b := hashInput(c.n)
		if got := Hash64(b); got != c.want {
			t.Errorf("Hash64(%d bytes) = %#x, want %#x", c.n, got, c.want)
		}
		if ref := hash64Ref(b); ref != c.want {
			t.Errorf("reference(%d bytes) = %#x, want %#x", c.n, ref, c.want)
		}
	}
}

// FuzzHash64 compares Hash64 with the byte-wise reference, on the input
// as given and on a copy at an odd offset inside a larger buffer whose
// other bytes must not matter.
func FuzzHash64(f *testing.F) {
	for _, n := range []int{0, 1, 7, 8, 9, 16, 17, 205} {
		f.Add(hashInput(n))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := hash64Ref(data)
		if got := Hash64(data); got != want {
			t.Fatalf("Hash64(%x) = %#x, reference %#x", data, got, want)
		}
		buf := bytes.Repeat([]byte{0xa5}, len(data)+16)
		shifted := buf[3 : 3+len(data)]
		copy(shifted, data)
		if got := Hash64(shifted); got != want {
			t.Fatalf("Hash64 of %x at offset 3 = %#x, reference %#x", data, got, want)
		}
	})
}

// BenchmarkHash64 times Hash64 at collapse's component sizes and at the
// 205-byte bridge N=2 vector.
func BenchmarkHash64(b *testing.B) {
	for _, n := range []int{4, 16, 205} {
		in := hashInput(n)
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink ^= Hash64(in)
			}
			hashBenchSink = sink
		})
	}
}

var hashBenchSink uint64
