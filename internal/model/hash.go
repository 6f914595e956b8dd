package model

import "encoding/binary"

// MurmurHash64A's multiplier and shift, and a fixed seed.
const (
	hashM    = 0xc6a4a7935bd1e995
	hashR    = 47
	hashSeed = 0x9e3779b97f4a7c15
)

// Hash64 is the one hash of canonical state encodings
// (Hash64(st.Bytes())), exported so every package hashing encodings
// (visited sets, bitstate bits, checkpoint identity, spill indexes)
// agrees on one implementation. It is MurmurHash64A's loop — 8
// little-endian bytes per multiply-xorshift step, the length folded into
// the seed, the last 1–7 bytes as one more word — closed by mix64. The
// value is fixed across platforms and processes: checkpoint logs store
// it. Equal inputs always hash equally; distinct inputs collide with
// probability ~2^-64.
func Hash64(b []byte) uint64 {
	n := len(b)
	h := hashSeed ^ uint64(n)*hashM
	for p := b; len(p) >= 8; p = p[8:] {
		k := binary.LittleEndian.Uint64(p) * hashM
		h = (h ^ (k^k>>hashR)*hashM) * hashM
	}
	var t uint64 // the last n%8 bytes, little-endian
	switch tail := n & 7; {
	case tail == 0:
		return mix64(h)
	case n >= 8:
		t = binary.LittleEndian.Uint64(b[n-8:]) >> (64 - 8*tail)
	case n >= 4: // two overlapping loads agree on the bytes they share
		t = uint64(binary.LittleEndian.Uint32(b)) | uint64(binary.LittleEndian.Uint32(b[n-4:]))<<(8*(n-4))
	default: // 1-3 bytes: the first, middle and last cover them all
		t = uint64(b[0]) | uint64(b[n/2])<<(8*(n/2)) | uint64(b[n-1])<<(8*(n-1))
	}
	return mix64((h ^ t) * hashM)
}

// mix64 is murmur3's fmix64 finaliser, a bijection on uint64 whose every
// output bit depends on every input bit. Hash64 ends with it.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
