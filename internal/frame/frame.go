// Package frame is the one CRC framing every on-disk format in this
// repository shares — the verifyd job journal, the checker's search
// checkpoints, and its spill segments:
//
//	[u32 LE payload length][u32 LE CRC-32 (IEEE) of payload][payload]
//
// A frame either reads back exactly or is reported corrupt; what a
// reader does about a corrupt frame (stop replay there, reject the
// whole file) stays its own policy.
package frame

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// HeaderSize is the fixed prefix of every frame.
const HeaderSize = 8

// ErrTruncated reports a frame whose header or payload runs past the
// end of the data — a torn tail — or whose length is zero, which no
// writer produces.
var ErrTruncated = errors.New("frame: truncated")

// ErrChecksum reports a payload that does not match its recorded CRC.
var ErrChecksum = errors.New("frame: checksum mismatch")

// Header returns the frame header for payload, for writers that stream
// header and payload separately instead of copying them into one buffer.
func Header(payload []byte) (h [HeaderSize]byte) {
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:8], crc32.ChecksumIEEE(payload))
	return h
}

// Append appends payload to dst as one frame.
func Append(dst, payload []byte) []byte {
	h := Header(payload)
	return append(append(dst, h[:]...), payload...)
}

// Next splits the first frame off data, returning its validated payload
// (aliasing data) and the bytes after it.
func Next(data []byte) (payload, rest []byte, err error) {
	if len(data) < HeaderSize {
		return nil, nil, ErrTruncated
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	sum := binary.LittleEndian.Uint32(data[4:8])
	data = data[HeaderSize:]
	if n == 0 || uint64(n) > uint64(len(data)) {
		return nil, nil, ErrTruncated
	}
	payload = data[:n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, nil, ErrChecksum
	}
	return payload, data[n:], nil
}
