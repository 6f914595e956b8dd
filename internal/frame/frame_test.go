package frame

import (
	"bytes"
	"errors"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var data []byte
	payloads := [][]byte{[]byte("a"), []byte("second frame"), bytes.Repeat([]byte{0xAB}, 1000)}
	for _, p := range payloads {
		data = Append(data, p)
	}
	for i, want := range payloads {
		got, rest, err := Next(data)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d = %q, want %q", i, got, want)
		}
		data = rest
	}
	if len(data) != 0 {
		t.Fatalf("%d trailing bytes", len(data))
	}
}

func TestCorruptFrames(t *testing.T) {
	good := Append(nil, []byte("payload"))
	flipped := append([]byte(nil), good...)
	flipped[HeaderSize+2] ^= 0x01
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", good[:HeaderSize-1], ErrTruncated},
		{"torn payload", good[:len(good)-1], ErrTruncated},
		{"zero length", make([]byte, HeaderSize), ErrTruncated},
		{"bit flip", flipped, ErrChecksum},
	} {
		if _, _, err := Next(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// FuzzFrameNext feeds Next arbitrary bytes. It must never panic, and a
// payload it accepts must alias data and re-Append to exactly the bytes
// it was split from.
func FuzzFrameNext(f *testing.F) {
	good := Append(nil, []byte("payload"))
	f.Add(good)
	f.Add(Append(good, []byte("second")))
	f.Add(good[:len(good)-1])
	f.Add(make([]byte, HeaderSize))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, rest, err := Next(data)
		if err != nil {
			return
		}
		if len(payload) == 0 || &payload[0] != &data[HeaderSize] {
			t.Fatal("accepted payload does not alias data")
		}
		consumed := data[:len(data)-len(rest)]
		if !bytes.Equal(Append(nil, payload), consumed) {
			t.Fatalf("re-Append = %x, split from %x", Append(nil, payload), consumed)
		}
	})
}
