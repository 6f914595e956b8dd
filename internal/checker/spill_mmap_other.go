//go:build !unix

package checker

import "os"

// fileView is a view of a prefix of a file. Without syscall.Mmap it is
// in heap: a segment's view is the buffer it was laid out in
// (writeScratch), the level log's a copy grown by the appended bytes, so
// spill bounds the visited set, not process memory.
type fileView struct {
	data []byte
}

// extend grows v to the first size bytes of f, size > len(v.data).
func (v *fileView) extend(f *os.File, size int64) error {
	var err error
	v.data, err = growHeap(v.data, f, size)
	return err
}

func (v *fileView) close() { v.data = nil }

// writeScratch has fill lay out size zeroed bytes in heap, writes them
// to f, a new scratch file, in one Write, and keeps them as the view.
func writeScratch(f *os.File, size int, fill func([]byte)) (fileView, error) {
	data := make([]byte, size)
	fill(data)
	if _, err := f.Write(data); err != nil {
		return fileView{}, err
	}
	return fileView{data: data}, nil
}

// scratchFile creates a file in dir, the system temp dir when dir is
// empty. An open file cannot be unlinked on these builds, so it keeps
// its name until closeScratch: a killed search leaves its files behind.
func scratchFile(dir string) (*os.File, error) { return os.CreateTemp(dir, "pnp-spill-*") }

// closeScratch closes a scratchFile and removes it. A segment's view is
// in heap here, so its file goes as soon as it is written.
func closeScratch(f *os.File) {
	f.Close()
	os.Remove(f.Name())
}
