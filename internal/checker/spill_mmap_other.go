//go:build !unix

package checker

import "os"

// fileView is a read-only view of a prefix of a file that is only ever
// appended to. Without syscall.Mmap it is an in-heap copy grown by the
// appended bytes, so spill bounds the visited set, not process memory.
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
