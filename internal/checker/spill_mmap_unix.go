//go:build unix

package checker

import (
	"os"
	"syscall"
)

// fileView is a read-only view of a prefix of a file that is only ever
// appended to: a spill segment, or the level log the segments index. It
// is an mmap (mapped=true), so multi-GB logs cost no heap, and a search
// holds at most ⌊log2 S⌋+2 of them, well below the process's mapping
// limit (vm.max_map_count).
type fileView struct {
	data   []byte
	mapped bool
}

// extend grows v to the first size bytes of f, size > len(v.data): it
// maps the longer prefix and drops the shorter mapping. Where the first
// mmap fails, the view is an in-heap copy that grows by reading only the
// bytes appended since; a later mmap failure is an error.
func (v *fileView) extend(f *os.File, size int64) error {
	if v.mapped || v.data == nil {
		m, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
		if err == nil {
			v.close()
			v.data, v.mapped = m, true
			return nil
		}
		if v.mapped {
			return err
		}
	}
	var err error
	v.data, err = growHeap(v.data, f, size)
	return err
}

func (v *fileView) close() {
	if v.mapped {
		syscall.Munmap(v.data)
	}
	v.data, v.mapped = nil, false
}
