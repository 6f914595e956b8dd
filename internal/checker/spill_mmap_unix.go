//go:build unix

package checker

import (
	"fmt"
	"os"
	"runtime/debug"
	"syscall"
)

// fileView is a view of a prefix of a file: a spill segment, or the
// level log the segments index. It is an mmap, so multi-GB logs cost no
// heap, and a search holds at most ⌊log2 S⌋+2 of them, well below the
// process's mapping limit (vm.max_map_count). A segment's view is the
// writable mapping it was laid out in (writeScratch), read only from
// then on; the log's is a read-only mapping of a file that is only ever
// appended to.
//
// A growing file is mapped ahead of its end: a view that outgrows its
// mapping maps twice as much, so a log read back at every spill is
// mapped O(log size) times, not once per spill. Pages past the file's
// end fault (SIGBUS), so nothing may read past data, which never
// reaches past the file's end.
type fileView struct {
	data []byte // the view: a prefix of mapped, or an in-heap copy
	// mapped is the whole mapping, nil for an in-heap copy.
	mapped []byte
}

// extend grows v to the first size bytes of f, size > len(v.data): it
// re-slices the mapping when the prefix still fits, and otherwise maps
// max(size, 2·len(mapping)) bytes and drops the old mapping. Where the
// first mmap fails, the view is an in-heap copy that grows by reading
// only the bytes appended since; a later mmap failure is an error.
func (v *fileView) extend(f *os.File, size int64) error {
	if size <= int64(len(v.mapped)) {
		v.data = v.mapped[:size]
		return nil
	}
	if v.mapped != nil || v.data == nil {
		n := max(size, 2*int64(len(v.mapped)))
		m, err := syscall.Mmap(int(f.Fd()), 0, int(n), syscall.PROT_READ, syscall.MAP_SHARED)
		if err == nil {
			v.close()
			v.data, v.mapped = m[:size], m
			return nil
		}
		if v.mapped != nil {
			return err
		}
	}
	var err error
	v.data, err = growHeap(v.data, f, size)
	return err
}

func (v *fileView) close() {
	if v.mapped != nil {
		syscall.Munmap(v.mapped)
	}
	v.data, v.mapped = nil, nil
}

// writeScratch sizes f, a new scratch file, to size bytes, maps it
// writable and has fill lay out its bytes in place: the mapping is the
// view. A page the file system cannot back (a full disk) faults on its
// first write; that fault fails the segment, not the process.
func writeScratch(f *os.File, size int, fill func([]byte)) (v fileView, err error) {
	if err := f.Truncate(int64(size)); err != nil {
		return fileView{}, err
	}
	m, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fileView{}, err
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if _, fault := r.(interface{ Addr() uintptr }); !fault {
				panic(r)
			}
			syscall.Munmap(m)
			v, err = fileView{}, fmt.Errorf("checker: spill segment: %v", r)
		}
	}()
	fill(m)
	return fileView{data: m, mapped: m}, nil
}

// scratchFile creates a file in dir, the system temp dir when dir is
// empty, and unlinks it at once, as tmpfile(3) does: the file lives as
// long as its descriptor and mappings, so a search leaves nothing behind
// however it ends, SIGKILL included. Only a kill between the two calls
// can leave a file, an empty one. A failed unlink fails the create.
func scratchFile(dir string) (*os.File, error) {
	f, err := os.CreateTemp(dir, "pnp-spill-*")
	if err != nil {
		return nil, err
	}
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// closeScratch closes a scratchFile, already unlinked.
func closeScratch(f *os.File) { f.Close() }
