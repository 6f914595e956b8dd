//go:build unix

package checker

import (
	"os"
	"syscall"
)

// mapFile returns a read-only view of the file at path: an mmap where
// the platform supports it (mapped=true — pages are file-backed and
// reclaimable, so multi-GB spill segments cost no heap), falling back
// to reading the file into memory. The spill tier maps every segment
// once and keeps it mapped until the search ends, since later indexes
// point into its blob; it stops spilling at spillMaxFiles segments, well
// below the process's mapping limit (vm.max_map_count), rather than
// reach this fallback.
func mapFile(path string) (data []byte, mapped bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	size := fi.Size()
	if size == 0 {
		return nil, false, nil
	}
	if int64(int(size)) == size {
		if m, merr := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED); merr == nil {
			return m, true, nil
		}
	}
	data, err = os.ReadFile(path)
	return data, false, err
}

func unmapFile(data []byte) {
	if data != nil {
		syscall.Munmap(data)
	}
}
