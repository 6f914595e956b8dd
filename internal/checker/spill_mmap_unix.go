//go:build unix

package checker

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// fileView is a read-only view of a prefix of a file that is only ever
// appended to: a spill segment, or the level log the segments index. It
// is an mmap, so multi-GB logs cost no heap, and a search holds at most
// ⌊log2 S⌋+2 of them, well below the process's mapping limit
// (vm.max_map_count).
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

// lockRunDir takes the run directory's owner lock: an exclusive flock
// on spillOwnerFile, which the kernel drops when the process dies,
// however it dies. The file is locked under a temporary name and only
// then renamed into place, so a sweep never finds an owner file that is
// not yet locked.
func lockRunDir(dir string) (*os.File, error) {
	f, err := os.CreateTemp(dir, spillOwnerFile+"-*")
	if err != nil {
		return nil, err
	}
	err = syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(dir, spillOwnerFile))
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return f, nil
}

// SweepSpillDirs removes the spill run directories (spillRunPrefix*) under
// dir, the system temp dir when dir is empty, that a search killed
// before it could clean up left behind: those whose owner lock can be
// taken without blocking. A directory with no owner file is left alone:
// its search may still be starting. It returns how many it removed.
func SweepSpillDirs(dir string) (int, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	removed := 0
	for _, e := range ents {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), spillRunPrefix) {
			continue
		}
		run := filepath.Join(dir, e.Name())
		f, err := os.Open(filepath.Join(run, spillOwnerFile))
		if err != nil {
			continue
		}
		if syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB) == nil && os.RemoveAll(run) == nil {
			removed++
		}
		f.Close()
	}
	return removed, nil
}
