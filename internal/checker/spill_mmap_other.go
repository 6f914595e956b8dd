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

// lockRunDir takes no lock: without flock a run directory has no
// owner file, and SweepSpillDirs cannot tell a live search's directory
// from a dead one's.
func lockRunDir(string) (*os.File, error) { return nil, nil }

// SweepSpillDirs removes nothing without flock: a killed search's run
// directory stays until removed by hand.
func SweepSpillDirs(string) (int, error) { return 0, nil }
