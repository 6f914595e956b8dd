//go:build unix

package checker

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// scratchUnlinked: an open file can be unlinked, so a search's spill dir
// stays empty while it runs.
const scratchUnlinked = true

// killedSearchEnv names, in the child process of
// TestKilledSearchLeavesNoSpillFiles, the directory it searches in.
const killedSearchEnv = "PNP_TEST_KILLED_SEARCH_DIR"

// A search SIGKILLed mid-spill leaves nothing in its spill dir. The
// child, this test binary run again, starts a durable search under a
// 1 KB budget and stops inside its second commit: the first spill's
// segment is mapped, the search's state as live as it gets. The parent
// kills it there. Only an empty file may remain, from a kill between a
// scratch file's creation and its unlink.
func TestKilledSearchLeavesNoSpillFiles(t *testing.T) {
	if dir := os.Getenv(killedSearchEnv); dir != "" {
		searchUntilKilled(t, dir)
		return
	}
	dir := t.TempDir()
	spill := filepath.Join(dir, "spill")
	cmd := exec.Command(os.Args[0], "-test.run=^TestKilledSearchLeavesNoSpillFiles$")
	cmd.Env = append(os.Environ(), killedSearchEnv+"="+dir)
	stdin, err := cmd.StdinPipe() // the child stops reading it only when killed
	if err != nil {
		t.Fatal(err)
	}
	defer stdin.Close()
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	ready := make(chan error, 1)
	go func() {
		for sc := bufio.NewScanner(out); sc.Scan(); {
			if sc.Text() == "ready" {
				ready <- nil
				return
			}
		}
		ready <- errors.New("the child ended before its second commit")
	}()
	select {
	case err = <-ready:
	case <-time.After(2 * time.Minute):
		err = errors.New("the child did not reach its second commit")
	}
	if err == nil && runtime.GOOS == "linux" {
		err = mapsUnlinkedFile(cmd.Process.Pid, spill)
	}
	cmd.Process.Kill() // SIGKILL
	cmd.Wait()
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(spill)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if fi, err := e.Info(); err != nil || !fi.Mode().IsRegular() || fi.Size() != 0 {
			t.Errorf("the killed search left %s (%v) in its spill dir", e.Name(), e.Type())
		}
	}
}

// mapsUnlinkedFile checks that process pid maps a file of dir that is
// already unlinked.
func mapsUnlinkedFile(pid int, dir string) error {
	maps, err := os.ReadFile(fmt.Sprintf("/proc/%d/maps", pid))
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, dir+string(filepath.Separator)) && strings.HasSuffix(line, " (deleted)") {
			return nil
		}
	}
	return fmt.Errorf("the child maps no unlinked file of %s:\n%s", dir, maps)
}

// searchUntilKilled is the child: it prints "ready" at the search's
// second commit and then blocks until killed, or exits once its parent
// is gone.
func searchUntilKilled(t *testing.T, dir string) {
	commits := 0
	New(sysFromSource(t, ckptSrc), Options{Workers: 2,
		Storage: StorageOptions{MemLimit: 1024, SpillDir: filepath.Join(dir, "spill")},
		Durability: &DurabilityOptions{Dir: filepath.Join(dir, "ckpt"), Key: "k", Interval: 1,
			OnWrite: func(string, int, int) {
				if commits++; commits == 2 {
					fmt.Println("ready")
					io.Copy(io.Discard, os.Stdin)
					os.Exit(1)
				}
			}},
	}).CheckSafety()
	os.Exit(1)
}

// A page of a segment's mapping that the file cannot back faults on its
// first write; writeScratch reports that as an error and unmaps, where
// the fault would otherwise kill the process. The file is cut short
// under the mapping, as a full disk leaves a page without a block.
func TestWriteScratchFaultFailsSegment(t *testing.T) {
	f, err := scratchFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer closeScratch(f)
	v, err := writeScratch(f, 1<<16, func(data []byte) {
		if err := f.Truncate(0); err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] = 1
	})
	if err == nil || v.data != nil {
		t.Fatalf("writeScratch over a truncated file: view of %d bytes, err %v; want an error", len(v.data), err)
	}
}
