//go:build unix

package verifyd

import (
	"bytes"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"pnp/internal/checker"
)

// OpenServer sweeps its spill dir: the run dir of a killed search,
// whose owner lock is free, goes; one whose lock a live descriptor
// holds stays; and the log says how many went.
func TestOpenServerSweepsDeadSpillDirs(t *testing.T) {
	spill := t.TempDir()
	dead, live := filepath.Join(spill, "pnp-spill-dead"), filepath.Join(spill, "pnp-spill-live")
	for _, d := range []string{dead, live} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "owner"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	held, err := os.Open(filepath.Join(live, "owner"))
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	if err := syscall.Flock(int(held.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	s, err := OpenServer(Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(&logs, nil)),
		Options: checker.Options{Storage: checker.StorageOptions{SpillDir: spill}}})
	if err != nil {
		t.Fatal(err)
	}
	shutdownServer(t, s)
	if _, err := os.Stat(dead); !os.IsNotExist(err) {
		t.Errorf("dead run dir kept (err=%v)", err)
	}
	if _, err := os.Stat(live); err != nil {
		t.Errorf("live run dir removed: %v", err)
	}
	if !strings.Contains(logs.String(), "removed=1") {
		t.Errorf("log does not report one removal:\n%s", logs.String())
	}
}
