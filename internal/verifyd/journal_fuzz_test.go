package verifyd

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"pnp/internal/api"
)

// FuzzJournalReplay feeds arbitrary bytes to a server as its journal
// segment. Decoding stops at the first frame that fails validation, so
// bytes appended to a valid journal never change the records it holds.
// Opening the server replays the segment without panicking, and every
// job it then serves as done carries the report of the last completed
// record decoded for it, or was re-run from a decoded accepted record.
// The seed corpus is goldenJournal with truncated and bit-flipped
// copies of it.
func FuzzJournalReplay(f *testing.F) {
	golden, err := hex.DecodeString(goldenJournal)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, n := range []int{0, 1, 8, 9, len(golden) / 2, len(golden) - 1} {
		f.Add(golden[:n])
	}
	for _, bit := range []int{0, 35, 8*9 + 3, 4 * len(golden), 8*len(golden) - 1} {
		b := slices.Clone(golden)
		b[bit/8] ^= 1 << (bit % 8)
		f.Add(b)
	}
	encode := func(recs []journalRecord) []byte {
		b, err := json.Marshal(recs)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	base := decodeRecords(golden)
	f.Fuzz(func(t *testing.T, data []byte) {
		if ext := decodeRecords(append(slices.Clone(golden), data...)); len(ext) < len(base) ||
			!bytes.Equal(encode(ext[:len(base)]), encode(base)) {
			t.Fatalf("appending %x to a valid journal changed its records", data)
		}

		completed := map[string]*api.Report{}
		accepted := map[string]bool{}
		for _, rec := range decodeRecords(data) {
			switch {
			case rec.Type == recCompleted:
				completed[rec.ID] = rec.Report
			case rec.Type == recAccepted && rec.Req != nil:
				accepted[rec.ID] = true
			}
		}
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "journal"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "journal", segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenServer(Config{Workers: 1, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		for id, job := range s.jobs {
			rep, ok := completed[id]
			switch {
			case job.State != api.JobDone:
			case ok:
				if got, want := encodeReport(t, job.Report), encodeReport(t, rep); !bytes.Equal(got, want) {
					t.Fatalf("job %s is served with report %s, its completed record holds %s", id, got, want)
				}
			case !accepted[id]:
				t.Fatalf("job %s is served as done, but no record decoded from the journal completes or accepts it", id)
			}
		}
	})
}

func encodeReport(t *testing.T, r *api.Report) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
