package verifyd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pnp/internal/adl"
	"pnp/internal/api"
	"pnp/internal/blocks"
	"pnp/internal/checker"
	"pnp/internal/obs"
)

// durableADL is the ping-pong system scaled deep enough (40 rounds,
// hundreds of BFS levels) that a search killed mid-way has real work
// left to resume.
const durableADL = `
system counters {
    components "pingpong.pml"

    connector W {
        send    syn-blocking
        channel fifo(2)
        receive blocking
    }

    instance ping = Ping(send W, 40)
    instance pong = Pong(recv W, 40)

    invariant conservation "got <= sent"
}`

func durableComponents(t testing.TB) map[string]string {
	return map[string]string{"pingpong.pml": loadExample(t, "pingpong.pml")}
}

// submitHTTP posts the JSON envelope (the path that journals on a
// durable server) and returns the accepted job's ID.
func submitHTTP(t *testing.T, url string, req api.JobRequest) string {
	t.Helper()
	env, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/jobs status = %d: %s", resp.StatusCode, b)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return job.ID
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// readJournal parses every intact record from a server's journal dir.
func readJournal(t *testing.T, dataDir string) []journalRecord {
	t.Helper()
	dir := filepath.Join(dataDir, "journal")
	segs, err := journalSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var recs []journalRecord
	for _, seg := range segs {
		data, err := os.ReadFile(filepath.Join(dir, segmentName(seg)))
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, decodeRecords(data)...)
	}
	return recs
}

// TestJournalRoundTrip: records appended (and group-fsynced) by one
// journal instance replay intact, in order, from a fresh open.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, recs, err := openJournal(dir, journalSegmentBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := []journalRecord{
		{Type: recAccepted, ID: "job-1", Seq: 1, Key: "k1", Req: &api.JobRequest{ADL: "system x {}"}},
		{Type: recStarted, ID: "job-1", Seq: 1, Attempt: 1},
		{Type: recCheckpoint, ID: "job-1", Seq: 1, Key: "k1-safety", File: "f.ckpt", Depth: 12},
		{Type: recCompleted, ID: "job-1", Seq: 1, Key: "k1", Report: &api.Report{System: "x", OK: true}},
	}
	for _, rec := range want {
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.close()

	_, got, err := openJournal(dir, journalSegmentBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].ID != want[i].ID || got[i].Key != want[i].Key {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[2].Depth != 12 || got[2].File != "f.ckpt" {
		t.Errorf("checkpoint record lost fields: %+v", got[2])
	}
	if got[3].Report == nil || !got[3].Report.OK {
		t.Errorf("completed record lost its report: %+v", got[3])
	}
	if got[0].Req == nil || got[0].Req.ADL != "system x {}" {
		t.Errorf("accepted record lost its request: %+v", got[0])
	}
}

// TestJournalTornTail: a partial final frame — what kill -9 mid-write
// leaves — is dropped without poisoning the intact records before it.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, journalSegmentBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.append(journalRecord{Type: recStarted, ID: "job-1", Attempt: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	j.close()

	// A torn frame: a length prefix promising more bytes than exist.
	seg := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{200, 0, 0, 0, 1, 2, 3, 4, 'p', 'a', 'r', 't'})
	f.Close()

	_, recs, err := openJournal(dir, journalSegmentBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records past a torn tail, want 3", len(recs))
	}

	// A corrupted byte inside a frame truncates replay at that frame.
	data, _ := os.ReadFile(seg)
	data[10] ^= 0xff
	if got := decodeRecords(data); len(got) != 0 {
		t.Fatalf("corrupt first frame replayed %d records, want 0", len(got))
	}
}

// TestJournalCompaction: compacting rewrites only the live records into
// a single fresh segment and deletes the history.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, 64, nil) // tiny limit: a record or two trips it
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := j.append(journalRecord{Type: recStarted, ID: "job-1", Attempt: i}); err != nil {
			t.Fatal(err)
		}
	}
	if !j.overLimit() {
		t.Fatal("journal under limit after 10 records with a 64-byte cap")
	}
	live := []journalRecord{{Type: recCompleted, ID: "job-1", Key: "k1", Report: &api.Report{OK: true}}}
	if err := j.compact(func() []journalRecord { return live }); err != nil {
		t.Fatal(err)
	}
	segs, _ := journalSegments(dir)
	if len(segs) != 1 {
		t.Fatalf("%d segments after compaction, want 1", len(segs))
	}
	// The compacted journal stays appendable and replays live + new.
	if err := j.append(journalRecord{Type: recAccepted, ID: "job-2"}); err != nil {
		t.Fatal(err)
	}
	j.close()
	_, recs, err := openJournal(dir, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Type != recCompleted || recs[1].ID != "job-2" {
		t.Fatalf("post-compaction replay = %+v", recs)
	}
}

// TestServerReplayCompleted: a restarted durable server re-serves
// completed verdicts from disk — job lookup, report cache, and a fully
// cache-served resubmission — without re-running anything.
func TestServerReplayCompleted(t *testing.T) {
	dataDir := t.TempDir()
	req := api.JobRequest{ADL: durableADL, Components: durableComponents(t)}

	s1, err := OpenServer(Config{Workers: 2, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	id := submitHTTP(t, ts1.URL, req)
	job1, ok := s1.Job(id)
	if !ok {
		t.Fatalf("submitted job %s not found", id)
	}
	done1 := waitDone(t, s1, job1)
	if done1.Report == nil || !done1.Report.OK {
		t.Fatalf("job must verify: %+v", done1.Report)
	}
	ts1.Close()
	shutdownServer(t, s1)

	reg := obs.NewRegistry()
	s2, err := OpenServer(Config{Workers: 2, DataDir: dataDir, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s2)
	if got := reg.Counter("verifyd_jobs_recovered_total").Value(); got != 1 {
		t.Errorf("jobs_recovered_total = %d, want 1", got)
	}
	job2, ok := s2.Job(id)
	if !ok {
		t.Fatalf("restarted server lost job %s", id)
	}
	snap := s2.Snapshot(job2)
	if snap.State != api.JobDone || snap.Report == nil || !snap.Report.OK {
		t.Fatalf("recovered job not done: %+v", snap)
	}
	if snap.Report.Properties[0].States != done1.Report.Properties[0].States {
		t.Errorf("recovered report stats differ: %d != %d",
			snap.Report.Properties[0].States, done1.Report.Properties[0].States)
	}

	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	// The report cache was rebuilt from the journal: the submission key
	// peeks, and an identical resubmission is answered without search.
	key := Submission{ADL: req.ADL, Components: req.Components}.Key()
	resp, err := http.Get(ts2.URL + "/v1/cache/" + key.String())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("cache peek after restart = %d, want 200", resp.StatusCode)
	}
	id2 := submitHTTP(t, ts2.URL, req)
	jobAgain, _ := s2.Job(id2)
	again := waitDone(t, s2, jobAgain)
	if again.CacheMisses != 0 {
		t.Errorf("resubmission after restart searched %d properties, want 0", again.CacheMisses)
	}
}

// TestServerReplayIncompleteResumes is the kill -9 scenario end to end:
// a journal holding an acknowledged-but-unfinished job plus the
// checkpoint its search wrote. The restarted server re-enqueues the
// job, resumes the search from the snapshot (proven by the first
// checkpoint record of the new attempt landing past the stolen depth),
// and delivers the identical verdict.
func TestServerReplayIncompleteResumes(t *testing.T) {
	comps := durableComponents(t)
	subKey := Submission{ADL: durableADL, Components: comps}.Key()
	// The server checks all invariants as one merged property named
	// "safety" — the checkpoint key follows that property name.
	ckptKey := subKey.String() + "-safety"

	resolve := func(path string) (string, error) { return comps[path], nil }
	sys, err := adl.Load(durableADL, resolve, blocks.NewCache())
	if err != nil {
		t.Fatal(err)
	}

	// Reference run: uninterrupted, and steal the snapshot written at
	// the barrier past depth 30 — the file a process killed there would
	// leave behind.
	const stealDepth = 30
	var stolen []byte
	refOpts := checker.Options{Workers: 2}
	refOpts.Invariants = append([]checker.Invariant(nil), sys.Invariants...)
	refOpts.Durability = &checker.DurabilityOptions{
		Dir: t.TempDir(), Key: ckptKey, Interval: 1,
		OnWrite: func(file string, depth, states int) {
			if stolen == nil && depth >= stealDepth {
				stolen, _ = os.ReadFile(file)
			}
		},
	}
	ref := checker.New(sys.Builder.System(), refOpts).CheckSafety()
	if !ref.OK {
		t.Fatalf("reference run must verify: %+v", ref)
	}
	if stolen == nil {
		t.Fatalf("search never reached depth %d; deepen the model", stealDepth)
	}

	// Fabricate the crashed server's disk: the accepted record in the
	// journal, the mid-search snapshot in the checkpoint dir.
	dataDir := t.TempDir()
	ckptDir := filepath.Join(dataDir, "checkpoints")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	ckptFile := filepath.Join(ckptDir, checker.CheckpointFileName(ckptKey))
	if err := os.WriteFile(ckptFile, stolen, 0o644); err != nil {
		t.Fatal(err)
	}
	j, _, err := openJournal(filepath.Join(dataDir, "journal"), journalSegmentBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = j.append(journalRecord{
		Type: recAccepted, ID: "job-1", Seq: 1, Time: time.Now(), Key: subKey.String(),
		Req: &api.JobRequest{ADL: durableADL, Components: comps}, Attempt: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	j.close()

	reg := obs.NewRegistry()
	s, err := OpenServer(Config{Workers: 2, DataDir: dataDir, CheckpointInterval: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s)
	job, ok := s.Job("job-1")
	if !ok {
		t.Fatal("replayed job not registered")
	}
	done := waitDone(t, s, job)
	if done.Report == nil || !done.Report.OK {
		t.Fatalf("recovered job must verify: %+v", done.Report)
	}
	if done.Attempt != 2 || done.ResumedFrom != "journal" {
		t.Errorf("attempt=%d resumed_from=%q, want 2/journal", done.Attempt, done.ResumedFrom)
	}
	// The resumed verdict is bit-identical to the uninterrupted one.
	if got, want := done.Report.Properties[0].States, ref.Stats.StatesStored; got != want {
		t.Errorf("resumed StatesStored = %d, uninterrupted = %d", got, want)
	}
	if got := reg.Counter("verifyd_jobs_recovered_total").Value(); got != 1 {
		t.Errorf("jobs_recovered_total = %d, want 1", got)
	}
	// Resume proof: the new attempt's first snapshot is past the stolen
	// depth — a from-scratch search would checkpoint at the first barrier.
	var ckRec *journalRecord
	for _, rec := range readJournal(t, dataDir) {
		if rec.Type == recCheckpoint && rec.Attempt == 2 {
			ckRec = &rec
			break
		}
	}
	if ckRec == nil {
		t.Fatal("resumed attempt journaled no checkpoint record")
	}
	if ckRec.Depth <= stealDepth {
		t.Errorf("first checkpoint of resumed attempt at depth %d — search restarted from scratch", ckRec.Depth)
	}
	// The checkpoint is consumed with the verdict.
	if _, err := os.Stat(ckptFile); !os.IsNotExist(err) {
		t.Errorf("checkpoint file survives the verdict: %v", err)
	}
}

// TestServerReplayDedupesSameKey: two journaled incomplete jobs with the
// same submission key execute once — the second becomes a follower of
// the first and mirrors its report.
func TestServerReplayDedupesSameKey(t *testing.T) {
	comps := durableComponents(t)
	subKey := Submission{ADL: durableADL, Components: comps}.Key()
	dataDir := t.TempDir()
	j, _, err := openJournal(filepath.Join(dataDir, "journal"), journalSegmentBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"job-1", "job-2"} {
		err := j.append(journalRecord{
			Type: recAccepted, ID: id, Seq: i + 1, Time: time.Now(), Key: subKey.String(),
			Req: &api.JobRequest{ADL: durableADL, Components: comps}, Attempt: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// A third with bad ADL: replay drops it without failing startup.
	err = j.append(journalRecord{
		Type: recAccepted, ID: "job-3", Seq: 3, Time: time.Now(),
		Req: &api.JobRequest{ADL: "system broken {"},
	})
	if err != nil {
		t.Fatal(err)
	}
	j.close()

	s, err := OpenServer(Config{Workers: 2, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s)
	if _, ok := s.Job("job-3"); ok {
		t.Error("non-composing journaled job must be dropped")
	}
	leaderJob, ok1 := s.Job("job-1")
	followerJob, ok2 := s.Job("job-2")
	if !ok1 || !ok2 {
		t.Fatal("replayed jobs not registered")
	}
	leader := waitDone(t, s, leaderJob)
	follower := waitDone(t, s, followerJob)
	if leader.Report == nil || follower.Report == nil || !leader.Report.OK || !follower.Report.OK {
		t.Fatalf("both recovered jobs must verify: %+v / %+v", leader.Report, follower.Report)
	}
	// Zero duplicate execution: the leader searched, the follower served.
	if leader.CacheMisses == 0 {
		t.Error("leader must actually search")
	}
	if follower.CacheMisses != 0 {
		t.Errorf("follower searched %d properties — duplicate execution", follower.CacheMisses)
	}
}

// TestServerMemoryOnlyUnchanged pins the default: with DataDir unset
// nothing is journaled, no checkpoint options reach the checker, and
// the server behaves exactly as before this feature existed.
func TestServerMemoryOnlyUnchanged(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	if s.journal != nil || s.ckptDir != "" {
		t.Fatal("memory-only server armed durability state")
	}
	if s.HealthInfo().Durable {
		t.Error("memory-only server reports durable")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := submitHTTP(t, ts.URL, api.JobRequest{ADL: loadExample(t, "pingpong.pnp"),
		Components: map[string]string{"pingpong.pml": loadExample(t, "pingpong.pml")}})
	job, _ := s.Job(id)
	done := waitDone(t, s, job)
	if done.Report == nil || !done.Report.OK {
		t.Fatalf("job must verify: %+v", done.Report)
	}
	if done.Attempt != 1 || done.ResumedFrom != "" {
		t.Errorf("fresh job attempt=%d resumed_from=%q", done.Attempt, done.ResumedFrom)
	}

	// No checkpoint endpoint content either.
	resp, err := http.Get(ts.URL + "/v1/checkpoints/anything")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("checkpoint peek on memory-only server = %d, want 404", resp.StatusCode)
	}
}

// TestCheckpointPeekAndFetch: a durable server serves its live
// checkpoint files over GET /v1/checkpoints/{key}, and a peer pulls
// them into its own checkpoint dir via fetchCheckpoint.
func TestCheckpointPeekAndFetch(t *testing.T) {
	src, err := OpenServer(Config{Workers: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, src)
	payload := []byte("PNPCKPT1 not really, but bytes round-trip")
	if err := os.WriteFile(filepath.Join(src.ckptDir, checker.CheckpointFileName("k1")), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(src.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/checkpoints/k1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
		t.Fatalf("checkpoint peek = %d (%d bytes), want 200 with %d bytes",
			resp.StatusCode, len(body), len(payload))
	}
	resp, err = http.Get(ts.URL + "/v1/checkpoints/absent")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing checkpoint = %d, want 404", resp.StatusCode)
	}

	reg := obs.NewRegistry()
	dst, err := OpenServer(Config{Workers: 1, DataDir: t.TempDir(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, dst)
	dst.fetchCheckpoint(context.Background(), ts.URL, "k1")
	got, err := os.ReadFile(filepath.Join(dst.ckptDir, checker.CheckpointFileName("k1")))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("fetched checkpoint = %q, %v", got, err)
	}
	if n := reg.Counter("verifyd_checkpoints_fetched_total").Value(); n != 1 {
		t.Errorf("checkpoints_fetched_total = %d, want 1", n)
	}
	// A dead peer degrades to a fresh search, never an error.
	dst.fetchCheckpoint(context.Background(), "http://127.0.0.1:1", "k2")
	if _, err := os.Stat(filepath.Join(dst.ckptDir, checker.CheckpointFileName("k2"))); !os.IsNotExist(err) {
		t.Error("failed fetch left a checkpoint file")
	}
}

// TestServerDurableJobJournals: the happy path writes accepted, started,
// and completed records, and the health body reports durable.
func TestServerDurableJobJournals(t *testing.T) {
	dataDir := t.TempDir()
	s, err := OpenServer(Config{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	if !s.HealthInfo().Durable {
		t.Error("durable server must report durable")
	}
	ts := httptest.NewServer(s.Handler())
	id := submitHTTP(t, ts.URL, api.JobRequest{ADL: durableADL, Components: durableComponents(t)})
	job, _ := s.Job(id)
	waitDone(t, s, job)
	ts.Close()
	shutdownServer(t, s)

	types := make(map[string]int)
	for _, rec := range readJournal(t, dataDir) {
		if rec.ID == id {
			types[rec.Type]++
		}
	}
	for _, want := range []string{recAccepted, recStarted, recCompleted} {
		if types[want] == 0 {
			t.Errorf("journal has no %s record for %s (got %v)", want, id, types)
		}
	}
}
