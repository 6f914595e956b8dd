package verifyd

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"pnp/internal/api"
)

// goldenJournal is two journal records exactly as the commit before
// internal/frame existed wrote them (hand-rolled length+CRC framing in
// journal.go). Journals on disk must stay readable, so these bytes are
// pinned, not regenerated.
const goldenJournal = "" +
	"9c0000002545bbbe7b2274797065223a226163636570746564222c226964223a226a6f622d31222c22736571223a312c" +
	"2274696d65223a22323032362d30312d30325430333a30343a30355a222c226b6579223a226b31222c22726571223a7b" +
	"2261646c223a2273797374656d2078207b7d222c226d61785f737461746573223a313030302c2274696d656f75745f6d" +
	"73223a3235307d2c22617474656d7074223a317dbd000000686d47b57b2274797065223a22636f6d706c65746564222c" +
	"226964223a226a6f622d31222c22736571223a312c2274696d65223a22323032362d30312d30325430333a30343a3035" +
	"5a222c226b6579223a226b31222c227265706f7274223a7b2273797374656d223a2278222c2270726f63657373657322" +
	"3a302c226368616e6e656c73223a302c226f6b223a747275652c226661696c6564223a302c2270726f70657274696573" +
	"223a6e756c6c7d2c2263616368655f6d6973736573223a317d"

// TestJournalGoldenBytes: a journal written before the framing moved to
// internal/frame replays identically, and today's writer produces the
// same bytes.
func TestJournalGoldenBytes(t *testing.T) {
	golden, err := hex.DecodeString(goldenJournal)
	if err != nil {
		t.Fatal(err)
	}
	when := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	ms := 1000
	want := []journalRecord{
		{Type: recAccepted, ID: "job-1", Seq: 1, Time: when, Key: "k1",
			Req: &api.JobRequest{ADL: "system x {}", MaxStates: &ms, TimeoutMS: 250}, Attempt: 1},
		{Type: recCompleted, ID: "job-1", Seq: 1, Time: when, Key: "k1",
			Report: &api.Report{System: "x", OK: true}, CacheMisses: 1},
	}

	got := decodeRecords(golden)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	if r := got[0]; r.Type != recAccepted || r.ID != "job-1" || !r.Time.Equal(when) || r.Req == nil ||
		r.Req.ADL != "system x {}" || r.Req.MaxStates == nil || *r.Req.MaxStates != ms || r.Req.TimeoutMS != 250 {
		t.Errorf("accepted record = %+v", r)
	}
	if r := got[1]; r.Type != recCompleted || r.Report == nil || !r.Report.OK || r.CacheMisses != 1 {
		t.Errorf("completed record = %+v", r)
	}

	var rewritten []byte
	for _, rec := range want {
		buf, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		rewritten = append(rewritten, buf...)
	}
	if !bytes.Equal(rewritten, golden) {
		t.Errorf("journal bytes moved:\n got %x\nwant %x", rewritten, golden)
	}
}
