package sweep

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pnp/internal/adl"
	"pnp/internal/obs/tracing"
	"pnp/internal/verifyd"
)

func newTracedService(t *testing.T) (*tracing.Recorder, *httptest.Server) {
	t.Helper()
	rec := tracing.NewRecorder(1024)
	srv := verifyd.NewServer(verifyd.Config{Workers: 2, Tracer: rec})
	sv := NewService(Local(srv), nil)
	hs := httptest.NewServer(verifyd.NewHandler(verifyd.Routes(srv, sv.Routes()...)))
	t.Cleanup(func() {
		hs.Close()
		srv.Shutdown(context.Background())
		sv.Wait()
	})
	return rec, hs
}

// TestSweepTrace runs a sweep against a traced service and verifies the
// span hierarchy nests sweep → cell → job → run → property → checker
// phase under one TraceID, and that GET /v1/sweeps/{id}/trace streams
// the same spans.
func TestSweepTrace(t *testing.T) {
	rec, hs := newTracedService(t)
	st := postSweep(t, hs, pingWire(1))
	if st.TraceID == "" {
		t.Fatal("202 status carries no trace_id")
	}
	final := waitSweep(t, hs, st.ID)
	if final.Result == nil || final.Err != "" {
		t.Fatalf("final status: %+v", final)
	}
	if final.TraceID != st.TraceID {
		t.Fatalf("TraceID changed: %q -> %q", st.TraceID, final.TraceID)
	}

	spans := rec.TraceHex(st.TraceID)
	byID := map[string]tracing.SpanData{}
	var sweepSpan tracing.SpanData
	var cellSpans, jobSpans int
	for _, d := range spans {
		byID[d.SpanID] = d
		switch {
		case d.Name == "sweep":
			sweepSpan = d
		case strings.HasPrefix(d.Name, "cell:"):
			cellSpans++
		case d.Name == "job":
			jobSpans++
		}
	}
	if sweepSpan.SpanID == "" || sweepSpan.Parent != "" {
		t.Fatalf("sweep span missing or not the root: %+v", sweepSpan)
	}
	if cellSpans != 2 || jobSpans != 2 {
		t.Fatalf("cells=%d jobs=%d, want 2 each", cellSpans, jobSpans)
	}
	for _, d := range spans {
		switch {
		case strings.HasPrefix(d.Name, "cell:"):
			if d.Parent != sweepSpan.SpanID {
				t.Errorf("%s parent = %q, want sweep", d.Name, d.Parent)
			}
		case d.Name == "job":
			if !strings.HasPrefix(byID[d.Parent].Name, "cell:") {
				t.Errorf("job parent %q is not a cell span", byID[d.Parent].Name)
			}
		}
	}

	// The trace endpoint serves the same spans as NDJSON.
	resp, err := http.Get(hs.URL + "/v1/sweeps/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint status = %d", resp.StatusCode)
	}
	got, err := tracing.ReadNDJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(spans) {
		t.Fatalf("endpoint spans = %d, ring spans = %d", len(got), len(spans))
	}
}

// TestSweepTraceDedup: deduplicated cells record follower spans naming
// their leader instead of spawning duplicate jobs.
func TestSweepTraceDedup(t *testing.T) {
	rec := tracing.NewRecorder(1024)
	spec := pingSpec(1)
	// Two identical channel variants collapse to one job.
	kind, size, err := adl.ParseChannel("fifo(1)")
	if err != nil {
		t.Fatal(err)
	}
	spec.Channels = []ChannelVariant{{Kind: kind, Size: size}, {Kind: kind, Size: size}}
	res, runErr := Run(context.Background(), spec, Config{Tracer: rec})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res.DedupHits != 1 {
		t.Fatalf("DedupHits = %d, want 1", res.DedupHits)
	}
	var followers int
	for _, d := range rec.Spans() {
		if strings.HasPrefix(d.Name, "cell:") {
			for _, a := range d.Attrs {
				if a.Key == "deduped" && a.Value == "true" {
					followers++
				}
			}
		}
	}
	if followers != 1 {
		t.Fatalf("follower spans = %d, want 1", followers)
	}
}

// TestSweepTraceDisabled: an untraced service reports no trace_id and
// 404s the trace endpoint.
func TestSweepTraceDisabled(t *testing.T) {
	_, hs, _ := newTestService(t)
	st := postSweep(t, hs, pingWire(1))
	if st.TraceID != "" {
		t.Fatalf("untraced sweep has trace_id %q", st.TraceID)
	}
	waitSweep(t, hs, st.ID)
	resp, err := http.Get(hs.URL + "/v1/sweeps/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace endpoint status = %d, want 404", resp.StatusCode)
	}
}
