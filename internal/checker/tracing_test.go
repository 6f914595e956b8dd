package checker

import (
	"context"
	"strconv"
	"testing"
	"time"

	"pnp/internal/obs/tracing"
)

// TestProgressCadenceWorkers checks snapshot cadence and final-snapshot
// delivery under the sequential and parallel engines: with a
// zero-interval meter every level emits a snapshot, the final snapshot
// arrives exactly once and carries the search's true totals, and the
// parallel snapshots surface the frontier size.
func TestProgressCadenceWorkers(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run("workers="+strconv.Itoa(workers), func(t *testing.T) {
			s := sysFromSource(t, progressSource)
			var snaps []Progress
			res := New(s, Options{
				IgnoreDeadlock:   true,
				Workers:          workers,
				Progress:         func(p Progress) { snaps = append(snaps, p) },
				ProgressInterval: time.Nanosecond,
			}).CheckSafety()
			if !res.OK {
				t.Fatalf("expected OK: %s", res.Summary())
			}
			if len(snaps) < 2 {
				t.Fatalf("want periodic + final snapshots, got %d", len(snaps))
			}
			finals := 0
			for _, p := range snaps {
				if p.Final {
					finals++
				}
				if p.Phase != "safety-par-bfs" {
					t.Fatalf("phase = %q, want safety-par-bfs", p.Phase)
				}
			}
			if finals != 1 || !snaps[len(snaps)-1].Final {
				t.Fatalf("final snapshots = %d (last.Final=%t), want exactly one, last",
					finals, snaps[len(snaps)-1].Final)
			}
			last := snaps[len(snaps)-1]
			if last.StatesStored != res.Stats.StatesStored {
				t.Errorf("final states = %d, want %d", last.StatesStored, res.Stats.StatesStored)
			}
			if last.Frontier <= 0 {
				t.Errorf("parallel snapshots should carry a frontier size, got %d", last.Frontier)
			}
			prev := 0
			for _, p := range snaps {
				if p.StatesStored < prev {
					t.Errorf("states stored not monotone: %d after %d", p.StatesStored, prev)
				}
				prev = p.StatesStored
			}
		})
	}
}

// TestCheckerPhaseSpan checks that a Tracer-configured search records
// one phase span parented to the span in Options.Context, with
// per-level events carrying the frontier size.
func TestCheckerPhaseSpan(t *testing.T) {
	rec := tracing.NewRecorder(64)
	ctx, job := rec.StartSpan(context.Background(), "job")
	s := sysFromSource(t, progressSource)
	res := New(s, Options{
		IgnoreDeadlock: true,
		Workers:        4,
		Context:        ctx,
		Tracer:         rec,
	}).CheckSafety()
	if !res.OK {
		t.Fatalf("expected OK: %s", res.Summary())
	}
	job.End()

	spans := rec.Trace(job.TraceID())
	if len(spans) != 2 {
		t.Fatalf("trace has %d spans, want job + phase", len(spans))
	}
	phase := spans[1]
	if phase.Name != "checker:safety-par-bfs" {
		t.Fatalf("phase span name = %q", phase.Name)
	}
	if phase.Parent != job.SpanID().String() {
		t.Fatalf("phase parent = %q, want job span %s", phase.Parent, job.SpanID())
	}
	if len(phase.Events) == 0 {
		t.Fatal("phase span has no level events")
	}
	for _, e := range phase.Events {
		if e.Name != "level" {
			t.Fatalf("unexpected event %q", e.Name)
		}
		var hasFrontier bool
		for _, a := range e.Attrs {
			if a.Key == "frontier" {
				hasFrontier = true
			}
		}
		if !hasFrontier {
			t.Fatalf("level event missing frontier attr: %+v", e)
		}
	}
	var stored string
	for _, a := range phase.Attrs {
		if a.Key == "states_stored" {
			stored = a.Value
		}
	}
	if stored != strconv.Itoa(res.Stats.StatesStored) {
		t.Fatalf("states_stored attr = %q, want %d", stored, res.Stats.StatesStored)
	}
}

// TestCheckerSpanWithoutContext: a Tracer alone (no Options.Context)
// still records a root phase span.
func TestCheckerSpanWithoutContext(t *testing.T) {
	rec := tracing.NewRecorder(16)
	s := sysFromSource(t, progressSource)
	res := New(s, Options{IgnoreDeadlock: true, Tracer: rec}).CheckSafety()
	if !res.OK {
		t.Fatalf("expected OK: %s", res.Summary())
	}
	spans := rec.Spans()
	if len(spans) != 1 || spans[0].Name != "checker:safety-par-bfs" || spans[0].Parent != "" {
		t.Fatalf("spans = %+v, want one root checker:safety-par-bfs span", spans)
	}
}
