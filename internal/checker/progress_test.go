package checker

import (
	"strings"
	"testing"
	"time"

	"pnp/internal/obs"
)

// progressSource has a few hundred states so the meter's countdown
// fires more than once.
const progressSource = `
byte a, b, c;
active proctype P() {
	do
	:: a < 5 -> a = a + 1
	:: else -> break
	od
}
active proctype Q() {
	do
	:: b < 5 -> b = b + 1
	:: else -> break
	od
}
active proctype R() {
	do
	:: c < 5 -> c = c + 1
	:: else -> break
	od
}`

func TestProgressCallbackDFS(t *testing.T) {
	s := sysFromSource(t, progressSource)
	var snaps []Progress
	res := New(s, Options{
		IgnoreDeadlock:   true,
		Progress:         func(p Progress) { snaps = append(snaps, p) },
		ProgressInterval: time.Nanosecond,
	}).CheckSafety()
	if !res.OK {
		t.Fatalf("expected OK: %s", res.Summary())
	}
	if len(snaps) < 2 {
		t.Fatalf("want at least one periodic + one final snapshot, got %d", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if !last.Final {
		t.Error("last snapshot not marked Final")
	}
	for _, p := range snaps[:len(snaps)-1] {
		if p.Final {
			t.Error("non-last snapshot marked Final")
		}
	}
	if last.Phase != "safety-dfs" {
		t.Errorf("phase = %q, want safety-dfs", last.Phase)
	}
	if last.StatesStored != res.Stats.StatesStored {
		t.Errorf("final snapshot states = %d, want %d", last.StatesStored, res.Stats.StatesStored)
	}
	if last.StatesPerSec <= 0 || last.Elapsed <= 0 {
		t.Errorf("rate/elapsed not populated: %+v", last)
	}
	if last.HeapAlloc == 0 {
		t.Error("HeapAlloc not populated")
	}
	prev := 0
	for _, p := range snaps {
		if p.StatesStored < prev {
			t.Errorf("states stored not monotone: %d after %d", p.StatesStored, prev)
		}
		prev = p.StatesStored
	}
}

func TestProgressCallbackBFSPhase(t *testing.T) {
	s := sysFromSource(t, progressSource)
	var phases []string
	res := New(s, Options{
		IgnoreDeadlock:   true,
		BFS:              true,
		Progress:         func(p Progress) { phases = append(phases, p.Phase) },
		ProgressInterval: time.Nanosecond,
	}).CheckSafety()
	if !res.OK {
		t.Fatalf("expected OK: %s", res.Summary())
	}
	if len(phases) == 0 || phases[0] != "safety-par-bfs" {
		t.Errorf("phases = %v, want safety-par-bfs", phases)
	}
}

func TestProgressMetricsRegistry(t *testing.T) {
	s := sysFromSource(t, progressSource)
	reg := obs.NewRegistry()
	res := New(s, Options{IgnoreDeadlock: true, Metrics: reg}).CheckSafety()
	if !res.OK {
		t.Fatalf("expected OK: %s", res.Summary())
	}
	stored := reg.Counter(obs.Labels("checker_states_stored_total", "phase", "safety-dfs")).Value()
	if stored != int64(res.Stats.StatesStored) {
		t.Errorf("metric states stored = %d, want %d", stored, res.Stats.StatesStored)
	}
	trans := reg.Counter(obs.Labels("checker_transitions_total", "phase", "safety-dfs")).Value()
	if trans != int64(res.Stats.Transitions) {
		t.Errorf("metric transitions = %d, want %d", trans, res.Stats.Transitions)
	}
	if reg.Gauge("checker_heap_alloc_bytes").Value() == 0 {
		t.Error("heap gauge not set")
	}
}

func TestProgressLTLPhase(t *testing.T) {
	s := sysFromSource(t, progressSource)
	props, err := PropsFromSource(s.Prog, map[string]string{"done": "a == 5"})
	if err != nil {
		t.Fatal(err)
	}
	var phases []string
	res := New(s, Options{
		Progress:         func(p Progress) { phases = append(phases, p.Phase) },
		ProgressInterval: time.Nanosecond,
	}).CheckLTL("<> done", props)
	if !res.OK {
		t.Fatalf("expected <>done to hold: %s", res.Summary())
	}
	if len(phases) == 0 || phases[0] != "liveness-ndfs" {
		t.Errorf("phases = %v, want liveness-ndfs", phases)
	}
}

func TestSummaryIncludesElapsedAndReduced(t *testing.T) {
	r := &Result{OK: true}
	r.Stats.StatesStored = 10
	r.Stats.Transitions = 20
	r.Stats.MaxDepth = 5
	if strings.Contains(r.Summary(), " in ") {
		t.Errorf("zero elapsed should not be printed: %q", r.Summary())
	}
	r.Stats.Elapsed = 1500 * time.Microsecond
	r.Stats.Reduced = 3
	s := r.Summary()
	if !strings.Contains(s, "3 reduced") {
		t.Errorf("Summary missing reduced count: %q", s)
	}
	if !strings.Contains(s, " in 2ms") {
		t.Errorf("Summary missing elapsed: %q", s)
	}
	// Sub-millisecond runs surface microseconds instead of "0s".
	r.Stats.Elapsed = 250 * time.Microsecond
	if !strings.Contains(r.Summary(), "µs") {
		t.Errorf("sub-ms elapsed collapsed: %q", r.Summary())
	}
	// Failures carry elapsed too.
	f := &Result{Kind: Assertion, Message: "assertion violated"}
	f.Stats.Elapsed = 2 * time.Millisecond
	if !strings.Contains(f.Summary(), " in 2ms") {
		t.Errorf("failure Summary missing elapsed: %q", f.Summary())
	}
}
