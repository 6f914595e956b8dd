package adl

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pnp/internal/artifact"
	"pnp/internal/checker"
)

const pingPml = `
byte hits;
proctype Ping(chan esig; chan edat) {
	mtype st;
	edat!1,0,0,0,1;
	esig?st,_;
	hits = hits + 1
}
proctype Pong(chan rsig; chan rdat) {
	mtype st;
	byte d, sid, sd;
	bit sel, rem;
	rdat!0,0,0,0,1;
	rsig?st,_;
	rdat?d,sid,sd,sel,rem;
	hits = hits + 1
}
`

func resolver(files map[string]string) Resolver {
	return func(path string) (string, error) {
		if text, ok := files[path]; ok {
			return text, nil
		}
		return "", fmt.Errorf("no such file %q", path)
	}
}

const pingSystem = `
system pingpong {
    components "ping.pml"

    connector Wire {
        send    syn-blocking
        channel single-slot
        receive blocking
    }

    instance p = Ping(send Wire)
    instance q = Pong(recv Wire)

    invariant bounded "hits <= 2"
}
`

func TestLoadAndVerify(t *testing.T) {
	sys, err := Load(pingSystem, resolver(map[string]string{"ping.pml": pingPml}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name != "pingpong" {
		t.Errorf("Name = %q", sys.Name)
	}
	if len(sys.Connectors) != 1 || len(sys.Invariants) != 1 {
		t.Fatalf("connectors=%d invariants=%d", len(sys.Connectors), len(sys.Invariants))
	}
	results := sys.VerifyAll(checker.Options{})
	res := results["safety"]
	if res == nil || !res.OK {
		t.Fatalf("safety = %v", res.Summary())
	}
}

// One submission carries several searchable properties, so VerifyAll
// suffixes the caller's checkpoint key per property: the safety search
// snapshots to CheckpointFileName(key+"-safety"), the file a resumed
// run (and verifyd's GET /v1/checkpoints/{key}) looks for.
func TestVerifyAllCheckpointsPerProperty(t *testing.T) {
	sys, err := Load(pingSystem, resolver(map[string]string{"ping.pml": pingPml}), nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	want := filepath.Join(dir, checker.CheckpointFileName("design-safety"))
	wrote := false
	res := sys.VerifyAll(checker.Options{Workers: 1, Durability: &checker.DurabilityOptions{
		Dir: dir, Key: "design", Interval: 1,
		OnWrite: func(file string, depth, states int) {
			if file != want {
				t.Errorf("checkpoint written to %s, want %s", file, want)
			}
			if _, err := os.Stat(want); err != nil {
				t.Errorf("checkpoint not on disk: %v", err)
			}
			wrote = true
		},
	}})["safety"]
	if !res.OK {
		t.Fatalf("safety = %s", res.Summary())
	}
	if !wrote {
		t.Fatal("the safety search never checkpointed")
	}
}

func TestLoadDetectsInvariantViolation(t *testing.T) {
	src := strings.Replace(pingSystem, `"hits <= 2"`, `"hits <= 1"`, 1)
	sys, err := Load(src, resolver(map[string]string{"ping.pml": pingPml}), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.VerifyAll(checker.Options{})["safety"]
	if res.OK || res.Kind != checker.InvariantViolation {
		t.Fatalf("expected invariant violation, got %s", res.Summary())
	}
}

func TestPortSwapIsOneTokenEdit(t *testing.T) {
	// The plug-and-play property at the ADL level: replacing syn-blocking
	// with asyn-blocking changes only the connector, and verification
	// re-runs against unchanged components.
	async := strings.Replace(pingSystem, "syn-blocking", "asyn-blocking", 1)
	store := artifact.NewMemoryStore()
	first, err := Load(pingSystem, resolver(map[string]string{"ping.pml": pingPml}), store)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Load(async, resolver(map[string]string{"ping.pml": pingPml}), store)
	if err != nil {
		t.Fatal(err)
	}
	if first.Builder.Program() != second.Builder.Program() {
		t.Error("the port swap recompiled the program; the component models should be reused")
	}
}

func TestInstanceCount(t *testing.T) {
	src := `
system multi {
    components "ping.pml"
    connector Wire {
        send    asyn-blocking
        channel fifo(4)
        receive blocking
    }
    instance p*3 = Ping(send Wire)
}
`
	sys, err := Load(src, resolver(map[string]string{"ping.pml": pingPml}), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 3 Pings + 3 send ports + 1 channel = 7 instances.
	if n := sys.Builder.System().NumInstances(); n != 7 {
		t.Errorf("NumInstances = %d, want 7", n)
	}
}

func TestLTLDeclaration(t *testing.T) {
	src := `
system live {
    components "ping.pml"
    connector Wire {
        send    syn-blocking
        channel single-slot
        receive blocking
    }
    instance p = Ping(send Wire)
    instance q = Pong(recv Wire)
    ltl both "[] bounded" { bounded = "hits <= 2" }
}
`
	sys, err := Load(src, resolver(map[string]string{"ping.pml": pingPml}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.LTL) != 1 || sys.LTL[0].Name != "both" {
		t.Fatalf("LTL = %+v", sys.LTL)
	}
	res := sys.VerifyAll(checker.Options{})["both"]
	if !res.OK {
		t.Fatalf("[]bounded should hold: %s\n%s", res.Summary(), res.Trace)
	}
	// Completion (hits==2) is reachable even though <>done fails without
	// fairness (the blocking receive port may busy-retry forever).
	target, err := sys.Builder.Program().CompileGlobalExpr("hits == 2")
	if err != nil {
		t.Fatal(err)
	}
	reach := checker.New(sys.Builder.System(), checker.Options{}).CheckReachable(target)
	if !reach.OK {
		t.Fatalf("hits==2 unreachable: %s", reach.Summary())
	}
}

func TestGoalDeclaration(t *testing.T) {
	src := `
system goals {
    components "ping.pml"
    connector Wire { send syn-blocking channel single-slot receive blocking }
    instance p = Ping(send Wire)
    instance q = Pong(recv Wire)
    goal completes "hits == 2"
}
`
	sys, err := Load(src, resolver(map[string]string{"ping.pml": pingPml}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Goals) != 1 || sys.Goals[0].Name != "completes" {
		t.Fatalf("Goals = %+v", sys.Goals)
	}
	res := sys.VerifyAll(checker.Options{})["completes"]
	if !res.OK {
		t.Fatalf("goal should hold: %s", res.Summary())
	}

	// A dropping channel makes completion unreachable after a drop.
	lossy := strings.Replace(src, "single-slot", "dropping(1)", 1)
	lossy = strings.Replace(lossy, "syn-blocking", "asyn-blocking", 1)
	sys2, err := Load(lossy, resolver(map[string]string{"ping.pml": pingPml}), nil)
	if err != nil {
		t.Fatal(err)
	}
	res2 := sys2.VerifyAll(checker.Options{})["completes"]
	_ = res2 // one message + size-1 buffer never drops; just exercise the path
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		src     string
		wantSub string
	}{
		{"", `expected "system"`},
		{"system x {", "unexpected end of file"},
		{"system x { banana }", "unknown declaration"},
		{`system x { connector C { send nope } }`, "unknown send port kind"},
		{`system x { connector C { channel warp } }`, "unknown channel kind"},
		{`system x { connector C { receive maybe } }`, "unknown receive port kind"},
		{`system x { instance a = P(send Nowhere) }`, "unknown connector"},
		{`system x { instance a = P(banana) }`, "expected argument"},
		{`system x { components "missing.pml" }`, `loading "missing.pml"`},
		{`system x { invariant i "1 +" }`, ""},
	}
	for _, tt := range tests {
		_, err := Load(tt.src, resolver(nil), nil)
		if err == nil {
			t.Errorf("Load(%q): expected error", tt.src)
			continue
		}
		if tt.wantSub != "" && !strings.Contains(err.Error(), tt.wantSub) {
			t.Errorf("Load(%q) error = %v, want substring %q", tt.src, err, tt.wantSub)
		}
	}
}

func TestUnknownProctypeRejected(t *testing.T) {
	src := `
system x {
    components "ping.pml"
    connector Wire { send syn-blocking channel single-slot receive blocking }
    instance a = NoSuchProc(send Wire)
}
`
	_, err := Load(src, resolver(map[string]string{"ping.pml": pingPml}), nil)
	if err == nil || !strings.Contains(err.Error(), "NoSuchProc") {
		t.Errorf("err = %v", err)
	}
}

func TestCommentsIgnored(t *testing.T) {
	src := `
system c {
    // a line comment
    # a hash comment
    components "ping.pml"
    connector Wire { send syn-blocking channel single-slot receive blocking }
    instance p = Ping(send Wire)
    instance q = Pong(recv Wire)
}
`
	if _, err := Load(src, resolver(map[string]string{"ping.pml": pingPml}), nil); err != nil {
		t.Fatal(err)
	}
}

// loadExample loads examples/adl/name with decls added to its system
// block, resolving component files next to it.
func loadExample(t *testing.T, name, decls string) *System {
	t.Helper()
	dir := filepath.Join("..", "..", "examples", "adl")
	read := func(path string) (string, error) {
		b, err := os.ReadFile(filepath.Join(dir, path))
		return string(b), err
	}
	src, err := read(name)
	if err != nil {
		t.Fatal(err)
	}
	i := strings.LastIndex(src, "}")
	sys, err := Load(src[:i]+decls+src[i:], read, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestBridgeExampleUnreached pins the never-executed transitions of
// examples/adl/bridge.pnp to the list the sequential DFS that used to
// implement ReportUnreached printed (at 8da67dd), one per line in
// testdata/bridge-unreached.golden: the level engine executes the same
// edges at every worker count.
func TestBridgeExampleUnreached(t *testing.T) {
	if testing.Short() {
		t.Skip("two exhaustive bridge searches are too slow for -short")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "bridge-unreached.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSuffix(string(golden), "\n")
	for _, w := range []int{0, 2} {
		res := loadExample(t, "bridge.pnp", "").VerifyAll(checker.Options{ReportUnreached: true, Workers: w})["safety"]
		if !res.OK {
			t.Fatalf("workers=%d: %s", w, res.Summary())
		}
		if got := strings.Join(res.Unreached, "\n"); got != want {
			t.Errorf("workers=%d: unreached differs from the golden list:\n%s", w, got)
		}
	}
}

// TestBridgeExampleLiveness pins E9's liveness results on
// examples/adl/bridge.pnp, as the liveness engine gave them before its
// product moved onto the level engine's state table (at 57cfd0c): the
// LTL phrasing of the bridge's safety claim, and a property that fails
// with and without weak fairness, with its counterexample's lengths.
func TestBridgeExampleLiveness(t *testing.T) {
	sys := loadExample(t, "bridge.pnp", `
    ltl no_crash "[] !both" { both = "blueOn > 0 && redOn > 0" }
    ltl red_enters "<> red" { red = "redOn > 0" }
`)
	type want struct {
		ok                                  bool
		stored, matched, transitions, depth int
		prefix, cycle                       int
	}
	for _, tc := range []struct {
		prop string
		opts checker.Options
		want want
	}{
		{"no_crash", checker.Options{}, want{true, 183_506, 159_441, 342_946, 207, 0, 0}},
		{"red_enters", checker.Options{}, want{false, 25_086, 24_094, 49_818, 90, 5, 3}},
		{"red_enters", checker.Options{WeakFairness: true}, want{false, 25_086, 24_094, 49_818, 90, 17, 7}},
		{"red_enters", checker.Options{StrongFairness: true}, want{true, 25_086, 24_094, 49_818, 90, 0, 0}},
	} {
		if tc.prop == "no_crash" && testing.Short() {
			continue
		}
		res := sys.Check(PropertySource{Kind: "ltl", Name: tc.prop}, tc.opts)
		st := res.Stats
		got := want{res.OK, st.StatesStored, st.StatesMatched, st.Transitions, st.MaxDepth, 0, 0}
		if res.Trace != nil {
			got.prefix, got.cycle = len(res.Trace.Prefix), len(res.Trace.Cycle)
		}
		if !res.OK && res.Kind != checker.AcceptanceCycle {
			t.Errorf("%s %+v: %s", tc.prop, tc.opts, res.Summary())
		}
		if got != tc.want {
			t.Errorf("%s weak=%v strong=%v: got %+v, want %+v", tc.prop, tc.opts.WeakFairness, tc.opts.StrongFairness, got, tc.want)
		}
	}
}

// TestPingpongExampleDOT compares pnpverify -dot's drawing of
// examples/adl/pingpong.pnp with testdata/pingpong.dot.golden, the bytes
// WriteDOT wrote before its graph moved onto the level engine's state
// table (at 57cfd0c).
func TestPingpongExampleDOT(t *testing.T) {
	sys := loadExample(t, "pingpong.pnp", "")
	var got strings.Builder
	if err := checker.New(sys.Builder.System(), checker.Options{Invariants: sys.Invariants}).WriteDOT(&got, 500); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "pingpong.dot.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("WriteDOT differs from testdata/pingpong.dot.golden:\n%s", got.String())
	}
}
