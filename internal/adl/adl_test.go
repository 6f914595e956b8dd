package adl

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pnp/internal/blocks"
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
		Dir: dir, Key: "design",
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
	cache := blocks.NewCache()
	if _, err := Load(pingSystem, resolver(map[string]string{"ping.pml": pingPml}), cache); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(async, resolver(map[string]string{"ping.pml": pingPml}), cache); err != nil {
		t.Fatal(err)
	}
	hits, misses := cache.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d/%d; the component models should be reused", hits, misses)
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
