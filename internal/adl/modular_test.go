package adl

import (
	"strings"
	"sync"
	"testing"

	"pnp/internal/artifact"
	"pnp/internal/checker"
)

// twoWireSystem has two distinct connectors so a one-connector edit
// leaves a sibling module to reuse.
const twoWireSystem = `
system twowire {
    components "ping.pml"

    connector Wire {
        send    syn-blocking
        channel single-slot
        receive blocking
    }
    connector Back {
        send    asyn-blocking
        channel fifo(2)
        receive blocking
    }

    instance p = Ping(send Wire)
    instance q = Pong(recv Wire)

    invariant bounded "hits <= 2"
}
`

func newTestStore(t *testing.T) *artifact.Store {
	t.Helper()
	s, err := artifact.NewStore(64, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLoadNilStore: a nil store loads through a fresh memory-only one
// and still reports the design's module DAG — library, component,
// program, then the connectors — all compiled.
func TestLoadNilStore(t *testing.T) {
	sys, err := Load(twoWireSystem, resolver(map[string]string{"ping.pml": pingPml}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sys.ModulesCompiled != 5 || sys.ModulesReused != 0 {
		t.Fatalf("cold load: compiled=%d reused=%d, want all 5 compiled", sys.ModulesCompiled, sys.ModulesReused)
	}
	kinds := []string{artifact.KindLibrary, artifact.KindComponent, artifact.KindProgram,
		artifact.KindConnector, artifact.KindConnector}
	if len(sys.Modules) != len(kinds) {
		t.Fatalf("modules = %d, want %d:\n%+v", len(sys.Modules), len(kinds), sys.Modules)
	}
	for i, m := range sys.Modules {
		if m.Kind != kinds[i] {
			t.Errorf("module %d kind = %s, want %s", i, m.Kind, kinds[i])
		}
	}
	if res := sys.VerifyAll(checker.Options{})["safety"]; !res.OK {
		t.Fatalf("safety: %s", res.Summary())
	}
}

// TestLoadConcurrentCompilesOnce: concurrent loads of one design on one
// store compile its program once — one program-module miss — and share
// one *pml.Compiled.
func TestLoadConcurrentCompilesOnce(t *testing.T) {
	store := newTestStore(t)
	const loads = 16
	systems := make([]*System, loads)
	var wg sync.WaitGroup
	for i := range systems {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sys, err := Load(twoWireSystem, resolver(map[string]string{"ping.pml": pingPml}), store)
			if err != nil {
				t.Error(err)
				return
			}
			systems[i] = sys
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	misses := 0
	for _, sys := range systems {
		if sys.Builder.Program() != systems[0].Builder.Program() {
			t.Fatal("concurrent loads of one program hold different *pml.Compiled")
		}
		for _, m := range sys.Modules {
			if m.Kind == artifact.KindProgram && !m.Reused {
				misses++
			}
		}
	}
	if misses != 1 {
		t.Fatalf("%d loads compiled the program, want 1", misses)
	}
}

// TestLoadModularOneConnectorEdit is the PR's headline path: editing one
// connector recompiles exactly that module, reusing library, component,
// program, and the untouched sibling connector.
func TestLoadModularOneConnectorEdit(t *testing.T) {
	files := map[string]string{"ping.pml": pingPml}
	store := newTestStore(t)
	base, err := Load(twoWireSystem, resolver(files), store)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(twoWireSystem, "channel fifo(2)", "channel fifo(3)", 1)
	if edited == twoWireSystem {
		t.Fatal("edit did not apply")
	}
	sys, err := Load(edited, resolver(files), store)
	if err != nil {
		t.Fatal(err)
	}
	total := len(sys.Modules)
	if total != 5 || sys.ModulesReused != total-1 || sys.ModulesCompiled != 1 {
		t.Fatalf("one-connector edit: total=%d reused=%d compiled=%d, want %d reused and 1 compiled",
			total, sys.ModulesReused, sys.ModulesCompiled, total-1)
	}
	// The one fresh module is the edited connector; everything else kept
	// its content address.
	for i, m := range sys.Modules {
		wantReused := m.Name != "Back"
		if m.Reused != wantReused {
			t.Errorf("module %d (%s %s): reused=%v, want %v", i, m.Kind, m.Name, m.Reused, wantReused)
		}
		if m.Name != "Back" && m.Hash != base.Modules[i].Hash {
			t.Errorf("module %d (%s) changed address without changing content", i, m.Name)
		}
	}
	// An unchanged resubmission reuses everything.
	again, err := Load(edited, resolver(files), store)
	if err != nil {
		t.Fatal(err)
	}
	if again.ModulesReused != total || again.ModulesCompiled != 0 {
		t.Fatalf("identical resubmission: reused=%d compiled=%d, want full reuse",
			again.ModulesReused, again.ModulesCompiled)
	}
}

// TestLoadModularComponentEditRecompilesProgram: editing a component
// changes its module and, transitively, the program module — but the
// connectors depend on the program by fingerprint, so they change too.
// Only the library survives a component edit.
func TestLoadModularComponentEdit(t *testing.T) {
	store := newTestStore(t)
	if _, err := Load(twoWireSystem, resolver(map[string]string{"ping.pml": pingPml}), store); err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(pingPml, "hits <= 2", "hits <= 2", 1) + "\n"
	sys, err := Load(twoWireSystem, resolver(map[string]string{"ping.pml": edited}), store)
	if err != nil {
		t.Fatal(err)
	}
	if sys.ModulesReused != 1 || sys.Modules[0].Kind != artifact.KindLibrary || !sys.Modules[0].Reused {
		t.Fatalf("component edit must reuse exactly the library: %+v", sys.Modules)
	}
}
