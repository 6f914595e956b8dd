package artifact

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pnp/internal/model"
)

func mkArtifact(kind, name, source string, deps ...model.ModuleFingerprint) *Artifact {
	return &Artifact{
		Ref: Ref{
			Hash: model.FingerprintModule(kind, deps, source),
			Kind: kind,
			Name: name,
			Deps: deps,
		},
		Source: source,
	}
}

func TestStoreHitMissAccounting(t *testing.T) {
	s, err := NewStore(8, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	a := mkArtifact(KindComponent, "c.pml", "proctype C() { skip }")
	if _, ok := s.Get(a.Hash); ok {
		t.Fatal("empty store cannot hit")
	}
	s.Put(a)
	got, ok := s.Get(a.Hash)
	if !ok || got.Source != a.Source {
		t.Fatalf("Get after Put = (%v, %v)", got, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
}

// TestStoreLRUEviction fills the store past its bound and checks the
// least recently used artifact is the one dropped.
func TestStoreLRUEviction(t *testing.T) {
	s, err := NewStore(2, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	a := mkArtifact(KindComponent, "a", "src a")
	b := mkArtifact(KindComponent, "b", "src b")
	c := mkArtifact(KindComponent, "c", "src c")
	s.Put(a)
	s.Put(b)
	s.Get(a.Hash) // a is now most recently used; b is the LRU
	s.Put(c)      // evicts b
	if _, ok := s.Get(b.Hash); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := s.Get(a.Hash); !ok {
		t.Fatal("a was recently used and must survive")
	}
	if st := s.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction at 2 entries", st)
	}
}

// TestStoreDiskRoundTrip exercises the disk tier: an artifact put by one
// store is visible (payload-less, counted as a hit) to a second store
// over the same directory — the restart path.
func TestStoreDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewStore(8, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	dep := mkArtifact(KindLibrary, "library", "lib src")
	a := mkArtifact(KindProgram, "prog", "prog src", dep.Hash)
	a.Payload = "live payload"
	s1.Put(a)

	s2, err := NewStore(8, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(a.Hash)
	if !ok {
		t.Fatal("disk tier must serve the envelope after a restart")
	}
	if got.Payload != nil {
		t.Fatal("payloads are process-local and must not survive disk")
	}
	if got.Source != a.Source || got.Kind != KindProgram || len(got.Deps) != 1 || got.Deps[0] != dep.Hash {
		t.Fatalf("envelope round-trip mangled the artifact: %+v", got)
	}
	if st := s2.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("disk fallthrough must count as a hit: %+v", st)
	}

	// Build reattaches a live payload to the envelope, once.
	builds := 0
	build := func() (any, error) { builds++; return 42, nil }
	for i := 0; i < 2; i++ {
		p, reused, err := s2.Build(a.Ref, a.Source, build)
		if err != nil || p != 42 || !reused {
			t.Fatalf("Build %d = (%v, %v, %v), want (42, true, nil)", i, p, reused, err)
		}
	}
	if builds != 1 {
		t.Fatalf("the envelope was built %d times, want once", builds)
	}
}

// TestStoreRejectsCorruptEnvelope hand-edits a disk envelope; the load
// must verify content against the fingerprint and refuse it.
func TestStoreRejectsCorruptEnvelope(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(1, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := mkArtifact(KindComponent, "a", "honest source")
	s.Put(a)
	// Evict the memory copy so the next Get goes to disk.
	s.Put(mkArtifact(KindComponent, "b", "filler"))

	path := filepath.Join(dir, a.Hash.String()+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]any
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	env["source"] = "tampered source"
	b, _ = json.Marshal(env)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(a.Hash); ok {
		t.Fatal("a tampered envelope must not be trusted")
	}
}

// TestStorePeek checks the wire form and that peeking is accounting-free.
func TestStorePeek(t *testing.T) {
	s, err := NewStore(8, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	a := mkArtifact(KindConnector, "Wire", "send=syn-blocking;channel=fifo(2);recv=blocking")
	s.Put(a)
	raw, ok := s.Peek(a.Hash)
	if !ok {
		t.Fatal("Peek must find a stored artifact")
	}
	var env struct {
		Hash   string `json:"hash"`
		Kind   string `json:"kind"`
		Name   string `json:"name"`
		Source string `json:"source"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("Peek body is not JSON: %v", err)
	}
	if env.Hash != a.Hash.String() || env.Kind != KindConnector || env.Source != a.Source {
		t.Fatalf("Peek envelope = %+v", env)
	}
	if _, ok := s.Peek(model.FingerprintModule(KindConnector, nil, "absent")); ok {
		t.Fatal("Peek of an absent hash must miss")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek must not touch hit/miss accounting: %+v", st)
	}
}

// TestStoreConcurrent hammers one store from many goroutines; run with
// -race this is the locking test.
func TestStoreConcurrent(t *testing.T) {
	s, err := NewStore(16, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a := mkArtifact(KindComponent, "c", fmt.Sprintf("source %d", i%20))
				s.Put(a)
				s.Get(a.Hash)
				s.Build(a.Ref, a.Source, func() (any, error) { return g, nil })
				s.Peek(a.Hash)
				s.Stats()
			}
		}(g)
	}
	wg.Wait()
	if s.Len() == 0 {
		t.Fatal("store emptied itself")
	}
}

func TestParseHash(t *testing.T) {
	h := model.FingerprintModule(KindLibrary, nil, "x")
	got, err := ParseHash(h.String())
	if err != nil || got != h {
		t.Fatalf("ParseHash round-trip = (%v, %v)", got, err)
	}
	for _, bad := range []string{"", "zz", "../../etc/passwd", h.String()[:10], h.String() + "00"} {
		if _, err := ParseHash(bad); err == nil {
			t.Errorf("ParseHash(%q) must fail", bad)
		}
	}
}
