package verifyd

import (
	"testing"

	"pnp/internal/checker"
)

// TestOptionsKeyPinsStorage pins the key the Storage group hashes to —
// the string both option spellings produced before the flat aliases
// were deleted — so verdicts cached under either keep hitting.
func TestOptionsKeyPinsStorage(t *testing.T) {
	got := OptionsKey(checker.Options{
		MaxStates: 1000, MaxDepth: 50, BFS: true,
		Storage: checker.StorageOptions{
			Bitstate: true, BitstateBits: 24,
			Visited: checker.VisitedCollapse, MemLimit: 1 << 20,
		},
	})
	want := "ms=1000;md=50;bfs=true;id=false;ru=false;po=false;wf=false;sf=false;bs=true;bb=24;par=false"
	if got != want {
		t.Fatalf("OptionsKey moved:\n  got  %s\n  want %s", got, want)
	}
}

// TestOptionsKeyFormatStable pins the key's literal format: changing it
// silently invalidates every durable cached verdict.
func TestOptionsKeyFormatStable(t *testing.T) {
	got := OptionsKey(checker.Options{MaxStates: 10, Workers: 2})
	want := "ms=10;md=0;bfs=false;id=false;ru=false;po=false;wf=false;sf=false;bs=false;bb=0;par=true"
	if got != want {
		t.Fatalf("OptionsKey format drifted:\n  got  %s\n  want %s", got, want)
	}
}

// TestOptionsKeyExcludesStorageMode: visited-set storage trades memory
// for time without changing membership, so exact, collapse, and spilled
// searches must share one cache entry; bitstate genuinely changes
// coverage and must not.
func TestOptionsKeyExcludesStorageMode(t *testing.T) {
	base := OptionsKey(checker.Options{MaxStates: 10})
	collapse := OptionsKey(checker.Options{MaxStates: 10,
		Storage: checker.StorageOptions{Visited: checker.VisitedCollapse, MemLimit: 1 << 20}})
	if base != collapse {
		t.Fatal("storage mode must not influence the options key")
	}
	bitstate := OptionsKey(checker.Options{MaxStates: 10,
		Storage: checker.StorageOptions{Bitstate: true, BitstateBits: 20}})
	if base == bitstate {
		t.Fatal("bitstate changes coverage and must change the key")
	}
}
