package verifyd

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"pnp/internal/adl"
	"pnp/internal/blocks"
	"pnp/internal/checker"
)

// CacheKey content-addresses one (compiled model, property, options)
// verification task: equal keys mean the checker would explore the same
// state space for the same property under the same search options, so
// the verdict can be reused.
type CacheKey [sha256.Size]byte

// String renders the key as hex (for logs and debug endpoints).
func (k CacheKey) String() string { return hex.EncodeToString(k[:]) }

// ModelHash digests the composed system: the full pml source the program
// was compiled from (compilation is deterministic, so source text is a
// faithful address of the compiled program) plus the structural
// fingerprint of the instantiated model — channels, process instances,
// and their bindings. Swapping a single port kind in the ADL changes the
// spawned block proctypes and therefore the hash; re-submitting an
// unchanged design does not.
func ModelHash(b *blocks.Builder) [sha256.Size]byte {
	h := sha256.New()
	io.WriteString(h, b.Source())
	h.Write([]byte{0})
	b.System().WriteFingerprint(h)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// OptionsKey canonicalizes the verdict-relevant checker options into a
// stable string. Callback and plumbing fields (Progress, Metrics,
// Context) do not influence verdicts and are excluded; Invariants are
// covered by the property's own source text. Workers is normalized to
// the engine it selects ("par"), not the count: the level engine's
// verdicts and stats are identical at every worker count, and hashing
// the dynamically granted count would fragment the cache for no reason.
// BFS is hashed only when no worker is granted: the level engine runs
// every parallel safety search whatever BFS says, and goal and LTL
// searches ignore it, so bfs=true;par=true is the same search as the
// default and shares its key. (The property cache is memory-only; the
// durable journal and the coordinator address whole submissions by
// Submission.Key, which still hashes the bfs override as sent.)
// Storage.Visited, Storage.MemLimit, and Storage.SpillDir are likewise
// excluded: visited-set storage (exact, collapse-compressed, or
// disk-spilled) trades memory for time without ever changing
// membership, so every storage mode computes the same verdict and
// shares one cache entry. Bitstate is included — it genuinely changes
// coverage. Durability never influences verdicts and is excluded.
func OptionsKey(o checker.Options) string {
	par := o.Workers >= 1 && !o.PartialOrder && !o.ReportUnreached
	return fmt.Sprintf("ms=%d;md=%d;bfs=%t;id=%t;ru=%t;po=%t;wf=%t;sf=%t;bs=%t;bb=%d;par=%t",
		o.MaxStates, o.MaxDepth, o.BFS && !par, o.IgnoreDeadlock, o.ReportUnreached,
		o.PartialOrder, o.WeakFairness, o.StrongFairness, o.Storage.Bitstate, o.Storage.BitstateBits, par)
}

// Submission is the wire-visible content of one job submission that
// determines its verdict: the ADL source, the inlined components, and
// the verdict-relevant search-shape overrides, exactly as they appear
// in the POST /v1/jobs envelope. Workers and timeout are deliberately
// absent — they change how fast a verdict is computed, never what it
// is — so resubmitting with a different worker cap still hits.
//
// Its Key content-addresses whole job reports the way CacheKey
// addresses single property verdicts. The cluster coordinator hashes
// its routing ring and its cluster-wide result cache on it, and GET
// /v1/cache/{key} on a worker answers by it; both sides compute the key
// from the wire fields alone — before any server-side defaulting — so
// they always agree.
type Submission struct {
	ADL        string
	Components map[string]string

	MaxStates      *int
	MaxDepth       *int
	BFS            *bool
	IgnoreDeadlock *bool
	PartialOrder   *bool
	WeakFairness   *bool
	StrongFairness *bool
}

// Key digests the submission into its content address.
func (s Submission) Key() CacheKey {
	h := sha256.New()
	io.WriteString(h, s.ADL)
	h.Write([]byte{0})
	names := make([]string, 0, len(s.Components))
	for name := range s.Components {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		io.WriteString(h, name+"\x00"+s.Components[name]+"\x00")
	}
	opt := func(tag string, v any) {
		// Absent overrides hash differently from explicit zero values:
		// "max_states absent" means "the server's default", which need
		// not be zero.
		io.WriteString(h, tag+"=")
		switch p := v.(type) {
		case *int:
			if p != nil {
				fmt.Fprintf(h, "%d", *p)
			}
		case *bool:
			if p != nil {
				fmt.Fprintf(h, "%t", *p)
			}
		}
		h.Write([]byte{0})
	}
	opt("ms", s.MaxStates)
	opt("md", s.MaxDepth)
	opt("bfs", s.BFS)
	opt("id", s.IgnoreDeadlock)
	opt("po", s.PartialOrder)
	opt("wf", s.WeakFairness)
	opt("sf", s.StrongFairness)
	var out CacheKey
	h.Sum(out[:0])
	return out
}

// Key combines a model hash, one property's canonical source, the
// canonicalized options, and the system's fault plan into the
// result-cache key. The fault plan joins the key even though today's
// checker explores the lossy adversary structurally (via the model
// hash): a design resubmitted with a different `faults` block is a
// different verification task, and its cached verdict must not be
// served for another plan. faultsCanon is faults.Plan.Canonical() —
// empty for a system with no fault plan.
func Key(model [sha256.Size]byte, prop adl.PropertySource, opts checker.Options, faultsCanon string) CacheKey {
	h := sha256.New()
	h.Write(model[:])
	io.WriteString(h, "\x00"+prop.Kind+"\x00"+prop.Name+"\x00"+prop.Text+"\x00")
	io.WriteString(h, OptionsKey(opts))
	io.WriteString(h, "\x00"+faultsCanon)
	var out CacheKey
	h.Sum(out[:0])
	return out
}

// parseCacheKey decodes and validates a hex submission key for both of
// its callers: journal replay, which reads keys back from records, and
// the HTTP cache peek, which answers 400 unless the untrusted {key} path
// value of GET /v1/cache/{key} is exactly 64 hex characters.
func parseCacheKey(hexKey string) (CacheKey, bool) {
	var key CacheKey
	b, err := hex.DecodeString(hexKey)
	if err != nil || len(b) != sha256.Size {
		return key, false
	}
	copy(key[:], b)
	return key, true
}
