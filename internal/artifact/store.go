package artifact

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pnp/internal/api"
	"pnp/internal/lru"
	"pnp/internal/model"
	"pnp/internal/obs"
)

// Store is a bounded, content-addressed LRU of compiled module
// artifacts, safe for concurrent use. With a disk directory attached,
// every Put also writes a canonical-source envelope file, and a memory
// miss falls through to disk — so module identity (and the decision of
// what to recompile) survives eviction and restarts even though live
// payloads do not.
type Store struct {
	mem *lru.Cache[model.ModuleFingerprint, *Artifact]
	dir string // "" = memory only
}

// Stats is a point-in-time snapshot of store effectiveness.
type Stats = lru.Stats

// NewStore creates a store bounded to maxEntries artifacts (<= 0
// selects the default of 1024). dir, when non-empty, is created and
// used as the disk tier; a nil registry is fine.
func NewStore(maxEntries int, dir string, reg *obs.Registry) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("artifact: %w", err)
		}
	}
	return &Store{
		mem: lru.New[model.ModuleFingerprint, *Artifact](maxEntries, lru.Metrics{
			Hits:      reg.Counter("artifact_store_hits_total"),
			Misses:    reg.Counter("artifact_store_misses_total"),
			Evictions: reg.Counter("artifact_store_evictions_total"),
			Entries:   reg.Gauge("artifact_store_entries"),
		}),
		dir: dir,
	}, nil
}

// Get looks an artifact up by fingerprint, marking it most recently
// used on a memory hit. On a memory miss with a disk tier attached, the
// envelope is loaded back into the LRU (payload nil) and counts as a
// hit — the module's identity and source were reused even though its
// payload needs reattaching.
func (s *Store) Get(h model.ModuleFingerprint) (*Artifact, bool) {
	// Peek first, so a disk reload is accounted as the one hit it is
	// rather than a memory miss followed by a hit.
	if _, ok := s.mem.Peek(h); !ok {
		if art := s.diskLoad(h); art != nil {
			s.mem.Put(h, art)
		}
	}
	return s.mem.Get(h)
}

// Put stores an artifact, evicting the least recently used entry past
// the bound and mirroring the envelope to disk when a tier is attached.
// Storing an existing fingerprint refreshes its payload and recency.
// Eviction drops only the in-memory copy; the disk envelope stays.
func (s *Store) Put(art *Artifact) {
	_, known := s.mem.Peek(art.Hash)
	s.mem.Put(art.Hash, art)
	if !known {
		s.diskWrite(art)
	}
}

// Attach reattaches a live payload to an already-stored artifact — the
// step after a disk or wire hit hands back an envelope and the caller
// recompiles its canonical source. A no-op for unknown fingerprints.
// The stored artifact is replaced, not mutated: readers holding the
// envelope keep a consistent value.
func (s *Store) Attach(h model.ModuleFingerprint, payload any) {
	if art, ok := s.mem.Peek(h); ok {
		live := *art
		live.Payload = payload
		s.mem.Put(h, &live)
	}
}

// Peek answers a wire lookup: the artifact's envelope JSON, from memory
// or disk, without touching hit/miss accounting — mirroring how result
// cache peeks are free reads for the peer, not local cache traffic.
func (s *Store) Peek(h model.ModuleFingerprint) ([]byte, bool) {
	art, ok := s.mem.Peek(h)
	if !ok {
		if art = s.diskLoad(h); art == nil {
			return nil, false
		}
	}
	b, err := json.Marshal(envelopeOf(art))
	if err != nil {
		return nil, false
	}
	return b, true
}

// envelopeOf is the disk and wire form of one artifact: everything but
// the live payload.
func envelopeOf(art *Artifact) api.Artifact {
	env := api.Artifact{Hash: art.Hash.String(), Kind: art.Kind, Name: art.Name, Source: art.Source}
	for _, d := range art.Deps {
		env.Deps = append(env.Deps, d.String())
	}
	return env
}

// path places one envelope file. Fingerprints are hex, so the file name
// needs no escaping.
func (s *Store) path(h model.ModuleFingerprint) string {
	return filepath.Join(s.dir, h.String()+".json")
}

// diskWrite mirrors an artifact's envelope to the disk tier
// (best-effort: the store is a cache, and a failed write only costs a
// future recompile). The write is atomic via rename so a crash never
// leaves a torn envelope.
func (s *Store) diskWrite(art *Artifact) {
	if s.dir == "" {
		return
	}
	b, err := json.Marshal(envelopeOf(art))
	if err != nil {
		return
	}
	tmp := s.path(art.Hash) + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return
	}
	if err := os.Rename(tmp, s.path(art.Hash)); err != nil {
		os.Remove(tmp)
	}
}

// diskLoad reads one envelope back as a payload-less artifact. The
// envelope's content is verified against the fingerprint it claims —
// a corrupted or hand-edited file is ignored, never trusted.
func (s *Store) diskLoad(h model.ModuleFingerprint) *Artifact {
	if s.dir == "" {
		return nil
	}
	b, err := os.ReadFile(s.path(h))
	if err != nil {
		return nil
	}
	var env api.Artifact
	if err := json.Unmarshal(b, &env); err != nil {
		return nil
	}
	art := &Artifact{
		Ref:    Ref{Hash: h, Kind: env.Kind, Name: env.Name},
		Source: env.Source,
	}
	for _, ds := range env.Deps {
		d, err := model.ParseModuleFingerprint(ds)
		if err != nil {
			return nil
		}
		art.Deps = append(art.Deps, d)
	}
	if model.FingerprintModule(art.Kind, art.Deps, art.Source) != h {
		return nil
	}
	return art
}

// Len reports the number of in-memory artifacts.
func (s *Store) Len() int { return s.mem.Len() }

// Stats snapshots the store counters.
func (s *Store) Stats() Stats { return s.mem.Stats() }

// ParseHash decodes the {hash} path element of the v1 artifacts route,
// rejecting anything that is not exactly one lowercase-hex fingerprint.
func ParseHash(s string) (model.ModuleFingerprint, error) {
	if strings.ContainsAny(s, "/\\") {
		return model.ModuleFingerprint{}, fmt.Errorf("artifact: bad hash %q", s)
	}
	return model.ParseModuleFingerprint(s)
}
