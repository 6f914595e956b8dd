package adl

import (
	"fmt"
	"strings"

	"pnp/internal/api"
	"pnp/internal/artifact"
	"pnp/internal/blocks"
	"pnp/internal/model"
	"pnp/internal/pml"
)

// Load parses src and composes the described system through a
// content-addressed artifact store, one module per compilation unit:
//
//	library ──┐
//	comp A  ──┼──▶ program ──▶ connector₁ … connectorₙ
//	comp B  ──┘
//
// The block library, each resolved component file, the linked program,
// and each connector block composition get their own
// model.ModuleFingerprint; the program depends on the library and the
// components, each connector on the program. A resubmission that edits
// one connector therefore re-derives exactly one module — the program
// artifact (the expensive pml compile) and every other connector keep
// their addresses and are served from the store — and the returned
// System reports which modules were reused and which had to be built.
// Concurrent loads of one program on one store compile it once and
// share one *pml.Compiled.
//
// Component files are fetched through resolve. A nil store means a
// fresh memory-only one, so nothing is reused across calls.
func Load(src string, resolve Resolver, store *artifact.Store) (*System, error) {
	return LoadWithLibrary(blocks.LibrarySource, src, resolve, store)
}

// LoadModular is Load under its former name. It stays only for bench/,
// and ROADMAP item 1's bench change, which moves bench onto Load,
// deletes it.
var LoadModular = Load

// LoadWithLibrary is Load over an explicit block library source, such
// as blocks.LibrarySourcePlain, the paper-literal models.
func LoadWithLibrary(library, src string, resolve Resolver, store *artifact.Store) (*System, error) {
	if store == nil {
		store = artifact.NewMemoryStore()
	}
	pf, err := parse(src)
	if err != nil {
		return nil, err
	}
	texts, err := resolveComponents(pf, resolve)
	if err != nil {
		return nil, err
	}

	var modules []api.ModuleInfo
	record := func(ref artifact.Ref, reused bool) {
		in := ref.Info()
		in.Reused = reused
		modules = append(modules, in)
	}
	// intern stores a source-only module (library, component, connector)
	// unless an equal one is already present — within this load or from
	// any earlier job, sweep cell, or restart.
	intern := func(ref artifact.Ref, source string, payload any) bool {
		if _, ok := store.Get(ref.Hash); ok {
			record(ref, true)
			return true
		}
		store.Put(&artifact.Artifact{Ref: ref, Source: source, Payload: payload})
		record(ref, false)
		return false
	}

	libRef := artifact.Ref{
		Hash: model.FingerprintModule(artifact.KindLibrary, nil, library),
		Kind: artifact.KindLibrary,
		Name: "library",
	}
	intern(libRef, library, nil)

	progDeps := []model.ModuleFingerprint{libRef.Hash}
	for i, text := range texts {
		ref := artifact.Ref{
			Hash: model.FingerprintModule(artifact.KindComponent, nil, text),
			Kind: artifact.KindComponent,
			Name: pf.components[i],
		}
		intern(ref, text, nil)
		progDeps = append(progDeps, ref.Hash)
	}

	// The linked program's canonical source is the library and the
	// components, each followed by a newline: the Builder source that
	// ModelHash covers.
	var full strings.Builder
	full.WriteString(library)
	full.WriteByte('\n')
	for _, text := range texts {
		full.WriteString(text)
		full.WriteByte('\n')
	}
	progRef := artifact.Ref{
		Hash: model.FingerprintModule(artifact.KindProgram, progDeps, full.String()),
		Kind: artifact.KindProgram,
		Name: pf.name,
		Deps: progDeps,
	}
	prog, progReused, err := programFor(store, progRef, full.String())
	if err != nil {
		return nil, err
	}
	record(progRef, progReused)

	b := blocks.NewBuilderFromProgram(prog, full.String())
	sys, err := compose(pf, b)
	if err != nil {
		return nil, err
	}

	for _, pc := range pf.connectors {
		ref := artifact.Ref{
			Hash: model.FingerprintModule(artifact.KindConnector, []model.ModuleFingerprint{progRef.Hash}, pc.spec.Token()),
			Kind: artifact.KindConnector,
			Name: pc.name,
			Deps: []model.ModuleFingerprint{progRef.Hash},
		}
		intern(ref, pc.spec.Token(), pc.spec)
	}

	sys.Modules = modules
	for _, m := range modules {
		if m.Reused {
			sys.ModulesReused++
		} else {
			sys.ModulesCompiled++
		}
	}
	return sys, nil
}

// programFor resolves the program module to a live *pml.Compiled
// through the store's Build: a stored payload is reused; a miss, or a
// hit without a payload (a disk envelope surviving a restart or an LRU
// eviction), compiles the canonical source once, however many loads ask
// at the same time.
func programFor(store *artifact.Store, ref artifact.Ref, source string) (*pml.Compiled, bool, error) {
	payload, reused, err := store.Build(ref, source, func() (any, error) {
		return pml.CompileSource(source)
	})
	if err != nil {
		return nil, false, fmt.Errorf("adl: compiling program module %s: %w", ref.Hash, err)
	}
	return payload.(*pml.Compiled), reused, nil
}
