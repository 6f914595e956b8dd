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

// LoadModular parses src and composes the described system through a
// content-addressed artifact store, emitting one module per compilation
// unit instead of treating the design as a monolith:
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
//
// The composed system is byte-identical to Load's: same Builder source,
// same ModelHash, same verdicts. Only the compilation route and the
// accounting differ.
func LoadModular(src string, resolve Resolver, store *artifact.Store) (*System, error) {
	if store == nil {
		return nil, fmt.Errorf("adl: LoadModular requires an artifact store")
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
		Hash: model.FingerprintModule(artifact.KindLibrary, nil, blocks.LibrarySource),
		Kind: artifact.KindLibrary,
		Name: "library",
	}
	intern(libRef, blocks.LibrarySource, nil)

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

	// The linked program's canonical source concatenates the library and
	// the components exactly the way Load does, so both paths produce
	// the same Builder source and the same ModelHash.
	var full strings.Builder
	full.WriteString(blocks.LibrarySource)
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

// programFor resolves the program module to a live *pml.Compiled: a
// store hit with a payload is the full reuse path; a hit without one (a
// disk envelope surviving a restart or an LRU eviction) reuses the
// module's identity and recompiles its canonical source once,
// reattaching the payload for the next caller; a miss compiles and
// stores.
func programFor(store *artifact.Store, ref artifact.Ref, source string) (*pml.Compiled, bool, error) {
	if art, ok := store.Get(ref.Hash); ok {
		if prog, ok := art.Payload.(*pml.Compiled); ok && prog != nil {
			return prog, true, nil
		}
		prog, err := pml.CompileSource(source)
		if err != nil {
			return nil, false, fmt.Errorf("adl: recompiling program module %s: %w", ref.Hash, err)
		}
		store.Attach(ref.Hash, prog)
		return prog, true, nil
	}
	prog, err := pml.CompileSource(source)
	if err != nil {
		return nil, false, fmt.Errorf("blocks: %w", err)
	}
	store.Put(&artifact.Artifact{Ref: ref, Source: source, Payload: prog})
	return prog, false, nil
}
