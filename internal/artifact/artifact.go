// Package artifact is the content-addressed store for compiled model
// modules. The model compiler (internal/adl over internal/blocks) emits
// one artifact per module — the block library, each component file, the
// linked program, each connector block composition — addressed by
// model.ModuleFingerprint, and a design resolves to a DAG of module
// refs instead of one monolithic source blob. The store keeps a bounded
// in-memory LRU of live artifacts (the compiled payloads), optionally
// mirrored to disk as canonical-source envelopes under a data
// directory, and serves wire peeks so a cluster coordinator can ask any
// node "do you already hold this module?" the same way it peeks result
// caches.
//
// Payloads are process-local (a *pml.Compiled is full of pointers); the
// durable and wire representation of an artifact is its canonical
// source, which is a faithful address of the compiled form because
// compilation is deterministic — the same property ModelHash relies on.
// A disk or wire hit therefore saves the *decision* work (what to
// rebuild) and shares the module's identity; reattaching a live payload
// after a cold load is one deterministic compile of exactly that
// module.
package artifact

import (
	"pnp/internal/api"
	"pnp/internal/model"
)

// Module kinds, in the order a design's DAG lists them.
const (
	KindLibrary   = "library"   // the block catalog pml source
	KindComponent = "component" // one resolved component file
	KindProgram   = "program"   // the linked pml program (library + components)
	KindConnector = "connector" // one connector block composition against a program
)

// Ref names one module in a design's DAG: its content address, kind,
// display name, and the addresses it was compiled against.
type Ref struct {
	Hash model.ModuleFingerprint
	Kind string
	Name string
	Deps []model.ModuleFingerprint
}

// Artifact is one stored module: its ref, the canonical source the
// fingerprint covers, and (in memory only) the live compiled payload.
// Source is the durable representation; Payload is whatever the
// compiling layer attached — *pml.Compiled for program modules, the
// validated connector spec for connector modules — and is nil after a
// disk load until a caller reattaches it.
type Artifact struct {
	Ref
	Source  string
	Payload any
}

// Info renders the ref as a job document's module entry (Reused left
// for the caller).
func (r Ref) Info() api.ModuleInfo {
	in := api.ModuleInfo{Hash: r.Hash.String(), Kind: r.Kind, Name: r.Name}
	for _, d := range r.Deps {
		in.Deps = append(in.Deps, d.String())
	}
	return in
}
