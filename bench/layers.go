package main

import (
	"math/rand"
	"strings"
	"time"

	"pnp/internal/adl"
	"pnp/internal/artifact"
	"pnp/internal/blocks"
	"pnp/internal/cluster"
	"pnp/internal/ltl"
	"pnp/internal/model"
	"pnp/internal/pml"
	"pnp/internal/verifyd"
)

// Layer costs that no span of an op isolates are measured here, each
// call timed alone on the workload's own design, after the ops of a
// traced run.

// timeReps runs fn reps times and returns every duration in
// milliseconds.
func timeReps(reps int, fn func()) []float64 {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		out = append(out, ms(time.Since(t0)))
	}
	return out
}

// measureFrontEnd times the text-to-model layers on one design: the pml
// compile of library plus components, a cold adl.LoadModular (whose
// remainder after the compile is parsing and block composition), and
// the one-connector rewrite.
func measureFrontEnd(res *Result, d Design) error {
	var full strings.Builder
	full.WriteString(blocks.LibrarySource)
	full.WriteByte('\n')
	refs, err := adl.ComponentRefs(d.ADL)
	if err != nil {
		return err
	}
	for _, ref := range refs {
		full.WriteString(d.Components[ref])
		full.WriteByte('\n')
	}
	var failed error
	compile := timeReps(5, func() {
		if _, err := pml.CompileSource(full.String()); err != nil {
			failed = err
		}
	})
	load := timeReps(5, func() {
		store, err := artifact.NewStore(0, "", nil)
		if err == nil {
			_, err = adl.LoadModular(d.ADL, d.resolve, store)
		}
		if err != nil {
			failed = err
		}
	})
	conns, err := adl.Connectors(d.ADL)
	if err != nil {
		return err
	}
	rewrite := timeReps(50, func() {
		if _, err := adl.RewriteConnector(d.ADL, conns[0].Name, conns[0].Spec); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return failed
	}
	res.setMedian("pml.compile_ms", compile)
	res.setMedian("adl.load_ms", load)
	res.set("blocks.compose_self_ms", median(load)-median(compile))
	res.setMedian("adl.rewrite_ms", rewrite)
	return nil
}

// modelCosts are per-call costs of the model layer replayed on states
// sampled from the reachable set.
type modelCosts struct {
	successorsNs, encodeNs, encodeComponentsNs, hashNs float64
	keyBytes, successors                               float64
	reachable                                          int
}

// modelPerStoredState is the model layer's share of one stored state in
// a search: one expansion, plus an encode and a hash for each of the
// transitionsPerState successors the expansion generates.
func (c modelCosts) perStoredState(transitionsPerState float64) float64 {
	return c.successorsNs + transitionsPerState*(c.encodeComponentsNs+c.hashNs)
}

// replayModel enumerates the reachable states breadth-first with the
// model package alone, keeps a seeded reservoir sample of them, and
// times each hot call on the sample in its own loop.
func replayModel(sys *model.System, sample int, rng *rand.Rand) modelCosts {
	seen := make(map[string]struct{}, 1<<16)
	init := sys.InitialState()
	seen[init.Key()] = struct{}{}
	frontier := []*model.State{init}
	kept := make([]*model.State, 0, sample)
	n := 0
	keep := func(st *model.State) {
		n++
		if len(kept) < sample {
			kept = append(kept, st)
		} else if j := rng.Intn(n); j < sample {
			kept[j] = st
		}
	}
	keep(init)
	var trs []model.Transition
	var buf []byte
	for len(frontier) > 0 {
		var next []*model.State
		for _, st := range frontier {
			trs = sys.SuccessorsAppend(st, nil, trs[:0])
			for _, tr := range trs {
				if tr.Violation != "" {
					continue
				}
				buf = tr.Next.AppendKey(buf[:0])
				if _, dup := seen[string(buf)]; dup {
					continue
				}
				seen[string(buf)] = struct{}{}
				keep(tr.Next)
				next = append(next, tr.Next)
			}
		}
		frontier = next
	}

	c := modelCosts{reachable: n}
	// Each call is timed in its own loop. In a search the states a call
	// touches were written moments earlier, so the sample is walked in
	// cache-sized batches, each touched once untimed before it is timed.
	const batch = 256
	timed := func(fn func(lo, hi int)) float64 {
		var total time.Duration
		for lo := 0; lo < len(kept); lo += batch {
			hi := min(lo+batch, len(kept))
			fn(lo, hi)
			t0 := time.Now()
			fn(lo, hi)
			total += time.Since(t0)
		}
		return float64(total) / float64(len(kept))
	}

	arena := &model.Arena{}
	succ := 0
	c.successorsNs = timed(func(lo, hi int) {
		for _, st := range kept[lo:hi] {
			trs = sys.SuccessorsAppend(st, arena, trs[:0])
			succ += len(trs)
			for _, tr := range trs {
				if tr.Violation == "" {
					arena.Recycle(tr.Next)
				}
			}
		}
	})
	c.successors = float64(succ) / float64(2*len(kept))

	bytes := 0
	c.encodeNs = timed(func(lo, hi int) {
		for _, st := range kept[lo:hi] {
			buf = st.AppendKey(buf[:0])
			bytes += len(buf)
		}
	})
	c.keyBytes = float64(bytes) / float64(2*len(kept))

	var ends []int
	c.encodeComponentsNs = timed(func(lo, hi int) {
		for _, st := range kept[lo:hi] {
			buf, ends = st.AppendComponentKeys(buf[:0], ends[:0])
		}
	})

	// Hash the encodings the search hashes: one per state, prepared
	// outside the timed loop.
	encs := make([][]byte, len(kept))
	for i, st := range kept {
		encs[i], _ = st.AppendComponentKeys(nil, nil)
	}
	c.hashNs = timed(func(lo, hi int) {
		for _, enc := range encs[lo:hi] {
			hashSink ^= model.Hash64(enc)
		}
	})
	return c
}

// hashSink keeps the hash loop's result alive so the compiler cannot
// drop the calls.
var hashSink uint64

func (c modelCosts) report(res *Result) {
	res.set("model.successors_ns_per_state", c.successorsNs)
	res.set("model.encode_ns_per_state", c.encodeNs)
	res.set("model.encode_components_ns_per_state", c.encodeComponentsNs)
	res.set("model.hash_ns_per_state", c.hashNs)
	res.set("model.key_bytes_per_state", c.keyBytes)
	res.set("model.successors_per_state", c.successors)
}

// measureLTL times the formula-to-Büchi translation the ltl mode pays
// before its search.
func measureLTL(res *Result, formula string) error {
	states := 0
	var failed error
	samples := timeReps(20, func() {
		f, err := ltl.Parse(formula)
		if err == nil {
			var aut *ltl.Automaton
			if aut, err = ltl.Translate(ltl.Not(f)); err == nil {
				states = len(aut.States)
			}
		}
		if err != nil {
			failed = err
		}
	})
	if failed != nil {
		return failed
	}
	res.setMedian("ltl.translate_ms", samples)
	res.set("ltl.automaton_states", float64(states))
	return nil
}

// measureKey times the two content addresses a submission pays for: the
// wire-level submission key and the composed model's hash.
func measureKey(res *Result, d Design) error {
	store, err := artifact.NewStore(0, "", nil)
	if err != nil {
		return err
	}
	sys, err := adl.LoadModular(d.ADL, d.resolve, store)
	if err != nil {
		return err
	}
	var sink byte
	samples := timeReps(50, func() {
		k := verifyd.Submission{ADL: d.ADL, Components: d.Components}.Key()
		h := verifyd.ModelHash(sys.Builder)
		sink ^= k[0] ^ h[0]
	})
	hashSink ^= uint64(sink)
	res.setMedian("verifyd.key_ms", samples)
	return nil
}

// measureRing times consistent-hash placement alone.
func measureRing(res *Result, nodes []string, keys int) {
	ring := cluster.NewRing(0)
	for _, n := range nodes {
		ring.Add(n)
	}
	key := make([]byte, 32)
	owned := 0
	t0 := time.Now()
	for i := 0; i < keys; i++ {
		key[0], key[1], key[2] = byte(i), byte(i>>8), byte(i>>16)
		if ring.Owner(key) == nodes[0] {
			owned++
		}
	}
	hashSink ^= uint64(owned)
	res.set("cluster.ring_owner_ns", float64(time.Since(t0))/float64(keys))
}
