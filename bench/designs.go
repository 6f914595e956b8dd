package main

import (
	"embed"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"pnp/internal/adl"
	"pnp/internal/blocks"
)

// The program under test sees only what this file generates: ADL text
// plus inlined component sources. Three bridge designs are fixed (the
// paper's case study); the small-design family is derived from two
// checked-in bases by the paper's own "plug" edit, adl.RewriteConnector.

//go:embed designs/*.pnp designs/*.pml
var designFS embed.FS

func mustRead(name string) string {
	b, err := designFS.ReadFile("designs/" + name)
	if err != nil {
		panic(err) // embedded at build time; absence is a build bug
	}
	return string(b)
}

// Design is one submission: an id keyed into the golden table, the ADL
// text, and the component files it references.
type Design struct {
	ID         string
	ADL        string
	Components map[string]string
}

func (d Design) resolve(path string) (string, error) {
	if src, ok := d.Components[path]; ok {
		return src, nil
	}
	return "", fmt.Errorf("bench: design %s references unknown component file %q", d.ID, path)
}

// Fixed design ids. bridge-n1 is the historical E9 row (183,506
// states), bridge-n2 the N=2 quota (347,916), bridge-broken the E8
// asynchronous-enter design whose invariant fails; bridge-n1-ltl states
// the same safety claim as `[] !both` so the nested-DFS engine runs it.
// The smoke designs play the same three roles at a few hundred states,
// for the tier-1 smoke test and the services' warm-up.
const (
	bridgeN1     = "bridge-n1"
	bridgeN2     = "bridge-n2"
	bridgeBroken = "bridge-broken"
	bridgeN1LTL  = "bridge-n1-ltl"
	smokeOK      = "smoke-ok"
	smokeLTL     = "smoke-ltl"
	smokeBroken  = "smoke-broken"
)

var fixedIDs = []string{bridgeN1, bridgeN2, bridgeBroken, bridgeN1LTL, smokeOK, smokeLTL, smokeBroken}

const (
	bridgeInvariant = `invariant bridge_safety "!(blueOn > 0 && redOn > 0)"`
	relayInvariant  = `invariant conservation "got <= sent"`
)

func fixedDesign(id string) Design {
	file, comps := "bridge.pnp", "bridge.pml"
	if strings.HasPrefix(id, "smoke-") {
		file, comps = "relay.pnp", "family.pml"
	}
	src := mustRead(file)
	edit := func(old, new string) {
		if !strings.Contains(src, old) {
			panic("bench: " + file + " no longer contains " + old)
		}
		src = strings.Replace(src, old, new, 1)
	}
	switch id {
	case bridgeN1, smokeOK:
	case bridgeN2:
		src = strings.NewReplacer(", 1, 1)", ", 2, 1)", ", 1, 0)", ", 2, 0)").Replace(src)
	case bridgeBroken:
		for _, conn := range []string{"BlueEnter", "RedEnter"} {
			var err error
			src, err = adl.RewriteConnector(src, conn, blocks.ConnectorSpec{
				Send: blocks.AsynBlockingSend, Channel: blocks.FIFOQueue, Size: 2, Recv: blocks.BlockingRecv,
			})
			if err != nil {
				panic(err)
			}
		}
	case bridgeN1LTL:
		edit(bridgeInvariant, `ltl no_crash "[] !both" { both = "blueOn > 0 && redOn > 0" }`)
	case smokeLTL:
		edit(relayInvariant, `ltl conserved "[] ok" { ok = "got <= sent" }`)
	case smokeBroken:
		edit(relayInvariant, `invariant never_delivered "got == 0"`)
	default:
		panic("bench: unknown fixed design " + id)
	}
	return Design{ID: id, ADL: src, Components: map[string]string{comps: mustRead(comps)}}
}

// The connector catalog the family draws from: 5 send ports x 11
// channels x 2 receive ports = 110 block triples.
var (
	catalogSends = []blocks.SendPortKind{
		blocks.AsynNonblockingSend, blocks.AsynBlockingSend, blocks.AsynCheckingSend,
		blocks.SynBlockingSend, blocks.SynCheckingSend,
	}
	catalogRecvs    = []blocks.RecvPortKind{blocks.BlockingRecv, blocks.NonblockingRecv}
	catalogChannels = func() []blocks.ConnectorSpec {
		out := []blocks.ConnectorSpec{{Channel: blocks.SingleSlot}}
		for _, k := range []blocks.ChannelKind{blocks.FIFOQueue, blocks.PriorityQueue, blocks.DroppingBuffer} {
			for size := 1; size <= 3; size++ {
				out = append(out, blocks.ConnectorSpec{Channel: k, Size: size})
			}
		}
		return append(out, blocks.ConnectorSpec{Channel: blocks.LossyBuffer, Size: 1})
	}()
	catalogSize = len(catalogSends) * len(catalogChannels) * len(catalogRecvs)
)

func catalogSpec(i int) blocks.ConnectorSpec {
	spec := catalogChannels[(i/len(catalogRecvs))%len(catalogChannels)]
	spec.Send = catalogSends[i/(len(catalogRecvs)*len(catalogChannels))]
	spec.Recv = catalogRecvs[i%len(catalogRecvs)]
	return spec
}

// familyMember names one point of the family's universe: a base, a
// message count, and one catalog index per connector of that base.
type familyMember struct {
	relay bool
	msgs  int
	conns [2]int // conns[1] unused for the single-connector base
}

func (m familyMember) id() string {
	if m.relay {
		return fmt.Sprintf("relay.m%d.c%03d.c%03d", m.msgs, m.conns[0], m.conns[1])
	}
	return fmt.Sprintf("pc.m%d.c%03d", m.msgs, m.conns[0])
}

// familyMsgs bounds the message count per base. The relay base stays at
// one message: with two, a third of its members exceed 10,000 states
// and the service workload would measure the checker, not the service.
func familyMsgs(relay bool) int {
	if relay {
		return 1
	}
	return 2
}

// familyUniverse enumerates every member in a fixed order — the 220
// single-connector designs first, then the 12,100 relay designs; the
// golden table has one row per member it could verify within
// goldenMaxStates.
func familyUniverse() []familyMember {
	var out []familyMember
	for _, relay := range []bool{false, true} {
		for msgs := 1; msgs <= familyMsgs(relay); msgs++ {
			for c0 := 0; c0 < catalogSize; c0++ {
				if !relay {
					out = append(out, familyMember{msgs: msgs, conns: [2]int{c0, 0}})
					continue
				}
				for c1 := 0; c1 < catalogSize; c1++ {
					out = append(out, familyMember{relay: true, msgs: msgs, conns: [2]int{c0, c1}})
				}
			}
		}
	}
	return out
}

// singleConnectorUniverse is the universe's single-connector part.
func singleConnectorUniverse() []familyMember {
	return familyUniverse()[:familyMsgs(false)*catalogSize]
}

// familyBases holds the two checked-in base texts and the shared
// component file, read once.
type familyBases struct {
	pc, relay  string
	components map[string]string
}

func loadFamilyBases() familyBases {
	return familyBases{
		pc:         mustRead("pc.pnp"),
		relay:      mustRead("relay.pnp"),
		components: map[string]string{"family.pml": mustRead("family.pml")},
	}
}

// design renders a member as ADL text: the base with its connector
// blocks rewritten and its message counts replaced.
func (fb familyBases) design(m familyMember) (Design, error) {
	src, names := fb.pc, []string{"Wire"}
	if m.relay {
		src, names = fb.relay, []string{"Up", "Down"}
	}
	for i, name := range names {
		var err error
		src, err = adl.RewriteConnector(src, name, catalogSpec(m.conns[i]))
		if err != nil {
			return Design{}, fmt.Errorf("bench: rendering %s: %w", m.id(), err)
		}
	}
	src = strings.ReplaceAll(src, ", 1)", fmt.Sprintf(", %d)", m.msgs))
	return Design{ID: m.id(), ADL: src, Components: fb.components}, nil
}

// generateFamily walks the universe from a seeded start: each member
// differs from its predecessor by exactly one connector (the paper's
// edit-and-resubmit step), with an occasional jump to a fresh design so
// both bases and every message count appear. Members are distinct and
// all have a golden row. Rank order is walk order, so the popular
// designs of the Zipf traffic are each other's neighbours.
func generateFamily(rng *rand.Rand, fb familyBases, golden goldenTable, universe []familyMember, n int) ([]Design, error) {
	seen := make(map[string]bool, n)
	out := make([]Design, 0, n)
	var cur familyMember
	jump := func() { cur = universe[rng.Intn(len(universe))] }
	jump()
	// Every accepted member needs a fresh id with a golden row; the walk
	// finds one in a handful of tries, so a long dry run means the
	// golden table is far smaller than the family asked for.
	for tries := 0; len(out) < n; tries++ {
		if tries > 200*n {
			return nil, fmt.Errorf("bench: only %d of %d family members have golden rows; run -update-golden", len(out), n)
		}
		next := cur
		if len(out) > 0 {
			if rng.Intn(40) == 0 {
				jump()
				next = cur
			} else {
				slot := 0
				if cur.relay {
					slot = rng.Intn(2)
				}
				next.conns[slot] = rng.Intn(catalogSize)
			}
		}
		id := next.id()
		if _, ok := golden[id]; !ok || seen[id] {
			continue
		}
		d, err := fb.design(next)
		if err != nil {
			return nil, err
		}
		seen[id] = true
		cur = next
		out = append(out, d)
	}
	return out, nil
}

// zipfRank draws a rank in [0, size) with P(rank r) proportional to
// 1/(r+1) — Zipf with s = 1, which math/rand's generator (s > 1 only)
// cannot produce — by inverting the harmonic sums.
func zipfRank(rng *rand.Rand, size int) int {
	for len(harmonic) < size {
		prev := 0.0
		if n := len(harmonic); n > 0 {
			prev = harmonic[n-1]
		}
		harmonic = append(harmonic, prev+1/float64(len(harmonic)+1))
	}
	r := sort.SearchFloat64s(harmonic[:size], rng.Float64()*harmonic[size-1])
	return min(r, size-1)
}

// harmonic[i] is 1 + 1/2 + ... + 1/(i+1), grown on demand.
var harmonic []float64
