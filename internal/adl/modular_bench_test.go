package adl

import (
	"os"
	"strings"
	"testing"

	"pnp/internal/artifact"
)

// BenchmarkIncrementalRecompile measures what PR10 buys on the E9
// bridge: a cold modular compile builds all seven modules, while the
// same design with one connector edited re-derives exactly one against
// a warm store. The reported modules_compiled metric is the row that
// matters — wall time follows it.
func BenchmarkIncrementalRecompile(b *testing.B) {
	srcB, err := os.ReadFile("../../examples/adl/bridge.pnp")
	if err != nil {
		b.Fatal(err)
	}
	pmlB, err := os.ReadFile("../../examples/adl/bridge.pml")
	if err != nil {
		b.Fatal(err)
	}
	src := string(srcB)
	edited := strings.Replace(src, "channel single-slot", "channel fifo(1)", 1)
	if edited == src {
		b.Fatal("connector edit did not apply")
	}
	res := resolver(map[string]string{"bridge.pml": string(pmlB)})

	newStore := func() *artifact.Store {
		s, err := artifact.NewStore(64, "", nil)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}

	b.Run("cold", func(b *testing.B) {
		var last *System
		for i := 0; i < b.N; i++ {
			sys, err := Load(src, res, newStore())
			if err != nil {
				b.Fatal(err)
			}
			last = sys
		}
		b.ReportMetric(float64(last.ModulesCompiled), "modules_compiled")
		b.ReportMetric(float64(last.ModulesReused), "modules_reused")
	})

	b.Run("one-connector-edit", func(b *testing.B) {
		var last *System
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			store := newStore()
			if _, err := Load(src, res, store); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			sys, err := Load(edited, res, store)
			if err != nil {
				b.Fatal(err)
			}
			last = sys
		}
		b.ReportMetric(float64(last.ModulesCompiled), "modules_compiled")
		b.ReportMetric(float64(last.ModulesReused), "modules_reused")
	})

	b.Run("full-reuse", func(b *testing.B) {
		store := newStore()
		if _, err := Load(src, res, store); err != nil {
			b.Fatal(err)
		}
		var last *System
		for i := 0; i < b.N; i++ {
			sys, err := Load(src, res, store)
			if err != nil {
				b.Fatal(err)
			}
			last = sys
		}
		b.ReportMetric(float64(last.ModulesCompiled), "modules_compiled")
		b.ReportMetric(float64(last.ModulesReused), "modules_reused")
	})
}
