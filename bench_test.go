// Micro-benchmarks for what the repository benchmark does not time.
// `go run ./bench` (see bench/README.md) is the one benchmark of record:
// the bridge searches in every engine and storage mode, the service and
// fleet loops, and per-layer costs such as compile and state-encoding
// time. The rows kept here each measure something it never runs:
//
//   - E10AtMostNBounded: the Fig. 14 at-most-N bridge under a state bound.
//   - E11ModelConstruction: building the bridge model from scratch versus
//     from cached block models, the paper's reuse claim as one ratio.
//   - E12MatrixCell: single semantics-matrix cells loaded through adl.Load
//     on one artifact store, one connector spec per row.
//   - E13Ablation: the paper-literal block library against the optimized one.
//   - PORAblation: the bridge search with partial-order reduction.
//   - RuntimeThroughput: messages/second through executable connectors.
//   - FaultMiddleware: what fault injection costs a connector not using it.
//   - LTLTranslation: tableau construction across four formula shapes.
//   - CheckerStateRate: raw exploration speed on a connector-free model.
//
// Run them with
//
//	go test -run '^$' -bench=. -benchmem .
package pnp_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pnp"
	"pnp/internal/adl"
	"pnp/internal/artifact"
	"pnp/internal/blocks"
	"pnp/internal/bridge"
	"pnp/internal/checker"
	"pnp/internal/ltl"
	"pnp/internal/model"
	"pnp/internal/pml"
)

// reportStates attaches checker statistics to a benchmark.
func reportStates(b *testing.B, res *checker.Result) {
	b.Helper()
	b.ReportMetric(float64(res.Stats.StatesStored), "states")
	if res.Stats.Elapsed > 0 {
		b.ReportMetric(float64(res.Stats.StatesStored)/res.Stats.Elapsed.Seconds(), "states/s")
	}
}

// BenchmarkE10AtMostNBounded: bounded sweep of the Fig. 14 at-most-N
// design (the exhaustive 2.4M-state run lives in the bridge tests).
func BenchmarkE10AtMostNBounded(b *testing.B) {
	store := artifact.NewMemoryStore()
	var last *checker.Result
	for i := 0; i < b.N; i++ {
		res, err := bridge.Verify(bridge.Config{
			Variant: bridge.AtMostN, EnterSend: blocks.SynBlockingSend,
		}, store, checker.Options{MaxStates: 100000})
		if err != nil {
			b.Fatal(err)
		}
		if res.Kind == checker.InvariantViolation {
			b.Fatal("unexpected violation")
		}
		last = res
	}
	reportStates(b, last)
}

// BenchmarkE11ModelConstruction quantifies the paper's reuse claim: the
// cost of building the system model from scratch versus reusing the
// cached block and component models after a connector edit.
func BenchmarkE11ModelConstruction(b *testing.B) {
	cfg := bridge.Config{Variant: bridge.ExactlyN, EnterSend: blocks.SynBlockingSend}
	b.Run("Scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bridge.Build(cfg, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Reused", func(b *testing.B) {
		store := artifact.NewMemoryStore()
		if _, err := bridge.Build(cfg, store); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := bridge.Build(cfg, store); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// pipeComponents are the E12/E13 producer and consumer.
const pipeComponents = `
byte got;
proctype Producer(chan esig; chan edat; byte n) {
	byte i;
	mtype st;
	do
	:: i < n -> edat!i + 1,0,0,0,1; esig?st,_; i = i + 1
	:: else -> break
	od
}
proctype Consumer(chan rsig; chan rdat; byte n) {
	mtype st;
	byte d, sid, sd;
	bit sel, rem;
	do
	:: got < n ->
	   rdat!0,0,0,0,1; rsig?st,_; rdat?d,sid,sd,sel,rem;
	   if
	   :: st == RECV_SUCC -> got = got + 1
	   :: else
	   fi
	:: else -> break
	od
}`

// loadPipe loads the producer/consumer system over one connector with
// the given block library, reusing the store's compiled program.
func loadPipe(library string, spec blocks.ConnectorSpec, msgs int, store *artifact.Store) (*adl.System, error) {
	src := fmt.Sprintf(`system pipe {
    components "pc.pml"
    connector pipe {
        send    %s
        channel %s
        receive %s
    }
    instance p = Producer(send pipe, %d)
    instance c = Consumer(recv pipe, %d)
}
`, spec.Send.Token(), adl.ChannelToken(spec.Channel, spec.Size), spec.Recv.Token(), msgs, msgs)
	return adl.LoadWithLibrary(library, src, func(string) (string, error) { return pipeComponents, nil }, store)
}

// BenchmarkE12MatrixCell verifies representative semantics-matrix cells.
func BenchmarkE12MatrixCell(b *testing.B) {
	cells := []blocks.ConnectorSpec{
		{Send: blocks.SynBlockingSend, Channel: blocks.SingleSlot, Recv: blocks.BlockingRecv},
		{Send: blocks.AsynBlockingSend, Channel: blocks.FIFOQueue, Size: 2, Recv: blocks.BlockingRecv},
		{Send: blocks.AsynNonblockingSend, Channel: blocks.DroppingBuffer, Size: 1, Recv: blocks.NonblockingRecv},
	}
	for _, spec := range cells {
		spec := spec
		b.Run(spec.String(), func(b *testing.B) {
			store := artifact.NewMemoryStore()
			var last *checker.Result
			for i := 0; i < b.N; i++ {
				sys, err := loadPipe(blocks.LibrarySource, spec, 2, store)
				if err != nil {
					b.Fatal(err)
				}
				last = checker.New(sys.Builder.System(), checker.Options{}).CheckSafety()
			}
			reportStates(b, last)
		})
	}
}

// BenchmarkE13Ablation compares the paper-literal block models against
// the optimized ones (the paper's Section 6 state-explosion discussion).
func BenchmarkE13Ablation(b *testing.B) {
	spec := blocks.ConnectorSpec{Send: blocks.AsynBlockingSend, Channel: blocks.SingleSlot, Recv: blocks.BlockingRecv}
	run := func(b *testing.B, library string) {
		store := artifact.NewMemoryStore()
		var last *checker.Result
		for i := 0; i < b.N; i++ {
			sys, err := loadPipe(library, spec, 3, store)
			if err != nil {
				b.Fatal(err)
			}
			last = checker.New(sys.Builder.System(), checker.Options{}).CheckSafety()
		}
		reportStates(b, last)
	}
	b.Run("PaperLiteral", func(b *testing.B) { run(b, blocks.LibrarySourcePlain) })
	b.Run("Optimized", func(b *testing.B) { run(b, blocks.LibrarySource) })
}

// BenchmarkPORAblation: the E9 bridge verification with and without
// partial-order reduction (the paper's Section 6 optimization request).
func BenchmarkPORAblation(b *testing.B) {
	for _, por := range []bool{false, true} {
		por := por
		name := "Full"
		if por {
			name = "PartialOrder"
		}
		b.Run(name, func(b *testing.B) {
			store := artifact.NewMemoryStore()
			var last *checker.Result
			for i := 0; i < b.N; i++ {
				res, err := bridge.Verify(bridge.Config{
					Variant: bridge.ExactlyN, EnterSend: blocks.SynBlockingSend,
				}, store, checker.Options{PartialOrder: por})
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK {
					b.Fatal("expected verified")
				}
				last = res
			}
			reportStates(b, last)
		})
	}
}

// BenchmarkRuntimeThroughput measures messages/second through executable
// connectors of different compositions.
func BenchmarkRuntimeThroughput(b *testing.B) {
	specs := []pnp.ConnectorSpec{
		{Send: pnp.SynBlockingSend, Channel: pnp.SingleSlot, Recv: pnp.BlockingRecv},
		{Send: pnp.AsynBlockingSend, Channel: pnp.SingleSlot, Recv: pnp.BlockingRecv},
		{Send: pnp.AsynBlockingSend, Channel: pnp.FIFOQueue, Size: 64, Recv: pnp.BlockingRecv},
		{Send: pnp.AsynBlockingSend, Channel: pnp.PriorityQueue, Size: 64, Recv: pnp.BlockingRecv},
	}
	for _, spec := range specs {
		spec := spec
		b.Run(spec.String(), func(b *testing.B) {
			conn, err := pnp.NewConnector("bench", spec)
			if err != nil {
				b.Fatal(err)
			}
			snd, err := conn.NewSender()
			if err != nil {
				b.Fatal(err)
			}
			rcv, err := conn.NewReceiver()
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if err := conn.Start(ctx); err != nil {
				b.Fatal(err)
			}
			defer conn.Stop()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < b.N; i++ {
					if _, err := snd.Send(ctx, pnp.Message{Data: i}); err != nil {
						return
					}
				}
			}()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, _, err := rcv.Receive(ctx, pnp.RecvRequest{}); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start)
			<-done
			if elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "msgs/s")
			}
		})
	}
}

// BenchmarkFaultMiddleware measures what the fault-injection middleware
// costs a connector that isn't using it. NoPlan is the baseline;
// EmptyPlan attaches a plan with no matching rules (the injector
// collapses to nil, so the hot path pays one nil check); ZeroRateRule
// attaches a matching rule that never fires, paying the full per-message
// decision roll without altering delivery.
func BenchmarkFaultMiddleware(b *testing.B) {
	plans := []struct {
		name string
		plan *pnp.FaultPlan
	}{
		{"NoPlan", nil},
		{"EmptyPlan", &pnp.FaultPlan{Seed: 1}},
		{"ZeroRateRule", &pnp.FaultPlan{Seed: 1, Rules: []pnp.FaultRule{
			{Kind: pnp.FaultDrop, Target: "bench", Rate: 0},
		}}},
	}
	spec := pnp.ConnectorSpec{Send: pnp.AsynBlockingSend, Channel: pnp.FIFOQueue, Size: 64, Recv: pnp.BlockingRecv}
	for _, p := range plans {
		p := p
		b.Run(p.name, func(b *testing.B) {
			var opts []pnp.ConnectorOption
			if p.plan != nil {
				opts = append(opts, pnp.WithFaults(p.plan))
			}
			conn, err := pnp.NewConnector("bench", spec, opts...)
			if err != nil {
				b.Fatal(err)
			}
			snd, err := conn.NewSender()
			if err != nil {
				b.Fatal(err)
			}
			rcv, err := conn.NewReceiver()
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if err := conn.Start(ctx); err != nil {
				b.Fatal(err)
			}
			defer conn.Stop()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < b.N; i++ {
					if _, err := snd.Send(ctx, pnp.Message{Data: i}); err != nil {
						return
					}
				}
			}()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, _, err := rcv.Receive(ctx, pnp.RecvRequest{}); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start)
			<-done
			if elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "msgs/s")
			}
		})
	}
}

// BenchmarkLTLTranslation: GPVW tableau construction for representative
// formulas.
func BenchmarkLTLTranslation(b *testing.B) {
	formulas := []string{
		"[] (p -> <> q)",
		"[] <> p && [] <> q",
		"(p U q) U r",
		"<> [] (p || X q)",
	}
	for _, src := range formulas {
		src := src
		b.Run(src, func(b *testing.B) {
			f, err := ltl.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := ltl.Translate(ltl.Not(f)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckerStateRate: raw exploration speed on Peterson's mutual
// exclusion protocol (no connector machinery, pure checker).
func BenchmarkCheckerStateRate(b *testing.B) {
	const src = `
bool flag0, flag1;
byte turn, incrit;
active proctype P0() {
	do
	:: flag0 = 1; turn = 1;
	   (flag1 == 0 || turn == 0);
	   incrit = incrit + 1; assert(incrit == 1); incrit = incrit - 1;
	   flag0 = 0
	od
}
active proctype P1() {
	do
	:: flag1 = 1; turn = 0;
	   (flag0 == 0 || turn == 1);
	   incrit = incrit + 1; assert(incrit == 1); incrit = incrit - 1;
	   flag1 = 0
	od
}`
	prog, err := pml.CompileSource(src)
	if err != nil {
		b.Fatal(err)
	}
	var last *checker.Result
	for i := 0; i < b.N; i++ {
		sys := model.New(prog)
		if err := sys.SpawnActive(); err != nil {
			b.Fatal(err)
		}
		last = checker.New(sys, checker.Options{IgnoreDeadlock: true}).CheckSafety()
		if !last.OK {
			b.Fatal("Peterson violated?!")
		}
	}
	reportStates(b, last)
}
