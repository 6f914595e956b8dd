package blocks

import (
	"testing"

	"pnp/internal/checker"
	"pnp/internal/model"
	"pnp/internal/pml"
)

// lossySrc is a minimal producer/consumer pair for probing the lossy
// channel: the sender pushes n messages through a blocking send port and
// the receiver keeps fetching (blocking receive) until `want` arrived.
const lossySrc = `
byte got;
proctype LossSender(chan portSig; chan portDat; byte n) {
	mtype st;
	byte i;
	do
	:: i < n ->
	   portDat!(i + 1),0,0,0,1;
	   portSig?st,_;
	   i = i + 1
	:: else -> break
	od
}
proctype LossReceiver(chan portSig; chan portDat; byte want) {
	mtype st;
	byte d, sid, sd;
	bit sel, rem;
	do
	:: got < want ->
	   portDat!0,0,0,0,1;
	   portSig?st,_;
	   portDat?d,sid,sd,sel,rem;
	   if
	   :: st == RECV_SUCC -> got = got + 1
	   :: else
	   fi
	:: else -> break
	od
}`

// buildLossy wires LossSender -> spec -> LossReceiver over the given
// library variant (optimized or paper-literal plain).
func buildLossy(t *testing.T, library string, spec ConnectorSpec, send, want int) *Builder {
	t.Helper()
	full := library + "\n" + lossySrc
	prog, err := pml.CompileSource(full)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilderFromProgram(prog, full)
	conn, err := b.NewConnector("wire", spec)
	if err != nil {
		t.Fatal(err)
	}
	snd, err := conn.AddSender("producer")
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := conn.AddReceiver("consumer")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Spawn("LossSender", model.Chan(snd.Sig), model.Chan(snd.Dat),
		model.Int(int64(send))); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Spawn("LossReceiver", model.Chan(rcv.Sig), model.Chan(rcv.Dat),
		model.Int(int64(want))); err != nil {
		t.Fatal(err)
	}
	return b
}

func libraries() map[string]string {
	return map[string]string{"optimized": LibrarySource, "plain": LibrarySourcePlain}
}

func TestLossyChannelMayLoseInTransit(t *testing.T) {
	// Naive composition over lossy(1): delivery of both messages stays
	// possible (the channel may behave perfectly), but it is not
	// guaranteed — an in-transit drop leaves the receiver blocked with
	// got==2 forever out of reach. The same composition over a reliable
	// FIFO satisfies the delivery goal. This is the generic shape of
	// experiment E12: unreliable media break naive designs.
	for name, lib := range libraries() {
		t.Run(name, func(t *testing.T) {
			lossy := ConnectorSpec{Send: AsynBlockingSend, Channel: LossyBuffer, Size: 1, Recv: BlockingRecv}
			b := buildLossy(t, lib, lossy, 2, 2)
			target, err := b.Program().CompileGlobalExpr("got == 2")
			if err != nil {
				t.Fatal(err)
			}
			if res := checker.New(b.System(), checker.Options{}).CheckReachable(target); !res.OK {
				t.Error("lossy(1): got==2 should remain reachable (channel may not misbehave)")
			}
			b = buildLossy(t, lib, lossy, 2, 2)
			if res := checker.New(b.System(), checker.Options{}).CheckEventuallyReachable(target); res.OK {
				t.Error("lossy(1): delivery goal AG EF got==2 should fail (in-transit loss)")
			}

			fifo := lossy.WithChannel(FIFOQueue, 2)
			b = buildLossy(t, lib, fifo, 2, 2)
			if res := checker.New(b.System(), checker.Options{}).CheckEventuallyReachable(target); !res.OK {
				t.Errorf("fifo(2): delivery goal should hold: %s", res.Summary())
			}
		})
	}
}

func TestLossyChannelMayDuplicate(t *testing.T) {
	// One message sent, lossy buffer with a spare slot: duplication in
	// transit makes a second delivery reachable — got can exceed what was
	// ever sent. A FIFO never manufactures messages. (With size 1 there is
	// no spare slot, so duplication cannot manifest there.)
	for name, lib := range libraries() {
		t.Run(name, func(t *testing.T) {
			lossy := ConnectorSpec{Send: AsynBlockingSend, Channel: LossyBuffer, Size: 2, Recv: BlockingRecv}
			b := buildLossy(t, lib, lossy, 1, 2)
			target, err := b.Program().CompileGlobalExpr("got == 2")
			if err != nil {
				t.Fatal(err)
			}
			if res := checker.New(b.System(), checker.Options{}).CheckReachable(target); !res.OK {
				t.Error("lossy(2): duplication should make got==2 reachable from one send")
			}

			fifo := lossy.WithChannel(FIFOQueue, 2)
			b = buildLossy(t, lib, fifo, 1, 2)
			if res := checker.New(b.System(), checker.Options{}).CheckReachable(target); res.OK {
				t.Error("fifo(2): got==2 must be unreachable from a single send")
			}
		})
	}
}
