package abp

import (
	"testing"

	"pnp/internal/blocks"
	"pnp/internal/checker"
	"pnp/internal/model"
	"pnp/internal/pml"
)

// pinCounts checks a safety search's stored / matched / transitions /
// depth against the literals recorded for it. They hold at any worker
// count of the level engine; the tests run it at one.
func pinCounts(t *testing.T, r *checker.Result, stored, matched, transitions, depth int) {
	t.Helper()
	if s := r.Stats; s.StatesStored != stored || s.StatesMatched != matched ||
		s.Transitions != transitions || s.MaxDepth != depth {
		t.Errorf("safety stats %d / %d / %d / %d, want %d / %d / %d / %d",
			s.StatesStored, s.StatesMatched, s.Transitions, s.MaxDepth, stored, matched, transitions, depth)
	}
}

func TestABPOverLossyChannels(t *testing.T) {
	res, err := Verify(Config{Payloads: 2}, nil, checker.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Safety.OK {
		t.Fatalf("safety failed: %s\n%s", res.Safety.Summary(), res.Safety.Trace)
	}
	if !res.Delivery.OK {
		t.Fatalf("delivery goal failed: %s\n%s", res.Delivery.Summary(), res.Delivery.Trace)
	}
	pinCounts(t, res.Safety, 15719, 9172, 24890, 169)
}

func TestABPThreePayloads(t *testing.T) {
	res, err := Verify(Config{Payloads: 3}, nil, checker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Safety.OK || !res.Delivery.OK {
		t.Fatalf("safety=%s delivery=%s", res.Safety.Summary(), res.Delivery.Summary())
	}
}

func TestABPReliableControl(t *testing.T) {
	res, err := Verify(Config{Payloads: 2, Reliable: true}, nil, checker.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Safety.OK || !res.Delivery.OK {
		t.Fatalf("safety=%s delivery=%s", res.Safety.Summary(), res.Delivery.Summary())
	}
	pinCounts(t, res.Safety, 9967, 4441, 14407, 212)
}

// TestABPOverflowControl: over overflow-dropping buffers the protocol
// verifies too, in a smaller state space than over lossy(1) channels.
func TestABPOverflowControl(t *testing.T) {
	res, err := Verify(Config{Payloads: 2, Overflow: true}, nil, checker.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Safety.OK || !res.Delivery.OK {
		t.Fatalf("safety=%s delivery=%s", res.Safety.Summary(), res.Delivery.Summary())
	}
	pinCounts(t, res.Safety, 12983, 7126, 20108, 169)
}

// TestNaiveTransferOverLossyChannelFails is the contrast experiment
// (E12, generalized): the same lossy(1) connector WITHOUT the protocol
// (plain send, count on receive) cannot guarantee completion — a message
// lost in transit is gone for good.
func TestNaiveTransferOverLossyChannelFails(t *testing.T) {
	const naive = `
byte delivered;
proctype NaiveSender(chan dsig; chan ddat; byte k) {
	byte i;
	mtype st;
	do
	:: i < k ->
	   ddat!i + 1,0,0,0,1;
	   dsig?st,_;
	   i = i + 1
	:: else -> break
	od
}
proctype NaiveReceiver(chan dsig; chan ddat; byte k) {
	mtype st;
	byte d, sid, sd;
	bit sel, rem;
	do
	:: delivered < k ->
	   ddat!0,0,0,0,1;
	   dsig?st,_;
	   ddat?d,sid,sd,sel,rem;
	   if
	   :: st == RECV_SUCC -> delivered = delivered + 1
	   :: else
	   fi
	:: else -> break
	od
}`
	full := blocks.LibrarySource + "\n" + naive
	prog, err := pml.CompileSource(full)
	if err != nil {
		t.Fatal(err)
	}
	b := blocks.NewBuilderFromProgram(prog, full)
	spec := blocks.ConnectorSpec{
		Send: blocks.AsynBlockingSend, Channel: blocks.LossyBuffer, Size: 1,
		Recv: blocks.NonblockingRecv,
	}
	conn, err := b.NewConnector("Data", spec)
	if err != nil {
		t.Fatal(err)
	}
	snd, err := conn.AddSender("s")
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := conn.AddReceiver("r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Spawn("NaiveSender", model.Chan(snd.Sig), model.Chan(snd.Dat), model.Int(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Spawn("NaiveReceiver", model.Chan(rcv.Sig), model.Chan(rcv.Dat), model.Int(2)); err != nil {
		t.Fatal(err)
	}
	target, err := b.Program().CompileGlobalExpr("delivered == 2")
	if err != nil {
		t.Fatal(err)
	}
	res := checker.New(b.System(), checker.Options{}).CheckEventuallyReachable(target)
	if res.OK {
		t.Fatal("naive transfer over a lossy channel should NOT guarantee delivery")
	}
}

// TestABPDeliveryEventuallyUnderStrongFairness: over overflow-dropping
// channels the full LTL eventuality holds under strong fairness
// (retransmission makes progress whenever the scheduler is fair to
// every intermittently enabled process). Over lossy channels it does
// NOT — the drop is the channel's own nondeterministic choice, which
// process fairness cannot forbid, so the lossy configuration states
// delivery as the AG EF goal instead (TestABPOverLossyChannels).
func TestABPDeliveryEventuallyUnderStrongFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("strong-fairness product is large")
	}
	b, err := Build(Config{Payloads: 1, Overflow: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	props, err := checker.PropsFromSource(b.Program(), map[string]string{"done": "delivered == 1"})
	if err != nil {
		t.Fatal(err)
	}
	res := checker.New(b.System(), checker.Options{StrongFairness: true}).CheckLTL("<> done", props)
	if !res.OK {
		t.Fatalf("<>done should hold under strong fairness: %s\n%s", res.Summary(), res.Trace)
	}
}

// TestABPEventualityRefutedOverLossyChannels pins the semantic boundary
// of the previous test: over lossy(1) channels the same eventuality is
// correctly refuted even under strong fairness, because the checker
// finds the run where the channel chooses to drop every retransmission.
func TestABPEventualityRefutedOverLossyChannels(t *testing.T) {
	if testing.Short() {
		t.Skip("strong-fairness product is large")
	}
	b, err := Build(Config{Payloads: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	props, err := checker.PropsFromSource(b.Program(), map[string]string{"done": "delivered == 1"})
	if err != nil {
		t.Fatal(err)
	}
	res := checker.New(b.System(), checker.Options{StrongFairness: true}).CheckLTL("<> done", props)
	if res.OK {
		t.Fatal("<>done must be refuted over lossy channels: fairness cannot force the channel's drop choice")
	}
}
