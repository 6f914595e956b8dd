package blocks

import (
	"strings"
	"testing"

	"pnp/internal/checker"
	"pnp/internal/model"
	"pnp/internal/pml"
)

func TestLibraryCompiles(t *testing.T) {
	prog, err := pml.CompileSource(LibrarySource)
	if err != nil {
		t.Fatalf("library does not compile: %v", err)
	}
	want := []string{
		"SynBlSendPort", "SynCheckSendPort", "AsynBlSendPort",
		"AsynCheckSendPort", "AsynNbSendPort",
		"BlRecvPort", "NbRecvPort",
		"SingleSlotChannel", "FifoChannel", "PriorityChannel", "DroppingChannel",
		"LossyChannel",
		"PnPSender", "PnPReceiver",
	}
	for _, name := range want {
		if prog.Proc(name) == nil {
			t.Errorf("library lacks proctype %s", name)
		}
	}
	for _, sig := range []string{"SEND_SUCC", "SEND_FAIL", "IN_OK", "IN_FAIL",
		"OUT_OK", "OUT_FAIL", "RECV_OK", "RECV_SUCC", "RECV_FAIL"} {
		if _, ok := prog.MtypeValue(sig); !ok {
			t.Errorf("library lacks signal %s", sig)
		}
	}
}

func TestConnectorSpecValidate(t *testing.T) {
	good := ConnectorSpec{Send: SynBlockingSend, Channel: FIFOQueue, Size: 5, Recv: BlockingRecv}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []ConnectorSpec{
		{Send: 0, Channel: SingleSlot, Recv: BlockingRecv},
		{Send: SynBlockingSend, Channel: 0, Recv: BlockingRecv},
		{Send: SynBlockingSend, Channel: SingleSlot, Recv: 0},
		{Send: SynBlockingSend, Channel: FIFOQueue, Size: 0, Recv: BlockingRecv},
		{Send: SynBlockingSend, Channel: FIFOQueue, Size: 99, Recv: BlockingRecv},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestSpecPlugOperations(t *testing.T) {
	s := ConnectorSpec{Send: AsynBlockingSend, Channel: SingleSlot, Recv: BlockingRecv}
	s2 := s.WithSend(SynBlockingSend)
	if s2.Send != SynBlockingSend || s2.Channel != SingleSlot || s2.Recv != BlockingRecv {
		t.Errorf("WithSend = %+v", s2)
	}
	if s.Send != AsynBlockingSend {
		t.Errorf("WithSend mutated the receiver")
	}
	s3 := s.WithChannel(FIFOQueue, 5).WithRecv(NonblockingRecv)
	if s3.Channel != FIFOQueue || s3.Size != 5 || s3.Recv != NonblockingRecv {
		t.Errorf("chained plugs = %+v", s3)
	}
	if got := s3.String(); !strings.Contains(got, "FifoChannel(5)") {
		t.Errorf("String = %q", got)
	}
}

// newBuilder compiles the library with the component source src into a
// Builder with an empty system.
func newBuilder(t *testing.T, src string) *Builder {
	t.Helper()
	full := LibrarySource + "\n" + src
	prog, err := pml.CompileSource(full)
	if err != nil {
		t.Fatal(err)
	}
	return NewBuilderFromProgram(prog, full)
}

// buildPipe composes sender -> connector -> receiver with PnP library
// components, sending n messages with the given tag.
func buildPipe(t *testing.T, spec ConnectorSpec, n int) *Builder {
	t.Helper()
	b := newBuilder(t, "")
	conn, err := b.NewConnector("pipe", spec)
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
	if _, err := b.Spawn("PnPSender", model.Chan(snd.Sig), model.Chan(snd.Dat),
		model.Int(int64(n)), model.Int(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Spawn("PnPReceiver", model.Chan(rcv.Sig), model.Chan(rcv.Dat),
		model.Int(int64(n))); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPipeVerifiesAcrossPortMatrix(t *testing.T) {
	// Every send port x recv port over a single-slot channel moves two
	// messages without deadlock or assertion failure.
	sends := []SendPortKind{AsynNonblockingSend, AsynBlockingSend, AsynCheckingSend,
		SynBlockingSend, SynCheckingSend}
	recvs := []RecvPortKind{BlockingRecv, NonblockingRecv}
	for _, sp := range sends {
		for _, rp := range recvs {
			spec := ConnectorSpec{Send: sp, Channel: SingleSlot, Recv: rp}
			b := buildPipe(t, spec, 2)
			res := checker.New(b.System(), checker.Options{}).CheckSafety()
			// Checking and nonblocking ports surface failure statuses the
			// stock components retry through or ignore; the pipe must never
			// deadlock. (The PnP sender ignores SEND_FAIL, so with checking
			// ports a message can be lost and the receiver then waits
			// forever; that waiting is a live busy retry, not a deadlock.)
			if !res.OK && res.Kind == checker.Deadlock {
				t.Errorf("%s: deadlock:\n%s", spec, res.Trace)
			}
			if !res.OK && res.Kind == checker.Assertion {
				t.Errorf("%s: assertion: %s", spec, res.Message)
			}
		}
	}
}

func TestPipeDeliversAllMessages(t *testing.T) {
	// With blocking ports and a FIFO buffer nothing is lost: the system
	// terminates with every process at a valid end state.
	spec := ConnectorSpec{Send: AsynBlockingSend, Channel: FIFOQueue, Size: 2, Recv: BlockingRecv}
	b := buildPipe(t, spec, 3)
	res := checker.New(b.System(), checker.Options{}).CheckSafety()
	if !res.OK {
		t.Fatalf("pipe failed: %s\n%s", res.Summary(), res.Trace)
	}
}

// orderingWitness explores the system tracking whether an event containing
// `early` can occur on some path before any event containing `late`.
func orderingWitness(t *testing.T, sys *model.System, early, late string, maxStates int) bool {
	t.Helper()
	type node struct {
		st       *model.State
		lateSeen bool
	}
	visited := map[string]bool{}
	start := node{st: sys.InitialState()}
	queue := []node{start}
	visited[start.st.Key()+"|f"] = true
	for len(queue) > 0 {
		if len(visited) > maxStates {
			t.Fatalf("ordering search exceeded %d states", maxStates)
		}
		cur := queue[0]
		queue = queue[1:]
		for _, tr := range sys.Successors(cur.st) {
			if tr.Violation != "" {
				continue
			}
			label := sys.FormatTransition(tr)
			if strings.Contains(label, early) && !cur.lateSeen {
				return true
			}
			next := node{st: tr.Next, lateSeen: cur.lateSeen || strings.Contains(label, late)}
			suffix := "|f"
			if next.lateSeen {
				suffix = "|t"
			}
			key := next.st.Key() + suffix
			if visited[key] {
				continue
			}
			visited[key] = true
			queue = append(queue, next)
		}
	}
	return false
}

// TestFig4AsyncOrdering and TestFig4SyncOrdering reproduce the paper's
// Figure 4 scenarios: with an asynchronous blocking send the component may
// observe SEND_SUCC before the receiver has the message (before RECV_OK);
// with a synchronous blocking send it never does.
func TestFig4AsyncOrdering(t *testing.T) {
	spec := ConnectorSpec{Send: AsynBlockingSend, Channel: SingleSlot, Recv: BlockingRecv}
	b := buildPipe(t, spec, 1)
	if !orderingWitness(t, b.System(), "SEND_SUCC", "RECV_OK", 200000) {
		t.Error("async blocking send: no path delivers SEND_SUCC before RECV_OK")
	}
}

func TestFig4SyncOrdering(t *testing.T) {
	spec := ConnectorSpec{Send: SynBlockingSend, Channel: SingleSlot, Recv: BlockingRecv}
	b := buildPipe(t, spec, 1)
	if orderingWitness(t, b.System(), "SEND_SUCC", "RECV_OK", 200000) {
		t.Error("sync blocking send: SEND_SUCC observed before RECV_OK")
	}
}

func TestCheckingPortReportsSendFail(t *testing.T) {
	// A checking send into a full single-slot buffer with no receiver must
	// surface SEND_FAIL to the component.
	src := `
byte fails;
proctype CheckSender(chan portSig; chan portDat) {
	mtype st;
	portDat!1,0,0,0,1;
	portSig?st,_;
	portDat!2,0,0,0,1;
	portSig?st,_;
	if
	:: st == SEND_FAIL -> fails = 1
	:: else
	fi
}`
	b := newBuilder(t, src)
	spec := ConnectorSpec{Send: AsynCheckingSend, Channel: SingleSlot, Recv: BlockingRecv}
	conn, err := b.NewConnector("c", spec)
	if err != nil {
		t.Fatal(err)
	}
	snd, err := conn.AddSender("s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Spawn("CheckSender", model.Chan(snd.Sig), model.Chan(snd.Dat)); err != nil {
		t.Fatal(err)
	}
	inv, err := checker.InvariantFromSource(b.Program(), "neverFails", "fails == 0")
	if err != nil {
		t.Fatal(err)
	}
	res := checker.New(b.System(), checker.Options{Invariants: []checker.Invariant{inv}}).CheckSafety()
	if res.OK || res.Kind != checker.InvariantViolation {
		t.Fatalf("expected SEND_FAIL witness, got %s", res.Summary())
	}
}

func TestDroppingChannelLosesMessages(t *testing.T) {
	// The sender fires both messages into the buffer before the receiver
	// starts (the receiver is gated on allSent). With a dropping buffer of
	// size 1 the second message is discarded, so got==2 is unreachable;
	// with a FIFO of size 2 both survive and got==2 is reachable.
	src := `
byte got, allSent;
proctype GatedSender(chan portSig; chan portDat) {
	mtype st;
	portDat!1,0,0,0,1;
	portSig?st,_;
	portDat!2,0,0,0,1;
	portSig?st,_;
	allSent = 1
}
proctype GatedReceiver(chan portSig; chan portDat) {
	mtype st;
	byte d, sid, sd;
	bit sel, rem;
	allSent == 1;
	do
	:: got < 2 ->
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
	build := func(ch ChannelKind, size int) *Builder {
		b := newBuilder(t, src)
		// Blocking send: the sender cannot set allSent until both messages
		// have actually entered the channel, making the drop deterministic.
		spec := ConnectorSpec{Send: AsynBlockingSend, Channel: ch, Size: size, Recv: BlockingRecv}
		conn, err := b.NewConnector("c", spec)
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
		if _, err := b.Spawn("GatedSender", model.Chan(snd.Sig), model.Chan(snd.Dat)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Spawn("GatedReceiver", model.Chan(rcv.Sig), model.Chan(rcv.Dat)); err != nil {
			t.Fatal(err)
		}
		return b
	}
	reachableGotBoth := func(b *Builder) bool {
		target, err := b.Program().CompileGlobalExpr("got == 2")
		if err != nil {
			t.Fatal(err)
		}
		res := checker.New(b.System(), checker.Options{}).CheckReachable(target)
		return res.OK
	}

	if reachableGotBoth(build(DroppingBuffer, 1)) {
		t.Error("dropping buffer of size 1: got==2 should be unreachable (one message dropped)")
	}
	if !reachableGotBoth(build(FIFOQueue, 2)) {
		t.Error("FIFO of size 2: got==2 should be reachable (nothing dropped)")
	}
}

func TestSelectiveReceiveFromFifo(t *testing.T) {
	src := `
byte sel2, sel1;
byte allSent;
proctype TwoTagSender(chan portSig; chan portDat) {
	mtype st;
	portDat!10,0,1,0,1;
	portSig?st,_;
	portDat!20,0,2,0,1;
	portSig?st,_;
	allSent = 1
}
proctype SelReceiver(chan portSig; chan portDat) {
	mtype st;
	byte d, sid, sd;
	bit sel, rem;
	allSent == 1;
	portDat!0,0,2,1,1;
	portSig?st,_;
	portDat?d,sid,sd,sel,rem;
	sel2 = d;
	portDat!0,0,1,1,1;
	portSig?st,_;
	portDat?d,sid,sd,sel,rem;
	sel1 = d
}`
	b := newBuilder(t, src)
	spec := ConnectorSpec{Send: AsynBlockingSend, Channel: FIFOQueue, Size: 2, Recv: BlockingRecv}
	conn, err := b.NewConnector("c", spec)
	if err != nil {
		t.Fatal(err)
	}
	snd, _ := conn.AddSender("s")
	rcv, _ := conn.AddReceiver("r")
	if _, err := b.Spawn("TwoTagSender", model.Chan(snd.Sig), model.Chan(snd.Dat)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Spawn("SelReceiver", model.Chan(rcv.Sig), model.Chan(rcv.Dat)); err != nil {
		t.Fatal(err)
	}
	target, err := b.Program().CompileGlobalExpr("sel2 == 20 && sel1 == 10")
	if err != nil {
		t.Fatal(err)
	}
	res := checker.New(b.System(), checker.Options{}).CheckReachable(target)
	if !res.OK {
		t.Fatalf("selective receive failed: %s", res.Summary())
	}
}

func TestPriorityChannelOrdersDeliveries(t *testing.T) {
	src := `
byte allSent;
byte g1, g2, g3;
proctype PrioSender(chan portSig; chan portDat) {
	mtype st;
	portDat!3,0,3,0,1;
	portSig?st,_;
	portDat!1,0,1,0,1;
	portSig?st,_;
	portDat!2,0,2,0,1;
	portSig?st,_;
	allSent = 1
}
proctype PrioReceiver(chan portSig; chan portDat) {
	mtype st;
	byte d, sid, sd;
	bit sel, rem;
	allSent == 1;
	portDat!0,0,0,0,1;
	portSig?st,_;
	portDat?d,sid,sd,sel,rem;
	g1 = d;
	portDat!0,0,0,0,1;
	portSig?st,_;
	portDat?d,sid,sd,sel,rem;
	g2 = d;
	portDat!0,0,0,0,1;
	portSig?st,_;
	portDat?d,sid,sd,sel,rem;
	g3 = d
}`
	b := newBuilder(t, src)
	spec := ConnectorSpec{Send: AsynBlockingSend, Channel: PriorityQueue, Size: 3, Recv: BlockingRecv}
	conn, err := b.NewConnector("c", spec)
	if err != nil {
		t.Fatal(err)
	}
	snd, _ := conn.AddSender("s")
	rcv, _ := conn.AddReceiver("r")
	if _, err := b.Spawn("PrioSender", model.Chan(snd.Sig), model.Chan(snd.Dat)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Spawn("PrioReceiver", model.Chan(rcv.Sig), model.Chan(rcv.Dat)); err != nil {
		t.Fatal(err)
	}
	target, err := b.Program().CompileGlobalExpr("g1 == 1 && g2 == 2 && g3 == 3")
	if err != nil {
		t.Fatal(err)
	}
	res := checker.New(b.System(), checker.Options{}).CheckReachable(target)
	if !res.OK {
		t.Fatalf("priority delivery order wrong: %s", res.Summary())
	}
	// Priority must always be respected: the first delivery is never the
	// lowest-priority message.
	inv, err := checker.InvariantFromSource(b.Program(), "prio", "g1 != 3")
	if err != nil {
		t.Fatal(err)
	}
	res2 := checker.New(b.System(), checker.Options{Invariants: []checker.Invariant{inv}}).CheckSafety()
	if !res2.OK {
		t.Fatalf("priority inverted: %s\n%s", res2.Summary(), res2.Trace)
	}
}

// TestDeliveryEventualityUnderFairness documents the fairness semantics
// of the retry-loop port models precisely: the starvation cycle (send
// port retries IN_FAIL forever while the receive port never forwards) is
// *weakly* fair, because the receive port is only intermittently enabled
// — the channel disables it during each retry round trip. So even under
// weak fairness (Spin's -f would agree) the eventuality fails, and the
// right delivery property is the fairness-independent AG EF goal, which
// holds.
func TestDeliveryEventualityUnderFairness(t *testing.T) {
	src := `
byte got;
proctype CountReceiver(chan portSig; chan portDat) {
	mtype st;
	byte d, sid, sd;
	bit sel, rem;
	do
	:: got < 2 ->
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
	b := newBuilder(t, src)
	spec := ConnectorSpec{Send: AsynBlockingSend, Channel: SingleSlot, Recv: BlockingRecv}
	conn, err := b.NewConnector("c", spec)
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
	if _, err := b.Spawn("PnPSender", model.Chan(snd.Sig), model.Chan(snd.Dat),
		model.Int(2), model.Int(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Spawn("CountReceiver", model.Chan(rcv.Sig), model.Chan(rcv.Dat)); err != nil {
		t.Fatal(err)
	}
	props, err := checker.PropsFromSource(b.Program(), map[string]string{"gotBoth": "got == 2"})
	if err != nil {
		t.Fatal(err)
	}
	unfair := checker.New(b.System(), checker.Options{}).CheckLTL("<> gotBoth", props)
	if unfair.OK {
		t.Fatal("without fairness <>gotBoth should fail (retry-loop starvation)")
	}
	fair := checker.New(b.System(), checker.Options{WeakFairness: true}).CheckLTL("<> gotBoth", props)
	if fair.OK {
		t.Log("note: weak fairness sufficed here (scheduling resolved the retry race)")
	} else if fair.Kind != checker.AcceptanceCycle {
		t.Fatalf("unexpected failure kind: %s", fair.Summary())
	}
	// The fairness-independent delivery property: completion always stays
	// reachable.
	target, err := b.Program().CompileGlobalExpr("got == 2")
	if err != nil {
		t.Fatal(err)
	}
	goal := checker.New(b.System(), checker.Options{}).CheckEventuallyReachable(target)
	if !goal.OK {
		t.Fatalf("AG EF gotBoth should hold: %s", goal.Summary())
	}
	// And under STRONG fairness the plain eventuality is provable: the
	// receive port is enabled infinitely often in the starvation cycle's
	// SCC, so it must eventually move and delivery completes.
	sf := checker.New(b.System(), checker.Options{StrongFairness: true}).CheckLTL("<> gotBoth", props)
	if !sf.OK {
		t.Fatalf("under strong fairness <>gotBoth should hold: %s\n%s", sf.Summary(), sf.Trace)
	}
}

func TestBuilderRejectsBadComponentSource(t *testing.T) {
	if _, err := pml.CompileSource(LibrarySource + "\nproctype Broken( {"); err == nil {
		t.Error("bad component source accepted")
	}
}

func TestMultipleSendersShareChannel(t *testing.T) {
	// Two senders, one receiver over one FIFO connector: all four messages
	// arrive (the receiver counts to 4), no deadlock.
	src := `
byte got;
proctype Counter(chan portSig; chan portDat) {
	mtype st;
	byte d, sid, sd;
	bit sel, rem;
	do
	:: got < 4 ->
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
	b := newBuilder(t, src)
	spec := ConnectorSpec{Send: AsynBlockingSend, Channel: FIFOQueue, Size: 2, Recv: BlockingRecv}
	conn, err := b.NewConnector("c", spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"s1", "s2"} {
		ep, err := conn.AddSender(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Spawn("PnPSender", model.Chan(ep.Sig), model.Chan(ep.Dat),
			model.Int(2), model.Int(0)); err != nil {
			t.Fatal(err)
		}
	}
	rcv, err := conn.AddReceiver("r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Spawn("Counter", model.Chan(rcv.Sig), model.Chan(rcv.Dat)); err != nil {
		t.Fatal(err)
	}
	res := checker.New(b.System(), checker.Options{}).CheckSafety()
	if !res.OK {
		t.Fatalf("two-sender FIFO failed: %s\n%s", res.Summary(), res.Trace)
	}
	target, err := b.Program().CompileGlobalExpr("got == 4")
	if err != nil {
		t.Fatal(err)
	}
	res2 := checker.New(b.System(), checker.Options{}).CheckReachable(target)
	if !res2.OK {
		t.Fatalf("not all messages delivered: %s", res2.Summary())
	}
}
