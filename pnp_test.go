package pnp_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"pnp"
	"pnp/internal/verifyd/client"
)

const facadeComponents = `
byte produced, consumed;
proctype Producer(chan esig; chan edat; byte n) {
	byte i;
	mtype st;
	do
	:: i < n ->
	   produced = produced + 1;
	   edat!i + 1,0,0,0,1;
	   esig?st,_;
	   i = i + 1
	:: else -> break
	od
}
proctype Consumer(chan rsig; chan rdat; byte n) {
	mtype st;
	byte d, sid, sd;
	bit sel, rem;
	do
	:: consumed < n ->
	   rdat!0,0,0,0,1;
	   rsig?st,_;
	   rdat?d,sid,sd,sel,rem;
	   if
	   :: st == RECV_SUCC -> consumed = consumed + 1
	   :: else
	   fi
	:: else -> break
	od
}
`

func facadeDesign() *pnp.Design {
	d := pnp.NewDesign("facade", facadeComponents)
	d.AddConnector("Wire", pnp.ConnectorSpec{
		Send: pnp.AsynBlockingSend, Channel: pnp.FIFOQueue, Size: 2, Recv: pnp.BlockingRecv,
	})
	d.AddInstance("p", "Producer", 1, pnp.SendTo("Wire"), pnp.IntArg(2))
	d.AddInstance("c", "Consumer", 1, pnp.RecvFrom("Wire"), pnp.IntArg(2))
	d.AddInvariant("bounded", "consumed <= produced")
	d.AddGoal("complete", "consumed == 2")
	return d
}

func TestFacadeVerify(t *testing.T) {
	results, err := facadeDesign().Verify(pnp.NewCache(), pnp.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !results.AllOK() {
		for name, r := range results {
			if !r.OK {
				t.Errorf("%s: %s", name, r.Summary())
			}
		}
	}
}

func TestFacadePlugAndReverify(t *testing.T) {
	cache := pnp.NewCache()
	d := facadeDesign()
	if _, err := d.Verify(cache, pnp.CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	d2, err := d.WithChannel("Wire", pnp.DroppingBuffer, 1)
	if err != nil {
		t.Fatal(err)
	}
	results, err := d2.Verify(cache, pnp.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if results["complete"].OK {
		t.Error("the dropping buffer should break the delivery goal")
	}
	if !results["safety"].OK {
		t.Errorf("safety should still hold: %s", results["safety"].Summary())
	}
}

func TestFacadeCatalog(t *testing.T) {
	cat := pnp.Catalog()
	if len(cat) != 12 {
		t.Errorf("catalog has %d entries, want 12", len(cat))
	}
}

func TestFacadeRuntime(t *testing.T) {
	sys := pnp.NewRuntimeSystem("facade")
	conn, err := sys.AddConnector("wire", pnp.ConnectorSpec{
		Send: pnp.SynBlockingSend, Channel: pnp.SingleSlot, Recv: pnp.BlockingRecv,
	})
	if err != nil {
		t.Fatal(err)
	}
	snd, err := conn.NewSender()
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := conn.NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		if _, err := snd.Send(ctx, pnp.Message{Data: 42}); err != nil {
			t.Errorf("send: %v", err)
		}
	}()
	st, m, err := rcv.Receive(ctx, pnp.RecvRequest{})
	if err != nil || st != pnp.RecvSucc || m.Data != 42 {
		t.Fatalf("receive = %v %v %v", st, m, err)
	}
	// The synchronous send returns only after its acknowledgement; wait
	// for it, or the deferred cancel races the ack and fails the send.
	<-sent
}

func TestFacadeADL(t *testing.T) {
	src := `
system s {
    components "c.pml"
    connector W { send syn-blocking channel single-slot receive blocking }
    instance p = Producer(send W, 1)
    instance c = Consumer(recv W, 1)
    goal complete "consumed == 1"
}`
	sys, err := pnp.LoadADL(src, func(path string) (string, error) {
		return facadeComponents, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	results := sys.VerifyAll(pnp.CheckOptions{})
	for name, r := range results {
		if !r.OK {
			t.Errorf("%s: %s", name, r.Summary())
		}
	}
}

func TestFacadeCounterexampleReadable(t *testing.T) {
	d := pnp.NewDesign("bad", `
byte hits;
proctype Bumper(chan esig; chan edat) {
	mtype st;
	edat!1,0,0,0,1;
	esig?st,_;
	hits = hits + 1
}`)
	d.AddConnector("W", pnp.ConnectorSpec{
		Send: pnp.AsynBlockingSend, Channel: pnp.FIFOQueue, Size: 2, Recv: pnp.BlockingRecv,
	})
	d.AddInstance("b", "Bumper", 2, pnp.SendTo("W"))
	d.AddInvariant("once", "hits <= 1")
	results, err := d.Verify(nil, pnp.CheckOptions{BFS: true})
	if err != nil {
		t.Fatal(err)
	}
	res := results["safety"]
	if res.OK {
		t.Fatal("two bumpers must exceed the invariant")
	}
	if res.Trace == nil || !strings.Contains(res.Trace.String(), "Bumper") {
		t.Errorf("counterexample unreadable:\n%v", res.Trace)
	}
}

// TestTutorialScenario keeps docs/TUTORIAL.md honest: the nonblocking
// send over a 1-slot FIFO loses jobs (goal fails); swapping to a blocking
// send fixes it with the same components.
func TestTutorialScenario(t *testing.T) {
	const componentModels = `
byte produced, done;
proctype Dispatcher(chan psig; chan pdat; byte jobs) {
	byte j;
	mtype st;
	do
	:: j < jobs ->
	   produced = produced + 1;
	   pdat!j + 1,0,0,0,1;
	   psig?st,_;
	   j = j + 1
	:: else -> break
	od
}
proctype Worker(chan rsig; chan rdat) {
	mtype st;
	byte d, sid, sd;
	bit sel, rem;
	end: do
	:: rdat!0,0,0,0,1;
	   rsig?st,_;
	   rdat?d,sid,sd,sel,rem;
	   if
	   :: st == RECV_SUCC -> done = done + 1
	   :: else
	   fi
	od
}`
	d := pnp.NewDesign("dispatcher", componentModels)
	d.AddConnector("Jobs", pnp.ConnectorSpec{
		Send:    pnp.AsynNonblockingSend,
		Channel: pnp.FIFOQueue, Size: 1,
		Recv: pnp.BlockingRecv,
	})
	d.AddInstance("dispatcher", "Dispatcher", 1, pnp.SendTo("Jobs"), pnp.IntArg(3))
	d.AddInstance("worker", "Worker", 2, pnp.RecvFrom("Jobs"))
	d.AddInvariant("no-invention", "done <= produced")
	d.AddGoal("all-jobs-done", "done == 3")

	cache := pnp.NewCache()
	results, err := d.Verify(cache, pnp.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !results["safety"].OK {
		t.Errorf("safety should hold: %s", results["safety"].Summary())
	}
	if results["all-jobs-done"].OK {
		t.Error("tutorial claims the nonblocking send loses jobs; goal unexpectedly held")
	}

	fixed, err := d.WithSendPort("Jobs", pnp.AsynBlockingSend)
	if err != nil {
		t.Fatal(err)
	}
	results, err = fixed.Verify(cache, pnp.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !results.AllOK() {
		for name, r := range results {
			if !r.OK {
				t.Errorf("fixed design: %s: %s", name, r.Summary())
			}
		}
	}
}

func TestFacadeObservability(t *testing.T) {
	// Verification side: progress snapshots and checker metrics.
	reg := pnp.NewMetricsRegistry()
	var finals int
	opts := pnp.CheckOptions{
		Metrics:          reg,
		ProgressInterval: time.Millisecond,
		Progress: func(p pnp.CheckProgress) {
			if p.Final {
				finals++
			}
		},
	}
	results, err := facadeDesign().Verify(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range results {
		if !r.OK {
			t.Fatalf("%s: %s", name, r.Summary())
		}
	}
	if finals == 0 {
		t.Fatal("no final progress snapshot delivered")
	}
	if v := reg.Counter(pnp.MetricLabels("checker_states_stored_total", "phase", "safety-dfs")).Value(); v == 0 {
		t.Fatal("checker metrics not collected")
	}

	// Runtime side: instrumented connector plus a live MSC tap.
	live := pnp.NewLiveTrace(0)
	conn, err := pnp.NewConnector("wire", pnp.ConnectorSpec{
		Send: pnp.AsynBlockingSend, Channel: pnp.FIFOQueue, Size: 2, Recv: pnp.BlockingRecv,
	}, pnp.WithMetrics(reg), pnp.WithTrace(pnp.MSCTap(live)))
	if err != nil {
		t.Fatal(err)
	}
	snd, err := conn.NewSender()
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := conn.NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(conn.Stop)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := snd.Send(ctx, pnp.Message{Data: "ping"}); err != nil {
		t.Fatal(err)
	}
	if st, _, err := rcv.Receive(ctx, pnp.RecvRequest{}); err != nil || st != pnp.RecvSucc {
		t.Fatalf("receive = %v, %v", st, err)
	}
	if v := reg.Counter(pnp.MetricLabels("pnprt_port_sends_total", "connector", "wire", "port", "send0")).Value(); v != 1 {
		t.Fatalf("port sends = %d, want 1", v)
	}
	msc := live.MSC(nil)
	for _, want := range []string{"wire.send0", "SEND_SUCC", "ping"} {
		if !strings.Contains(msc, want) {
			t.Fatalf("live MSC missing %q:\n%s", want, msc)
		}
	}

	// Exposition carries both sides of the story.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"checker_states_stored_total", "pnprt_channel_delivered_total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}

// TestFacadeDesignIsServable: a design built with the facade renders to
// the ADL document the service runs, and the service agrees with the
// in-process Verify on every property's verdict and state count.
func TestFacadeDesignIsServable(t *testing.T) {
	local, err := facadeDesign().Verify(nil, pnp.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src, comps, err := facadeDesign().ADL()
	if err != nil {
		t.Fatal(err)
	}
	s := serveSingleNode(t)
	t.Cleanup(func() { s.svc.Shutdown(context.Background()) })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := pnp.NewClient(s.base)
	job, err := cl.Submit(ctx, client.JobRequest{ADL: src, Components: comps})
	if err != nil {
		t.Fatal(err)
	}
	if job, err = cl.Wait(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	if job.Report == nil || len(job.Report.Properties) != len(local) {
		t.Fatalf("remote report %+v, want %d properties", job.Report, len(local))
	}
	for _, p := range job.Report.Properties {
		r, ok := local[p.Name]
		if !ok {
			t.Errorf("remote property %q not verified locally", p.Name)
			continue
		}
		if p.OK != r.OK || p.States != r.Stats.StatesStored {
			t.Errorf("%s: remote ok=%v states=%d, local ok=%v states=%d",
				p.Name, p.OK, p.States, r.OK, r.Stats.StatesStored)
		}
	}
}
