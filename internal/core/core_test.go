package core

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"pnp/internal/adl"
	"pnp/internal/blocks"
	"pnp/internal/checker"
	"pnp/internal/pnprt"
)

func TestCatalogMatchesPaperFigure1(t *testing.T) {
	cat := Catalog()
	byKind := map[string]int{}
	names := map[string]bool{}
	for _, b := range cat {
		byKind[b.Kind]++
		names[b.Name] = true
		if b.Description == "" {
			t.Errorf("%s has no description", b.Name)
		}
	}
	if byKind["send-port"] != 5 {
		t.Errorf("send ports = %d, want 5 (Fig. 1)", byKind["send-port"])
	}
	if byKind["recv-port"] != 2 {
		t.Errorf("recv ports = %d, want 2", byKind["recv-port"])
	}
	if byKind["channel"] != 5 {
		t.Errorf("channels = %d, want 5 (1-slot, FIFO, priority, dropping + lossy)", byKind["channel"])
	}
	// Every cataloged block must exist as a compiled model in the library.
	b, err := blocks.NewBuilder("", nil)
	if err != nil {
		t.Fatal(err)
	}
	for name := range names {
		if b.Program().Proc(name) == nil {
			t.Errorf("catalog entry %s has no library model", name)
		}
	}
}

const counterComponents = `
byte sent, got;
proctype Producer(chan esig; chan edat; byte n) {
	byte i;
	mtype st;
	do
	:: i < n ->
	   sent = sent + 1;
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
	:: got < n ->
	   rdat!0,0,0,0,1;
	   rsig?st,_;
	   rdat?d,sid,sd,sel,rem;
	   if
	   :: st == RECV_SUCC -> got = got + 1
	   :: else
	   fi
	:: else -> break
	od
}
`

func pipeline() *Design {
	d := NewDesign("pipeline", counterComponents)
	d.AddConnector("Wire", blocks.ConnectorSpec{
		Send: blocks.AsynBlockingSend, Channel: blocks.FIFOQueue, Size: 2, Recv: blocks.BlockingRecv,
	})
	d.AddInstance("prod", "Producer", 1, SendTo("Wire"), IntArg(2))
	d.AddInstance("cons", "Consumer", 1, RecvFrom("Wire"), IntArg(2))
	d.AddInvariant("conservation", "got <= sent")
	return d
}

func TestDesignVerify(t *testing.T) {
	res, err := pipeline().Verify(nil, checker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllOK() {
		for name, r := range res {
			if !r.OK {
				t.Errorf("%s: %s", name, r.Summary())
			}
		}
	}
}

func TestPlugOperationsDoNotMutateOriginal(t *testing.T) {
	d := pipeline()
	d2, err := d.WithSendPort("Wire", blocks.SynBlockingSend)
	if err != nil {
		t.Fatal(err)
	}
	if d.Connectors[0].Spec.Send != blocks.AsynBlockingSend {
		t.Error("WithSendPort mutated the original design")
	}
	if d2.Connectors[0].Spec.Send != blocks.SynBlockingSend {
		t.Error("WithSendPort did not apply")
	}
	d3, err := d2.WithChannel("Wire", blocks.SingleSlot, 0)
	if err != nil {
		t.Fatal(err)
	}
	d4, err := d3.WithRecvPort("Wire", blocks.NonblockingRecv)
	if err != nil {
		t.Fatal(err)
	}
	if d4.Connectors[0].Spec.Channel != blocks.SingleSlot ||
		d4.Connectors[0].Spec.Recv != blocks.NonblockingRecv {
		t.Errorf("chained plugs = %+v", d4.Connectors[0].Spec)
	}
	if _, err := d.WithSendPort("NoSuch", blocks.SynBlockingSend); err == nil {
		t.Error("unknown connector accepted")
	}
}

func TestDesignSwappedVariantStillVerifies(t *testing.T) {
	cache := blocks.NewCache()
	d := pipeline()
	if _, err := d.Verify(cache, checker.Options{}); err != nil {
		t.Fatal(err)
	}
	d2, err := d.WithSendPort("Wire", blocks.SynBlockingSend)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d2.Verify(cache, checker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllOK() {
		t.Fatalf("swapped design failed: %v", res["safety"].Summary())
	}
	hits, misses := cache.Stats()
	if misses != 1 || hits != 1 {
		t.Errorf("cache stats = %d hits / %d misses; component models should be reused", hits, misses)
	}
}

func TestDesignLTL(t *testing.T) {
	d := pipeline()
	d.AddLTL("monotone", "[] (some -> X (some || true))", map[string]string{"some": "sent > 0"})
	res, err := d.Verify(nil, checker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := res["monotone"]; !r.OK {
		t.Errorf("monotone: %s", r.Summary())
	}
}

func TestDesignErrors(t *testing.T) {
	d := NewDesign("bad", "")
	d.AddConnector("C", blocks.ConnectorSpec{})
	if _, err := d.Build(nil); err == nil {
		t.Error("invalid connector spec accepted")
	}

	d2 := NewDesign("bad2", "")
	d2.AddConnector("C", blocks.ConnectorSpec{
		Send: blocks.AsynBlockingSend, Channel: blocks.SingleSlot, Recv: blocks.BlockingRecv,
	})
	d2.AddInstance("x", "NoProc", 1, SendTo("C"))
	if _, err := d2.Build(nil); err == nil || !strings.Contains(err.Error(), "NoProc") {
		t.Errorf("err = %v", err)
	}

	d3 := NewDesign("bad3", "")
	d3.AddConnector("C", blocks.ConnectorSpec{
		Send: blocks.AsynBlockingSend, Channel: blocks.SingleSlot, Recv: blocks.BlockingRecv,
	})
	d3.AddInstance("x", "PnPSender", 1, SendTo("Nowhere"), IntArg(1), IntArg(0))
	if _, err := d3.Build(nil); err == nil || !strings.Contains(err.Error(), "Nowhere") {
		t.Errorf("err = %v", err)
	}
}

func TestRuntimeConnectorFromDesign(t *testing.T) {
	d := pipeline()
	conn, err := d.RuntimeConnector("Wire")
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
	if st, err := snd.Send(ctx, pnprt.Message{Data: "x"}); err != nil || st != pnprt.SendSucc {
		t.Fatalf("Send = %v, %v", st, err)
	}
	if st, m, err := rcv.Receive(ctx, pnprt.RecvRequest{}); err != nil || st != pnprt.RecvSucc || m.Data != "x" {
		t.Fatalf("Receive = %v, %v, %v", st, m, err)
	}
	if _, err := d.RuntimeConnector("NoSuch"); err == nil {
		t.Error("unknown connector accepted")
	}
}

// TestADLDeterministic: the rendering is the design's submission key
// input, so it must not depend on map order.
func TestADLDeterministic(t *testing.T) {
	d := pipeline()
	d.AddLTL("props", "[] (a -> <> (b || c))",
		map[string]string{"c": "got == 2", "a": "sent > 0", "b": "got > 0"})
	first, comps, err := d.ADL()
	if err != nil {
		t.Fatal(err)
	}
	if comps["pipeline.pml"] != counterComponents || len(comps) != 1 {
		t.Errorf("components = %v, want the design's one component file", comps)
	}
	for i := 0; i < 50; i++ {
		src, _, err := d.ADL()
		if err != nil {
			t.Fatal(err)
		}
		if src != first {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, src, first)
		}
	}
	if !strings.Contains(first, `{ a = "sent > 0"; b = "got > 0"; c = "got == 2"; }`) {
		t.Errorf("propositions not sorted:\n%s", first)
	}
}

func TestADLConnectorsRoundTrip(t *testing.T) {
	d := pipeline()
	d.AddConnector("Back", blocks.ConnectorSpec{
		Send: blocks.SynCheckingSend, Channel: blocks.SingleSlot, Recv: blocks.NonblockingRecv,
	})
	src, _, err := d.ADL()
	if err != nil {
		t.Fatal(err)
	}
	decls, err := adl.Connectors(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decls, d.Connectors) {
		t.Errorf("rendered connectors %+v, want %+v", decls, d.Connectors)
	}
}

func TestADLCountZeroIsOneInstance(t *testing.T) {
	d := NewDesign("zero", counterComponents)
	d.AddConnector("Wire", blocks.ConnectorSpec{
		Send: blocks.AsynBlockingSend, Channel: blocks.FIFOQueue, Size: 2, Recv: blocks.BlockingRecv,
	})
	d.AddInstance("prod", "Producer", 0, SendTo("Wire"), IntArg(2))
	d.AddInstance("cons", "Consumer", 1, RecvFrom("Wire"), IntArg(2))
	src, _, err := d.ADL()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "instance prod = Producer(send Wire, 2)") {
		t.Errorf("count 0 should render one plain instance:\n%s", src)
	}
	b, err := d.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two components, plus the channel and the two ports.
	if n := b.System().NumInstances(); n != 5 {
		t.Errorf("%d processes, want 5", n)
	}
}

// TestADLRejectsWhatItCannotRender: each error names the declaration,
// never a position in the generated text.
func TestADLRejectsWhatItCannotRender(t *testing.T) {
	spec := blocks.ConnectorSpec{Send: blocks.AsynBlockingSend, Channel: blocks.SingleSlot, Recv: blocks.BlockingRecv}
	for _, c := range []struct {
		name string
		edit func(d *Design)
		want string
	}{
		{"connector name", func(d *Design) { d.AddConnector("my pipe", spec) }, `connector "my pipe"`},
		{"instance name", func(d *Design) { d.AddInstance("2x", "Producer", 1, SendTo("Wire"), IntArg(1)) }, `instance "2x"`},
		{"component name", func(d *Design) { d.AddInstance("p2", "No Proc", 1) }, `component "No Proc"`},
		{"connector reference", func(d *Design) { d.AddInstance("p2", "Producer", 1, SendTo("a b"), IntArg(1)) }, `connector "a b"`},
		{"invariant quote", func(d *Design) { d.AddInvariant("quoted", `sent == "1"`) }, "invariant quoted"},
		{"formula newline", func(d *Design) { d.AddLTL("multi", "[] (a\n-> a)", map[string]string{"a": "sent > 0"}) }, "ltl multi"},
	} {
		d := pipeline()
		c.edit(d)
		_, _, err := d.ADL()
		if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "adl: line") {
			t.Errorf("%s: err = %v, want one naming %s", c.name, err, c.want)
		}
	}
}
