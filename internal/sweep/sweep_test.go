package sweep

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"pnp/internal/api"
	"pnp/internal/blocks"
	"pnp/internal/checker"
	"pnp/internal/model"
	"pnp/internal/obs"
	"pnp/internal/verifyd"
)

// pingPML is a minimal one-shot producer/consumer for fast cells.
const pingPML = `
byte got;
proctype Producer(chan esig; chan edat; byte n) {
	byte i;
	mtype st;
	do
	:: i < n ->
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

func pingSpec(msgs int) Spec {
	base := fmt.Sprintf(`system ping {
    components "ping.pml"

    connector pipe {
        send    syn-blocking
        channel fifo(1)
        receive blocking
    }

    instance p = Producer(send pipe, %d)
    instance c = Consumer(recv pipe, %d)

    invariant safety "got >= 0"
    goal delivered "got == %d"
}
`, msgs, msgs, msgs)
	return Spec{
		Name:       "ping",
		Base:       base,
		Components: map[string]string{"ping.pml": pingPML},
		Connector:  "pipe",
	}
}

func TestExpandMatrixShape(t *testing.T) {
	cells, err := Matrix(2, 1).Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 5 sends x 5 channels x 2 recvs primaries, plus an under-lossy
	// companion for each of the 40 non-lossy primaries.
	if len(cells) != 90 {
		t.Fatalf("Expand: got %d cells, want 90", len(cells))
	}
	primaries, companions := 0, 0
	for _, c := range cells {
		if c.Companion {
			companions++
			if c.Spec.Channel != blocks.LossyBuffer {
				t.Fatalf("companion cell %d has channel %v", c.Index, c.Spec.Channel)
			}
			prim := cells[c.Primary]
			if prim.Companion {
				t.Fatalf("companion cell %d points at companion %d", c.Index, c.Primary)
			}
			if prim.Spec.Send != c.Spec.Send || prim.Spec.Recv != c.Spec.Recv {
				t.Fatalf("companion cell %d does not match primary %d endpoints", c.Index, c.Primary)
			}
		} else {
			primaries++
			if c.Primary != c.Index {
				t.Fatalf("primary cell %d has Primary=%d", c.Index, c.Primary)
			}
		}
		if !strings.Contains(c.Source, c.Spec.Send.Token()) {
			t.Fatalf("cell %d source does not mention its send kind %s", c.Index, c.Spec.Send.Token())
		}
	}
	if primaries != 50 || companions != 40 {
		t.Fatalf("got %d primaries, %d companions; want 50, 40", primaries, companions)
	}
	// Every companion's source must coincide with the lossy primary of
	// the same send/recv/size — that is what the engine dedupes on.
	bySource := map[string]int{}
	for _, c := range cells {
		if !c.Companion {
			bySource[c.Source]++
		}
	}
	for _, c := range cells {
		if c.Companion {
			if bySource[c.Source] == 0 {
				t.Fatalf("companion cell %d has a source no primary shares", c.Index)
			}
		}
	}
}

func TestExpandPinsBaseDimensions(t *testing.T) {
	spec := pingSpec(1)
	spec.Channels = []ChannelVariant{{Kind: blocks.FIFOQueue, Size: 2}, {Kind: blocks.SingleSlot}}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	for _, c := range cells {
		if c.Spec.Send != blocks.SynBlockingSend || c.Spec.Recv != blocks.BlockingRecv {
			t.Fatalf("cell %d did not pin base endpoints: %s", c.Index, c.Connector)
		}
	}
	if cells[0].Spec.Size != 2 || cells[1].Spec.Size != 0 {
		t.Fatalf("channel sizes not honored: %d, %d", cells[0].Spec.Size, cells[1].Spec.Size)
	}
}

func TestExpandErrors(t *testing.T) {
	if _, err := (Spec{Base: "system x {\n}"}).Expand(); err == nil {
		t.Fatal("no connectors: want error")
	}
	spec := pingSpec(1)
	spec.Connector = "nosuch"
	if _, err := spec.Expand(); err == nil {
		t.Fatal("unknown connector: want error")
	}
	spec = pingSpec(1)
	spec.Channels = []ChannelVariant{{Kind: blocks.FIFOQueue, Size: blocks.MaxBufSize + 1}}
	if _, err := spec.Expand(); err == nil {
		t.Fatal("oversized channel: want error")
	}
}

// TestRunDedupCounters is the sweep-dedup acceptance test: N identical
// cells must run the checker once and count N-1 engine-level cache hits.
func TestRunDedupCounters(t *testing.T) {
	spec := pingSpec(1)
	// Three identical channel variants -> three cells with one source.
	spec.Channels = []ChannelVariant{
		{Kind: blocks.FIFOQueue, Size: 1},
		{Kind: blocks.FIFOQueue, Size: 1},
		{Kind: blocks.FIFOQueue, Size: 1},
	}
	reg := obs.NewRegistry()
	res, err := Run(context.Background(), spec, Config{Workers: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 3 || len(res.Cells) != 3 {
		t.Fatalf("got %d cells, want 3", res.Total)
	}
	if res.DedupHits != 2 {
		t.Fatalf("DedupHits = %d, want 2", res.DedupHits)
	}
	// One job ran, covering two properties; nothing was in the result
	// cache beforehand.
	if res.CacheMisses != 2 || res.CacheHits != 0 {
		t.Fatalf("job counters: hits=%d misses=%d, want 0/2", res.CacheHits, res.CacheMisses)
	}
	lead, follow := 0, 0
	for _, c := range res.Cells {
		if c.Deduped {
			follow++
			if c.Verdict != res.Cells[0].Verdict || c.States != res.Cells[0].States {
				t.Fatalf("deduped cell %d diverges from leader: %+v", c.Index, c)
			}
		} else {
			lead++
		}
	}
	if lead != 1 || follow != 2 {
		t.Fatalf("got %d leaders, %d followers; want 1, 2", lead, follow)
	}
	if got := reg.Counter("sweep_cells_total").Value(); got != 3 {
		t.Fatalf("sweep_cells_total = %v, want 3", got)
	}
	if got := reg.Counter("sweep_cache_hits_total").Value(); got != 2 {
		t.Fatalf("sweep_cache_hits_total = %v, want 2", got)
	}
	if got := reg.Counter("sweeps_total").Value(); got != 1 {
		t.Fatalf("sweeps_total = %v, want 1", got)
	}
	if got := reg.Gauge("sweep_cells_in_flight").Value(); got != 0 {
		t.Fatalf("sweep_cells_in_flight = %v, want 0 after the sweep", got)
	}
}

// TestRunSharedServerCacheReuse: a second sweep on the same server is
// answered entirely from the result cache.
func TestRunSharedServerCacheReuse(t *testing.T) {
	reg := obs.NewRegistry()
	srv := verifyd.NewServer(verifyd.Config{Workers: 2, Registry: reg})
	defer srv.Shutdown(context.Background())

	spec := pingSpec(1)
	spec.Channels = []ChannelVariant{{Kind: blocks.FIFOQueue, Size: 1}, {Kind: blocks.SingleSlot}}

	first, err := Run(context.Background(), spec, Config{Server: srv, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHits != 0 || first.CacheMisses != 4 {
		t.Fatalf("first sweep counters: hits=%d misses=%d, want 0/4", first.CacheHits, first.CacheMisses)
	}
	second, err := Run(context.Background(), spec, Config{Server: srv, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheMisses != 0 || second.CacheHits != 4 {
		t.Fatalf("second sweep counters: hits=%d misses=%d, want 4/0", second.CacheHits, second.CacheMisses)
	}
	for i, c := range second.Cells {
		if c.Verdict != first.Cells[i].Verdict || c.States != first.Cells[i].States {
			t.Fatalf("cached cell %d diverges: %+v vs %+v", i, c, first.Cells[i])
		}
	}
	// Fully cached cells count as sweep cache hits.
	if got := reg.Counter("sweep_cache_hits_total").Value(); got != 2 {
		t.Fatalf("sweep_cache_hits_total = %v, want 2", got)
	}
}

func TestRunStreamsInCellOrder(t *testing.T) {
	spec := pingSpec(1)
	spec.Recvs = []blocks.RecvPortKind{blocks.BlockingRecv, blocks.NonblockingRecv}
	var order []int
	_, err := Run(context.Background(), spec, Config{Workers: 2, OnCell: func(cr api.SweepCell) {
		order = append(order, cr.Index)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("OnCell order = %v, want [0 1]", order)
	}
}

func TestRunBadCellReportsError(t *testing.T) {
	spec := pingSpec(1)
	// Reference a component the resolver cannot supply.
	spec.Components = map[string]string{}
	res, err := Run(context.Background(), spec, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Cells[0].Err == "" {
		t.Fatalf("want a failed cell with Err, got %+v", res.Cells[0])
	}
}

func TestRunHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := pingSpec(1)
	if _, err := Run(ctx, spec, Config{Workers: 1}); err == nil {
		t.Fatal("canceled context: want error")
	}
}

func TestRanked(t *testing.T) {
	res := &api.SweepResult{Cells: []api.SweepCell{
		{Index: 0, Verdict: "may-lose-messages", States: 10},
		{Index: 1, Verdict: "delivers-all", States: 20},
		{Index: 2, Verdict: "delivers-all", States: 5},
		{Index: 3, Verdict: "deadlock", States: 1},
		{Index: 4, Verdict: "delivers-all", States: 5, Companion: true},
		{Index: 5, Err: "boom", Verdict: "error"},
	}}
	got := res.Ranked()
	want := []int{2, 1, 4, 0, 3, 5}
	for i, c := range got {
		if c.Index != want[i] {
			t.Fatalf("rank %d = cell %d, want %d (full: %v)", i, c.Index, want[i], got)
		}
	}
}

// TestMatrixParity is the acceptance criterion: the sweep engine's E12
// matrix must reproduce pnpmatrix's direct-composition loop cell for
// cell — identical verdicts, identical under-lossy verdicts, identical
// safety state counts.
func TestMatrixParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full E12 matrix is expensive; run without -short")
	}
	const msgs, bufsize = 2, 1
	res, err := Run(context.Background(), Matrix(msgs, bufsize), Config{
		Options: checker.Options{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := MatrixRows(res)
	if len(rows) != 50 {
		t.Fatalf("got %d rows, want 50", len(rows))
	}

	// The reference: pnpmatrix's original direct-composition loop.
	i := 0
	for _, snd := range []blocks.SendPortKind{
		blocks.AsynNonblockingSend, blocks.AsynBlockingSend, blocks.AsynCheckingSend,
		blocks.SynBlockingSend, blocks.SynCheckingSend,
	} {
		for _, ch := range []blocks.ChannelKind{
			blocks.SingleSlot, blocks.FIFOQueue, blocks.PriorityQueue,
			blocks.DroppingBuffer, blocks.LossyBuffer,
		} {
			for _, rcv := range []blocks.RecvPortKind{blocks.BlockingRecv, blocks.NonblockingRecv} {
				spec := blocks.ConnectorSpec{Send: snd, Channel: ch, Size: bufsize, Recv: rcv}
				if ch == blocks.SingleSlot {
					spec.Size = 0
				}
				verdict, states := referenceCell(t, spec, msgs)
				fspec := spec
				fspec.Channel = blocks.LossyBuffer
				if fspec.Size == 0 {
					fspec.Size = bufsize
				}
				underLossy, _ := referenceCell(t, fspec, msgs)

				row := rows[i]
				if row.Cell.Connector != spec.String() {
					t.Fatalf("row %d is %s, want %s", i, row.Cell.Connector, spec)
				}
				if row.Cell.Verdict != verdict {
					t.Errorf("%s: verdict %q, want %q", spec, row.Cell.Verdict, verdict)
				}
				if row.Cell.States != states {
					t.Errorf("%s: %d states, want %d", spec, row.Cell.States, states)
				}
				if row.UnderLossy != underLossy {
					t.Errorf("%s: under-lossy %q, want %q", spec, row.UnderLossy, underLossy)
				}
				i++
			}
		}
	}
}

// referenceCell is pnpmatrix's evaluate(), inlined as the parity oracle.
func referenceCell(t *testing.T, spec blocks.ConnectorSpec, msgs int) (string, int) {
	t.Helper()
	b, err := blocks.NewBuilder(matrixPML)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := b.NewConnector("pipe", spec)
	if err != nil {
		t.Fatal(err)
	}
	snd, err := conn.AddSender("p")
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := conn.AddReceiver("c")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Spawn("Producer", model.Chan(snd.Sig), model.Chan(snd.Dat), model.Int(int64(msgs))); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Spawn("Consumer", model.Chan(rcv.Sig), model.Chan(rcv.Dat), model.Int(int64(msgs))); err != nil {
		t.Fatal(err)
	}
	safety := checker.New(b.System(), checker.Options{Workers: 2}).CheckSafety()
	verdict := "delivers-all"
	switch {
	case !safety.OK && safety.Kind == checker.Deadlock:
		verdict = "deadlock"
	case !safety.OK:
		verdict = safety.Kind.String()
	default:
		target, err := b.Program().CompileGlobalExpr(fmt.Sprintf("got == %d", msgs))
		if err != nil {
			t.Fatal(err)
		}
		inev := checker.New(b.System(), checker.Options{Workers: 2}).CheckEventuallyReachable(target)
		if !inev.OK {
			verdict = "may-lose-messages"
		}
	}
	return verdict, safety.Stats.StatesStored
}

func TestRunTimeoutVerdict(t *testing.T) {
	spec := pingSpec(3)
	spec.Timeout = time.Nanosecond
	res, err := Run(context.Background(), spec, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A timed-out search reports the canceled violation kind, not a
	// delivery verdict — and must not be a cache hit.
	if res.Cells[0].Verdict != checker.Canceled.String() {
		t.Fatalf("verdict = %q, want %q", res.Cells[0].Verdict, checker.Canceled)
	}
}
