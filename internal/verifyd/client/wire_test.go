package client_test

// Wire tests: the client against the real service, single node and
// coordinator, over real HTTP.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"pnp/internal/cluster"
	"pnp/internal/obs/tracing"
	"pnp/internal/sweep"
	"pnp/internal/verifyd"
	"pnp/internal/verifyd/client"
)

const wireADL = `system wire {
    components "wire.pml"

    connector pipe {
        send    syn-blocking
        channel fifo(1)
        receive blocking
    }

    instance p = Producer(send pipe, 1)
    instance c = Consumer(recv pipe, 1)

    invariant safety "got >= 0"
    goal delivered "got == 1"
}
`

const wirePML = `
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

func newWireServer(t *testing.T) *client.Client {
	t.Helper()
	srv := verifyd.NewServer(verifyd.Config{Workers: 2})
	sv := sweep.NewService(sweep.Local(srv), nil)
	hs := httptest.NewServer(verifyd.NewHandler(verifyd.Routes(srv, sv.Routes()...)))
	t.Cleanup(func() {
		hs.Close()
		srv.Shutdown(context.Background())
		sv.Wait()
	})
	return client.New(hs.URL)
}

func TestWireJobRoundTrip(t *testing.T) {
	c := newWireServer(t)
	ctx := context.Background()
	job, err := c.Submit(ctx, client.JobRequest{
		ADL:        wireADL,
		Components: map[string]string{"wire.pml": wirePML},
	})
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != "done" || done.Report == nil {
		t.Fatalf("job %+v", done)
	}
	if !done.Report.OK || len(done.Report.Properties) != 2 {
		t.Fatalf("report %+v", done.Report)
	}
	if done.Report.Properties[0].Name != "safety" || done.Report.Properties[0].States == 0 {
		t.Fatalf("safety verdict %+v", done.Report.Properties[0])
	}

	list, err := c.Jobs(ctx, "done", "", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != job.ID || list.Jobs[0].OK == nil || !*list.Jobs[0].OK {
		t.Fatalf("list %+v", list)
	}

	if _, err := c.Job(ctx, "job-999"); err == nil {
		t.Fatal("missing job: want error")
	}
}

func TestWireSweepRoundTrip(t *testing.T) {
	c := newWireServer(t)
	ctx := context.Background()
	st, err := c.SubmitSweep(ctx, client.SweepSpec{
		Name:       "wire",
		Base:       wireADL,
		Components: map[string]string{"wire.pml": wirePML},
		Connector:  "pipe",
		Channels:   []string{"fifo(1)", "fifo(1)", "single-slot"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 3 {
		t.Fatalf("total = %d, want 3", st.Total)
	}
	var cells []client.SweepCell
	final, err := c.StreamSweep(ctx, st.ID, func(cell client.SweepCell) {
		cells = append(cells, cell)
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.Result == nil {
		t.Fatalf("final %+v", final)
	}
	if len(cells) != 3 {
		t.Fatalf("streamed %d cells, want 3", len(cells))
	}
	// Cells 0 and 1 share a source: exactly one dedup hit.
	if final.Result.DedupHits != 1 {
		t.Fatalf("dedup_hits = %d, want 1", final.Result.DedupHits)
	}
	if cells[1].Verdict != cells[0].Verdict || cells[1].States != cells[0].States || !cells[1].Deduped {
		t.Fatalf("deduped cell diverges: %+v vs %+v", cells[1], cells[0])
	}

	got, err := c.Sweep(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result == nil || got.Result.Total != 3 {
		t.Fatalf("sweep status %+v", got)
	}
}

// runWireJob submits the wire design through c and waits for it.
func runWireJob(t *testing.T, c *client.Client) *client.Job {
	t.Helper()
	ctx := context.Background()
	job, err := c.Submit(ctx, client.JobRequest{ADL: wireADL, Components: map[string]string{"wire.pml": wirePML}})
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	return done
}

// TestWireJobListCarriesTraceID: a traced node lists each job with the
// trace it recorded into.
func TestWireJobListCarriesTraceID(t *testing.T) {
	srv := verifyd.NewServer(verifyd.Config{Workers: 2, Tracer: tracing.NewRecorder(0)})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Shutdown(context.Background())
	})
	c := client.New(hs.URL)
	done := runWireJob(t, c)
	list, err := c.Jobs(context.Background(), "", "", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || done.TraceID == "" || list.Jobs[0].TraceID != done.TraceID {
		t.Fatalf("list %+v, job trace %q", list, done.TraceID)
	}
}

// TestWireCoordinatorJobCarriesRemoteID: a coordinator's job document
// names the worker that ran the job and the job's id there.
func TestWireCoordinatorJobCarriesRemoteID(t *testing.T) {
	srv := verifyd.NewServer(verifyd.Config{Workers: 2})
	worker := httptest.NewServer(srv.Handler())
	coord, err := cluster.New(cluster.Config{Nodes: []string{worker.URL}, ProbeInterval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		front.Close()
		coord.Shutdown(context.Background())
		worker.Close()
		srv.Shutdown(context.Background())
	})
	c := client.New(front.URL)
	done := runWireJob(t, c)
	got, err := c.Job(context.Background(), done.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != worker.URL || got.RemoteID == "" {
		t.Fatalf("coordinator job %+v: want node %s and a remote id", got, worker.URL)
	}
	if _, ok := srv.Job(got.RemoteID); !ok {
		t.Fatalf("remote id %q names no job on the worker", got.RemoteID)
	}
}
