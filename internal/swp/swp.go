// Package swp implements a go-back-N sliding window protocol over
// Plug-and-Play connectors, generalizing the alternating bit protocol
// (internal/abp) to windows larger than one frame in flight. Data and
// acknowledgements both cross *dropping* channels; retransmission is
// triggered by failed ack polls (the nonblocking-receive rendering of a
// retransmission timer).
//
// Verified properties:
//   - frames are delivered in order, exactly once (safety invariant);
//   - completing the transfer always remains possible (AG EF), because
//     the receiver keeps re-acknowledging duplicates forever.
package swp

import (
	"fmt"

	"pnp/internal/artifact"
	"pnp/internal/blocks"
	"pnp/internal/checker"
	"pnp/internal/core"
)

// Source is the pml model. Sequence numbers are 1..k (no wraparound for
// the verified configurations); the cumulative ack carries the highest
// in-order sequence delivered.
const Source = `
byte delivered;
byte badDelivery;

/* Go-back-N sender: keep up to w unacknowledged frames in flight; a
 * failed ack poll plays the role of the retransmission timer and rewinds
 * next to base. */
proctype SwpSender(chan dsig; chan ddat; chan asig; chan adat; byte k; byte w) {
	byte base, next;
	mtype st;
	byte d, sid, sd;
	bit sel, rem;
	base = 1;
	next = 1;
	do
	:: base > k -> break
	:: next < base + w && next <= k ->
	   ddat!next,0,next,0,1;
	   dsig?st,_;
	   next = next + 1
	:: else ->
	   adat!0,0,0,0,1;
	   asig?st,_;
	   adat?d,sid,sd,sel,rem;
	   if
	   :: st == RECV_SUCC && d >= base ->
	      base = d + 1
	   :: st == RECV_SUCC ->
	      skip        /* stale cumulative ack */
	   :: else ->
	      next = base /* timer expiry: go back N */
	   fi
	od
}

/* Receiver: deliver the expected frame and cumulatively acknowledge;
 * anything else re-triggers the last ack. It serves forever (end state)
 * so late retransmissions are always answered. */
proctype SwpReceiver(chan dsig; chan ddat; chan asig; chan adat; byte k) {
	byte e;
	mtype st;
	byte d, sid, sd;
	bit sel, rem;
	e = 1;
	end: do
	:: ddat!0,0,0,0,1;
	   dsig?st,_;
	   ddat?d,sid,sd,sel,rem;
	   if
	   :: st == RECV_SUCC && d == e ->
	      if
	      :: d == delivered + 1 -> skip
	      :: else -> badDelivery = 1
	      fi;
	      delivered = delivered + 1;
	      e = e + 1;
	      adat!delivered,0,0,0,1;
	      asig?st,_
	   :: st == RECV_SUCC ->
	      adat!delivered,0,0,0,1;
	      asig?st,_
	   :: else
	   fi
	od
}
`

// Config sizes the protocol run.
type Config struct {
	Frames int // frames to transfer (default 3)
	Window int // go-back-N window (default 2)
}

func (c Config) withDefaults() Config {
	if c.Frames == 0 {
		c.Frames = 3
	}
	if c.Window == 0 {
		c.Window = 2
	}
	return c
}

// design renders the protocol: sender and receiver joined by two
// dropping connectors, an asynchronous blocking send into a dropping
// buffer polled through a nonblocking receive. The data channel holds up
// to the window size (dropping(w)); the ack channel one ack
// (dropping(1)).
func design(cfg Config) *core.Design {
	cfg = cfg.withDefaults()
	data := blocks.ConnectorSpec{
		Send:    blocks.AsynBlockingSend,
		Channel: blocks.DroppingBuffer, Size: cfg.Window,
		Recv: blocks.NonblockingRecv,
	}
	k := core.IntArg(int64(cfg.Frames))
	return core.NewDesign("swp", Source).
		AddConnector("Data", data).
		AddConnector("Ack", data.WithChannel(blocks.DroppingBuffer, 1)).
		AddInstance("sender", "SwpSender", 1, core.SendTo("Data"), core.RecvFrom("Ack"), k, core.IntArg(int64(cfg.Window))).
		AddInstance("receiver", "SwpReceiver", 1, core.RecvFrom("Data"), core.SendTo("Ack"), k).
		AddInvariant("in-order", "badDelivery == 0").
		AddInvariant("exactly-once", fmt.Sprintf("delivered <= %d", cfg.Frames)).
		AddGoal("delivered", fmt.Sprintf("delivered == %d", cfg.Frames))
}

// Build composes the protocol.
func Build(cfg Config, store *artifact.Store) (*blocks.Builder, error) {
	return design(cfg).Build(store)
}

// Results holds the verdicts.
type Results struct {
	Safety   *checker.Result
	Delivery *checker.Result // AG EF (delivered == frames)
}

// Verify builds and checks the protocol.
func Verify(cfg Config, store *artifact.Store, opts checker.Options) (*Results, error) {
	res, err := design(cfg).Verify(store, opts)
	if err != nil {
		return nil, err
	}
	return &Results{Safety: res["safety"], Delivery: res["delivered"]}, nil
}
