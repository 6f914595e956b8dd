// Package abp implements the alternating bit protocol over Plug-and-Play
// connectors as a second verification case study: both the data path and
// the acknowledgement path run through *lossy* channels — the unreliable
// medium that may drop (and, given buffer room, duplicate) any message
// in transit, under which plain compositions fail the delivery goal
// (experiment E12) — and the protocol's retransmission discipline
// restores reliable, in-order, exactly-once delivery, verified by the
// checker and demonstrable at runtime.
package abp

import (
	"fmt"

	"pnp/internal/blocks"
	"pnp/internal/checker"
	"pnp/internal/core"
)

// Source is the pml model of the protocol components. The alternating bit
// rides in the messages' selectiveData field; payloads are 1..k so the
// receiver can assert in-order delivery.
const Source = `
byte delivered;
byte badDelivery;

/* Sender: transmit payload i+1 tagged with bit b, then poll the ack
 * path; a matching ack advances, anything else (stale ack or nothing)
 * triggers retransmission. */
proctype AbpSender(chan dsig; chan ddat; chan asig; chan adat; byte k) {
	byte i;
	bit b;
	mtype st;
	byte d, sid, sd;
	bit sel, rem;
	do
	:: i < k ->
	   ddat!i + 1,0,b,0,1;
	   dsig?st,_;
	   adat!0,0,0,0,1;
	   asig?st,_;
	   adat?d,sid,sd,sel,rem;
	   if
	   :: st == RECV_SUCC && sd == b ->
	      i = i + 1;
	      b = 1 - b
	   :: else
	   fi
	:: else -> break
	od
}

/* Receiver: take any data message; a fresh bit delivers (asserting the
 * payload is the next expected one) and acks; a duplicate just re-acks
 * with its own bit. */
proctype AbpReceiver(chan dsig; chan ddat; chan asig; chan adat; byte k) {
	bit expect;
	mtype st;
	byte d, sid, sd;
	bit sel, rem;
	do
	:: delivered < k ->
	   ddat!0,0,0,0,1;
	   dsig?st,_;
	   ddat?d,sid,sd,sel,rem;
	   if
	   :: st == RECV_SUCC ->
	      if
	      :: sd == expect ->
	         if
	         :: d == delivered + 1 -> skip
	         :: else -> badDelivery = 1
	         fi;
	         delivered = delivered + 1;
	         adat!0,0,sd,0,1;
	         asig?st,_;
	         expect = 1 - expect
	      :: else ->
	         adat!0,0,sd,0,1;
	         asig?st,_
	      fi
	   :: else
	   fi
	:: else -> break
	od
}
`

// Config sizes the protocol run.
type Config struct {
	Payloads int // messages to transfer (default 2)
	// Reliable replaces the lossy channels with sound single-slot
	// buffers (a control configuration for comparisons).
	Reliable bool
	// Overflow replaces the lossy channels with overflow-dropping
	// buffers: loss happens only when the buffer is full. This weaker
	// adversary matters for liveness: under process-level strong
	// fairness the full eventuality <>delivered holds here, whereas a
	// lossy channel may drop every retransmission — fairness constrains
	// the scheduler, not the channel's nondeterministic choice — so over
	// lossy channels delivery is stated as the fairness-independent
	// AG EF goal instead (see Verify).
	Overflow bool
}

func (c Config) withDefaults() Config {
	if c.Payloads == 0 {
		c.Payloads = 2
	}
	return c
}

// design renders the protocol: sender and receiver joined by two lossy
// connectors (data and ack), each an asynchronous blocking send into a
// lossy(1) buffer polled through a nonblocking receive. At size 1 the
// lossy channel's duplication branch never has a spare slot, so the
// adversary is pure in-transit loss; the protocol's own alternating bit
// is what makes duplicates (from retransmission) harmless. In-order
// exactly-once delivery is the safety invariant pair; completion is the
// fairness-independent goal "delivered".
func design(cfg Config) *core.Design {
	cfg = cfg.withDefaults()
	spec := blocks.ConnectorSpec{
		Send:    blocks.AsynBlockingSend,
		Channel: blocks.LossyBuffer, Size: 1,
		Recv: blocks.NonblockingRecv,
	}
	if cfg.Overflow {
		spec.Channel = blocks.DroppingBuffer
	}
	if cfg.Reliable {
		spec = spec.WithChannel(blocks.SingleSlot, 0)
	}
	k := core.IntArg(int64(cfg.Payloads))
	return core.NewDesign("abp", Source).
		AddConnector("Data", spec).
		AddConnector("Ack", spec).
		AddInstance("sender", "AbpSender", 1, core.SendTo("Data"), core.RecvFrom("Ack"), k).
		AddInstance("receiver", "AbpReceiver", 1, core.RecvFrom("Data"), core.SendTo("Ack"), k).
		AddInvariant("in-order", "badDelivery == 0").
		AddInvariant("exactly-once", fmt.Sprintf("delivered <= %d", cfg.Payloads)).
		AddGoal("delivered", fmt.Sprintf("delivered == %d", cfg.Payloads))
}

// Build composes the protocol.
func Build(cfg Config, cache *blocks.Cache) (*blocks.Builder, error) {
	return design(cfg).Build(cache)
}

// Results holds the protocol verdicts.
type Results struct {
	Safety   *checker.Result // no deadlock, no out-of-order delivery
	Delivery *checker.Result // AG EF (delivered == k)
}

// Verify builds and checks the protocol: in-order exactly-once delivery
// as an invariant, and completion as a fairness-independent goal.
func Verify(cfg Config, cache *blocks.Cache, opts checker.Options) (*Results, error) {
	res, err := design(cfg).Verify(cache, opts)
	if err != nil {
		return nil, err
	}
	return &Results{Safety: res["safety"], Delivery: res["delivered"]}, nil
}
