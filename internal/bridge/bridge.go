// Package bridge implements the paper's evaluation case study (Section 4):
// the single-lane bridge controlled by two controllers, in both the
// "exactly-N-cars-per-turn" (Fig. 13) and "at-most-N-cars-per-turn"
// (Fig. 14) variants.
//
// Cars and controllers are pml component models using the standard
// interfaces; every interaction goes through connectors composed from the
// block library, so the experiments of the paper are reproduced by
// swapping ports:
//
//   - E8: exactly-N with asynchronous blocking enter sends -> the bridge
//     safety invariant is violated (a car drives on before its request is
//     processed).
//   - E9: replace the enter send ports with synchronous blocking ones —
//     the car components are untouched — and the invariant holds.
//   - E10: at-most-N adds controller-to-controller yield connectors
//     (synchronous blocking send, single-slot buffer, nonblocking receive)
//     and nonblocking receives on the car connectors; the invariant holds.
package bridge

import (
	"fmt"

	"pnp/internal/artifact"
	"pnp/internal/blocks"
	"pnp/internal/checker"
	"pnp/internal/core"
)

// Variant selects the traffic-control protocol.
type Variant int

// Bridge variants.
const (
	ExactlyN Variant = iota + 1
	AtMostN
)

// String names the variant.
func (v Variant) String() string {
	if v == ExactlyN {
		return "exactly-N-cars-per-turn"
	}
	return "at-most-N-cars-per-turn"
}

// CarSource is the pml model of a car component: it requests entry,
// drives onto the bridge once the SendStatus arrives, crosses, leaves,
// and notifies the far-side controller. It is shared verbatim by both
// bridge variants and by both the safe and unsafe connector choices —
// the paper's standard-interface claim (E9) is that connector changes do
// not touch this text. CarSource + exactlyNControllers is, byte for
// byte, the bridge.pml that bench/designs/bridge.pnp and
// examples/adl/bridge.pnp load, so both routes compose one model.
const CarSource = `/* The single-lane bridge components (paper Section 4), written against
 * the standard Plug-and-Play interfaces. Used by bridge.pnp and
 * bridge-broken.pnp: the two ADL files differ only in one send-port kind,
 * and these component models are shared verbatim. */

byte blueOn, redOn;

proctype Car(chan esig; chan edat; chan xsig; chan xdat; bit color) {
	mtype st;
	end: do
	:: edat!1,0,0,0,1;
	   esig?st,_;
	   if
	   :: color == 0 -> blueOn = blueOn + 1
	   :: else -> redOn = redOn + 1
	   fi;
	   if
	   :: color == 0 -> blueOn = blueOn - 1
	   :: else -> redOn = redOn - 1
	   fi;
	   xdat!1,0,0,0,1;
	   xsig?st,_
	od
}
`

// exactlyNControllers is the controller model for the Fig. 13 design: the
// controllers alternate turns implicitly by counting exit notifications.
// A controller admits n enter requests, then waits for n exit
// notifications (produced by the other side's cars) before admitting the
// next batch; the side that starts passive waits for exits first.
const exactlyNControllers = `
proctype TurnController(chan ensig; chan endat; chan exsig; chan exdat;
                        byte n; bit startsActive) {
	byte i;
	mtype st;
	byte d, sid, sd;
	bit sel, rem;
	if
	:: startsActive -> skip
	:: else ->
	   i = 0;
	   do
	   :: i < n ->
	      exdat!0,0,0,0,1;
	      exsig?st,_;
	      exdat?d,sid,sd,sel,rem;
	      i = i + 1
	   :: else -> break
	   od
	fi;
	end: do
	:: i = 0;
	   do
	   :: i < n ->
	      endat!0,0,0,0,1;
	      ensig?st,_;
	      endat?d,sid,sd,sel,rem;
	      i = i + 1
	   :: else -> break
	   od;
	   i = 0;
	   do
	   :: i < n ->
	      exdat!0,0,0,0,1;
	      exsig?st,_;
	      exdat?d,sid,sd,sel,rem;
	      i = i + 1
	   :: else -> break
	   od
	od
}
`

// atMostNControllers is the controller model for the Fig. 14 design: a
// controller polls for enter requests with nonblocking receives, yields
// the turn (with the count of cars in flight) as soon as no car is
// waiting or the quota is reached, and while passive waits for the yield
// message and then for that many exit notifications.
const atMostNControllers = `
proctype YieldController(chan ensig; chan endat; chan exsig; chan exdat;
                         chan ysig; chan ydat; chan osig; chan odat;
                         byte n; bit startsActive) {
	byte admitted, k;
	mtype st;
	byte d, sid, sd;
	bit sel, rem;
	if
	:: startsActive -> goto turn_active
	:: else -> goto turn_passive
	fi;
turn_active:
	admitted = 0;
	do
	:: admitted < n ->
	   endat!0,0,0,0,1;
	   ensig?st,_;
	   endat?d,sid,sd,sel,rem;
	   if
	   :: st == RECV_SUCC -> admitted = admitted + 1
	   :: else -> break
	   fi
	:: else -> break
	od;
	odat!admitted,0,0,0,1;
	osig?st,_;
	goto turn_passive;
turn_passive:
	end: do
	:: ydat!0,0,0,0,1;
	   ysig?st,_;
	   ydat?d,sid,sd,sel,rem;
	   if
	   :: st == RECV_SUCC -> break
	   :: else
	   fi
	od;
	k = d;
	do
	:: k > 0 ->
	   exdat!0,0,0,0,1;
	   exsig?st,_;
	   exdat?d,sid,sd,sel,rem;
	   if
	   :: st == RECV_SUCC -> k = k - 1
	   :: else
	   fi
	:: else -> break
	od;
	goto turn_active
}
`

// Config describes one bridge system to build and verify.
type Config struct {
	Variant     Variant
	CarsPerSide int
	N           int // per-turn quota
	// EnterSend is the send-port kind of the car->controller enter
	// connectors: the design decision the paper's experiment varies.
	EnterSend blocks.SendPortKind
	// EnterBuf is the FIFO size of the enter connectors (default 2).
	EnterBuf int
}

func (c Config) withDefaults() Config {
	if c.CarsPerSide == 0 {
		c.CarsPerSide = 1
	}
	if c.N == 0 {
		c.N = 1
	}
	if c.EnterSend == 0 {
		c.EnterSend = blocks.SynBlockingSend
	}
	if c.EnterBuf == 0 {
		c.EnterBuf = 2
	}
	return c
}

// String summarizes the configuration.
func (c Config) String() string {
	c = c.withDefaults()
	return fmt.Sprintf("%s cars=%d n=%d enter=%s", c.Variant, c.CarsPerSide, c.N, c.EnterSend)
}

// Design renders the configured bridge as a design: the connectors,
// instances and invariant of bench/designs/bridge.pnp, plus the yield
// connectors of the at-most-N variant.
func Design(cfg Config) (*core.Design, error) {
	cfg = cfg.withDefaults()
	var ctl, src string
	recvKind := blocks.BlockingRecv
	switch cfg.Variant {
	case ExactlyN:
		ctl, src = "TurnController", CarSource+exactlyNControllers
	case AtMostN:
		// The Fig. 14 controllers poll, so every controller-side receive
		// port must be nonblocking.
		ctl, src, recvKind = "YieldController", CarSource+atMostNControllers, blocks.NonblockingRecv
	default:
		return nil, fmt.Errorf("bridge: unknown variant %d", cfg.Variant)
	}
	enterSpec := blocks.ConnectorSpec{
		Send: cfg.EnterSend, Channel: blocks.FIFOQueue, Size: cfg.EnterBuf, Recv: recvKind,
	}
	exitSpec := blocks.ConnectorSpec{
		Send: blocks.AsynBlockingSend, Channel: blocks.SingleSlot, Recv: recvKind,
	}
	// Blue cars exit at the red end and notify the red controller, and
	// vice versa (the paper's RedExit / BlueExit connectors).
	d := core.NewDesign("bridge", src).
		AddConnector("BlueEnter", enterSpec).
		AddConnector("RedEnter", enterSpec).
		AddConnector("RedExit", exitSpec).
		AddConnector("BlueExit", exitSpec)
	blueCtl := []core.InstanceArg{core.RecvFrom("BlueEnter"), core.RecvFrom("BlueExit")}
	redCtl := []core.InstanceArg{core.RecvFrom("RedEnter"), core.RecvFrom("RedExit")}
	if cfg.Variant == AtMostN {
		yield := blocks.ConnectorSpec{Send: blocks.SynBlockingSend, Channel: blocks.SingleSlot, Recv: blocks.NonblockingRecv}
		d.AddConnector("BlueToRed", yield).AddConnector("RedToBlue", yield)
		// Each controller listens for the other's yield and yields on its own.
		blueCtl = append(blueCtl, core.RecvFrom("RedToBlue"), core.SendTo("BlueToRed"))
		redCtl = append(redCtl, core.RecvFrom("BlueToRed"), core.SendTo("RedToBlue"))
	}
	n := core.IntArg(int64(cfg.N))
	return d.
		AddInstance("blueCar", "Car", cfg.CarsPerSide, core.SendTo("BlueEnter"), core.SendTo("RedExit"), core.IntArg(0)).
		AddInstance("redCar", "Car", cfg.CarsPerSide, core.SendTo("RedEnter"), core.SendTo("BlueExit"), core.IntArg(1)).
		AddInstance("blueCtl", ctl, 1, append(blueCtl, n, core.IntArg(1))...).
		AddInstance("redCtl", ctl, 1, append(redCtl, n, core.IntArg(0))...).
		// Cars traveling in opposite directions are never on the bridge
		// simultaneously.
		AddInvariant("bridge-safety", "!(blueOn > 0 && redOn > 0)"), nil
}

// Build composes the bridge system: components, connectors, and ports.
func Build(cfg Config, store *artifact.Store) (*blocks.Builder, error) {
	d, err := Design(cfg)
	if err != nil {
		return nil, err
	}
	return d.Build(store)
}

// Verify builds the configured bridge and checks the safety invariant.
func Verify(cfg Config, store *artifact.Store, opts checker.Options) (*checker.Result, error) {
	d, err := Design(cfg)
	if err != nil {
		return nil, err
	}
	res, err := d.Verify(store, opts)
	if err != nil {
		return nil, err
	}
	return res["safety"], nil
}
