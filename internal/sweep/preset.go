package sweep

import (
	"fmt"

	"pnp/internal/api"
	"pnp/internal/blocks"
)

// matrixPML is the producer/consumer pair of the E12 matrix experiment.
// The consumer counts deliveries in a global so message loss is
// observable as unreachability of got == n.
const matrixPML = `
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

// matrixBase is the E12 base design. The connector block is a
// placeholder: every cell rewrites it. The trivially true invariant
// exists to request the safety search (deadlock detection) as a named,
// cacheable property; the goal is the paper's delivery guarantee
// AG EF (got == n).
const matrixBase = `system matrix {
    components "matrix.pml"

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
`

// Matrix is the E12 design-space sweep as a preset: every send-port kind
// x channel kind x receive-port kind composed into the producer/consumer
// system, each cell paired with its under-lossy companion. It is the
// sweep-engine form of cmd/pnpmatrix's hand-rolled loop; both commands
// now expand exactly this spec.
func Matrix(msgs, bufsize int) Spec {
	return Spec{
		Name:       "matrix",
		Base:       fmt.Sprintf(matrixBase, msgs, msgs, msgs),
		Components: map[string]string{"matrix.pml": matrixPML},
		Connector:  "pipe",
		Sends: []blocks.SendPortKind{
			blocks.AsynNonblockingSend, blocks.AsynBlockingSend, blocks.AsynCheckingSend,
			blocks.SynBlockingSend, blocks.SynCheckingSend,
		},
		Channels: []ChannelVariant{
			{Kind: blocks.SingleSlot},
			{Kind: blocks.FIFOQueue, Size: bufsize},
			{Kind: blocks.PriorityQueue, Size: bufsize},
			{Kind: blocks.DroppingBuffer, Size: bufsize},
			{Kind: blocks.LossyBuffer, Size: bufsize},
		},
		Recvs:      []blocks.RecvPortKind{blocks.BlockingRecv, blocks.NonblockingRecv},
		UnderLossy: true,
		LossySize:  bufsize,
	}
}

// MatrixRow pairs a primary cell with its under-lossy companion's
// verdict — one row of the E12 table.
type MatrixRow struct {
	Cell       api.SweepCell
	UnderLossy string
}

// MatrixRows folds a sweep result back into E12 table rows: primary
// cells in matrix order, each with its companion's verdict (a lossy
// primary is its own companion). Results from arbitrary sweeps work too;
// cells without a companion repeat their own verdict.
func MatrixRows(res *api.SweepResult) []MatrixRow {
	companion := make(map[int]string)
	for _, c := range res.Cells {
		if c.Companion {
			companion[c.Primary] = c.Verdict
		}
	}
	var rows []MatrixRow
	for _, c := range res.Cells {
		if c.Companion {
			continue
		}
		under, ok := companion[c.Index]
		if !ok {
			under = c.Verdict
		}
		rows = append(rows, MatrixRow{Cell: c, UnderLossy: under})
	}
	return rows
}
