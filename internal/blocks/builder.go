package blocks

import (
	"fmt"
	"sync"

	"pnp/internal/model"
	"pnp/internal/pml"
)

// SendPortKind selects one of the library's send ports (paper Fig. 1).
type SendPortKind int

// Send port kinds.
const (
	AsynNonblockingSend SendPortKind = iota + 1
	AsynBlockingSend
	AsynCheckingSend
	SynBlockingSend
	SynCheckingSend
)

var sendPortProcs = map[SendPortKind]string{
	AsynNonblockingSend: "AsynNbSendPort",
	AsynBlockingSend:    "AsynBlSendPort",
	AsynCheckingSend:    "AsynCheckSendPort",
	SynBlockingSend:     "SynBlSendPort",
	SynCheckingSend:     "SynCheckSendPort",
}

// String returns the proctype name of the port model.
func (k SendPortKind) String() string { return sendPortProcs[k] }

var sendPortTokens = map[SendPortKind]string{
	AsynNonblockingSend: "asyn-nonblocking",
	AsynBlockingSend:    "asyn-blocking",
	AsynCheckingSend:    "asyn-checking",
	SynBlockingSend:     "syn-blocking",
	SynCheckingSend:     "syn-checking",
}

// Token returns the canonical ADL keyword for the kind ("syn-blocking"),
// the spelling the adl package parses and the sweep engine emits when it
// rewrites a connector clause.
func (k SendPortKind) Token() string { return sendPortTokens[k] }

// RecvPortKind selects one of the library's receive ports. Copy/remove and
// selective variants are chosen per-request through the standard interface
// flags, as in the paper.
type RecvPortKind int

// Receive port kinds.
const (
	BlockingRecv RecvPortKind = iota + 1
	NonblockingRecv
)

var recvPortProcs = map[RecvPortKind]string{
	BlockingRecv:    "BlRecvPort",
	NonblockingRecv: "NbRecvPort",
}

// String returns the proctype name of the port model.
func (k RecvPortKind) String() string { return recvPortProcs[k] }

var recvPortTokens = map[RecvPortKind]string{
	BlockingRecv:    "blocking",
	NonblockingRecv: "nonblocking",
}

// Token returns the canonical ADL keyword for the kind ("blocking").
func (k RecvPortKind) Token() string { return recvPortTokens[k] }

// ChannelKind selects one of the library's channels.
type ChannelKind int

// Channel kinds.
const (
	SingleSlot ChannelKind = iota + 1
	FIFOQueue
	PriorityQueue
	DroppingBuffer
	// LossyBuffer is an unreliable FIFO medium: messages are confirmed
	// IN_OK and then nondeterministically delivered, dropped in transit,
	// or duplicated — the formal counterpart of a runtime fault plan.
	// DroppingBuffer, by contrast, loses messages only on overflow.
	LossyBuffer
)

var channelProcs = map[ChannelKind]string{
	SingleSlot:     "SingleSlotChannel",
	FIFOQueue:      "FifoChannel",
	PriorityQueue:  "PriorityChannel",
	DroppingBuffer: "DroppingChannel",
	LossyBuffer:    "LossyChannel",
}

// String returns the proctype name of the channel model.
func (k ChannelKind) String() string { return channelProcs[k] }

var channelTokens = map[ChannelKind]string{
	SingleSlot:     "single-slot",
	FIFOQueue:      "fifo",
	PriorityQueue:  "priority",
	DroppingBuffer: "dropping",
	LossyBuffer:    "lossy",
}

// Token returns the canonical ADL keyword for the kind ("fifo"); sized
// kinds are written with their size, as in "fifo(2)".
func (k ChannelKind) Token() string { return channelTokens[k] }

// Sized reports whether the channel kind takes a size parameter.
func (k ChannelKind) Sized() bool { return k != SingleSlot }

// MaxBufSize is the static capacity of the sized channel models; their
// logical size parameter must be 1..MaxBufSize.
const MaxBufSize = 8

// ConnectorSpec describes a connector as the composition of a send port
// kind, a channel kind (with logical buffer size where applicable), and a
// receive port kind — the paper's plug-and-play triple.
type ConnectorSpec struct {
	Send    SendPortKind
	Channel ChannelKind
	Size    int // logical buffer size for sized channels (default 1)
	Recv    RecvPortKind
}

// WithSend returns a copy of the spec with the send port replaced — the
// paper's "plug" operation.
func (s ConnectorSpec) WithSend(k SendPortKind) ConnectorSpec { s.Send = k; return s }

// WithChannel returns a copy with the channel replaced.
func (s ConnectorSpec) WithChannel(k ChannelKind, size int) ConnectorSpec {
	s.Channel, s.Size = k, size
	return s
}

// WithRecv returns a copy with the receive port replaced.
func (s ConnectorSpec) WithRecv(k RecvPortKind) ConnectorSpec { s.Recv = k; return s }

// Validate checks the spec refers to known blocks and a legal size.
func (s ConnectorSpec) Validate() error {
	if _, ok := sendPortProcs[s.Send]; !ok {
		return fmt.Errorf("blocks: unknown send port kind %d", s.Send)
	}
	if _, ok := recvPortProcs[s.Recv]; !ok {
		return fmt.Errorf("blocks: unknown receive port kind %d", s.Recv)
	}
	if _, ok := channelProcs[s.Channel]; !ok {
		return fmt.Errorf("blocks: unknown channel kind %d", s.Channel)
	}
	if s.Channel.Sized() {
		if s.Size < 1 || s.Size > MaxBufSize {
			return fmt.Errorf("blocks: channel size %d out of range 1..%d", s.Size, MaxBufSize)
		}
	}
	return nil
}

// String renders the spec, e.g. "SynBlSendPort--FifoChannel(5)--BlRecvPort".
func (s ConnectorSpec) String() string {
	if s.Channel.Sized() {
		return fmt.Sprintf("%s--%s(%d)--%s", s.Send, s.Channel, s.Size, s.Recv)
	}
	return fmt.Sprintf("%s--%s--%s", s.Send, s.Channel, s.Recv)
}

// Token renders the spec in its canonical ADL spelling, e.g.
// "send=syn-blocking;channel=fifo(2);recv=blocking". This is the
// canonical source text of a connector module: two ADL clauses that
// parse to the same spec render the same token, so they share one
// module fingerprint however they were written.
func (s ConnectorSpec) Token() string {
	ch := s.Channel.Token()
	if s.Channel.Sized() {
		ch = fmt.Sprintf("%s(%d)", ch, s.Size)
	}
	return fmt.Sprintf("send=%s;channel=%s;recv=%s", s.Send.Token(), ch, s.Recv.Token())
}

// Cache is the in-process compile cache: it memoizes compiled pml
// programs by source text, modeling the paper's reuse of pre-defined
// building-block models across verification runs. It is safe for
// concurrent use, unbounded and process-local — right for in-process
// callers and the experiment harnesses. Services compose through
// internal/adl's modular load path backed by an artifact.Store, which
// bounds memory, persists across restarts, and tracks per-module reuse.
type Cache struct {
	mu     sync.Mutex
	m      map[string]*pml.Compiled
	hits   int
	misses int
}

// NewCache creates an empty model cache.
func NewCache() *Cache { return &Cache{m: make(map[string]*pml.Compiled)} }

// Compile returns the compiled form of src, reusing a previous compilation
// when available.
func (c *Cache) Compile(src string) (*pml.Compiled, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.m[src]; ok {
		c.hits++
		return p, nil
	}
	p, err := pml.CompileSource(src)
	if err != nil {
		return nil, err
	}
	c.m[src] = p
	c.misses++
	return p, nil
}

// Stats reports cache hits and misses.
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

var sigFields = []pml.Type{pml.TypeMtype, pml.TypeByte}
var datFields = []pml.Type{pml.TypeByte, pml.TypeByte, pml.TypeByte, pml.TypeBit, pml.TypeBit}

// Endpoint is a component-side attachment point of a connector: the pair
// of rendezvous channels implementing the paper's standard interface.
type Endpoint struct {
	Sig model.ChanID
	Dat model.ChanID
}

// Builder composes a verifiable system from the block library plus
// user-supplied component models.
type Builder struct {
	prog *pml.Compiled
	sys  *model.System
	src  string
}

// NewBuilder compiles the library together with the user's component
// source (which may be empty) and prepares an empty system. A non-nil
// cache is consulted first, reusing pre-built models.
func NewBuilder(componentSource string, cache *Cache) (*Builder, error) {
	return NewBuilderWithLibrary(LibrarySource, componentSource, cache)
}

// NewBuilderWithLibrary composes an explicit block-library source with the
// user's component source.
func NewBuilderWithLibrary(library, componentSource string, cache *Cache) (*Builder, error) {
	full := library + "\n" + componentSource
	var prog *pml.Compiled
	var err error
	if cache != nil {
		prog, err = cache.Compile(full)
	} else {
		prog, err = pml.CompileSource(full)
	}
	if err != nil {
		return nil, fmt.Errorf("blocks: %w", err)
	}
	return &Builder{prog: prog, sys: model.New(prog), src: full}, nil
}

// NewBuilderFromProgram wraps an already-compiled program — a program
// module artifact out of an artifact store — in a fresh Builder with an
// empty system. src must be the canonical source the program was
// compiled from (the Builder's Source contract); sharing one compiled
// program across builders is safe because composition only spawns
// instances, never mutates the program.
func NewBuilderFromProgram(prog *pml.Compiled, src string) *Builder {
	return &Builder{prog: prog, sys: model.New(prog), src: src}
}

// Program exposes the combined compiled program (for property compilation).
func (b *Builder) Program() *pml.Compiled { return b.prog }

// Source returns the full pml source the program was compiled from
// (library plus components). Because compilation is deterministic, the
// source text is a faithful content address of the compiled program; the
// verification service hashes it as part of its result-cache key.
func (b *Builder) Source() string { return b.src }

// System returns the composed system, ready for the checker.
func (b *Builder) System() *model.System { return b.sys }

// Spawn instantiates a user component (or any proctype) directly.
func (b *Builder) Spawn(proc string, args ...model.Arg) (*model.Instance, error) {
	return b.sys.Spawn(proc, args...)
}

// Connector is an instantiated connector: its channel process is running
// and ports are added per attached component.
type Connector struct {
	b      *Builder
	name   string
	spec   ConnectorSpec
	sndSig model.ChanID
	sndDat model.ChanID
	rcvSig model.ChanID
	rcvDat model.ChanID
}

// NewConnector instantiates a connector from a spec: it creates the four
// internal rendezvous channels and spawns the channel process.
func (b *Builder) NewConnector(name string, spec ConnectorSpec) (*Connector, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := &Connector{
		b:      b,
		name:   name,
		spec:   spec,
		sndSig: b.sys.AddChannel(name+".sndSig", 0, sigFields),
		sndDat: b.sys.AddChannel(name+".sndDat", 0, datFields),
		rcvSig: b.sys.AddChannel(name+".rcvSig", 0, sigFields),
		rcvDat: b.sys.AddChannel(name+".rcvDat", 0, datFields),
	}
	args := []model.Arg{
		model.Chan(c.sndSig), model.Chan(c.sndDat),
		model.Chan(c.rcvSig), model.Chan(c.rcvDat),
	}
	if spec.Channel.Sized() {
		args = append(args, model.Int(int64(spec.Size)))
	}
	if _, err := b.sys.Spawn(channelProcs[spec.Channel], args...); err != nil {
		return nil, err
	}
	return c, nil
}

// Spec returns the connector's specification.
func (c *Connector) Spec() ConnectorSpec { return c.spec }

// AddSender attaches a sending component endpoint: it creates the
// component-side channels and spawns a send port of the connector's kind.
// The returned endpoint is passed to the component's proctype.
func (c *Connector) AddSender(name string) (Endpoint, error) {
	ep := Endpoint{
		Sig: c.b.sys.AddChannel(c.name+"."+name+".sig", 0, sigFields),
		Dat: c.b.sys.AddChannel(c.name+"."+name+".dat", 0, datFields),
	}
	_, err := c.b.sys.Spawn(sendPortProcs[c.spec.Send],
		model.Chan(ep.Sig), model.Chan(ep.Dat),
		model.Chan(c.sndSig), model.Chan(c.sndDat))
	if err != nil {
		return Endpoint{}, err
	}
	return ep, nil
}

// AddReceiver attaches a receiving component endpoint with a receive port
// of the connector's kind.
func (c *Connector) AddReceiver(name string) (Endpoint, error) {
	ep := Endpoint{
		Sig: c.b.sys.AddChannel(c.name+"."+name+".sig", 0, sigFields),
		Dat: c.b.sys.AddChannel(c.name+"."+name+".dat", 0, datFields),
	}
	_, err := c.b.sys.Spawn(recvPortProcs[c.spec.Recv],
		model.Chan(ep.Sig), model.Chan(ep.Dat),
		model.Chan(c.rcvSig), model.Chan(c.rcvDat))
	if err != nil {
		return Endpoint{}, err
	}
	return ep, nil
}
