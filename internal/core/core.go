// Package core is the design-level heart of the Plug-and-Play approach:
// a declarative Design holds component models, connectors composed from
// the block library, instances, and properties. Connector blocks are
// swapped with one-call plug operations that leave components untouched;
// the same Design verifies through the model checker and instantiates
// executable connectors through the runtime.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pnp/internal/adl"
	"pnp/internal/blocks"
	"pnp/internal/checker"
	"pnp/internal/pnprt"
)

// BlockInfo is one catalog entry: a reusable building block with the
// paper's Figure 1 description.
type BlockInfo struct {
	Name        string
	Kind        string // "send-port", "recv-port", "channel"
	Description string
}

// Catalog returns the paper's Figure 1 building-block catalog as shipped
// in this library.
func Catalog() []BlockInfo {
	return []BlockInfo{
		{Name: "AsynNbSendPort", Kind: "send-port", Description: "Asynchronous nonblocking send: confirms immediately; the message may or may not be accepted by the channel."},
		{Name: "AsynBlSendPort", Kind: "send-port", Description: "Asynchronous blocking send: confirms after the message has been accepted by the channel."},
		{Name: "AsynCheckSendPort", Kind: "send-port", Description: "Asynchronous checking send: notifies the sender when the channel cannot accept the message, otherwise confirms once stored."},
		{Name: "SynBlSendPort", Kind: "send-port", Description: "Synchronous blocking send: confirms only after the message has been received by the receiver."},
		{Name: "SynCheckSendPort", Kind: "send-port", Description: "Synchronous checking send: like checking send, but when accepted it blocks until the message is received by the receiver."},
		{Name: "BlRecvPort", Kind: "recv-port", Description: "Blocking receive (copy/remove): blocks until a desired message is retrieved from the channel."},
		{Name: "NbRecvPort", Kind: "recv-port", Description: "Nonblocking receive (copy/remove): returns immediately with a notification and an empty message when nothing can be retrieved."},
		{Name: "SingleSlotChannel", Kind: "channel", Description: "1-slot buffer: a buffer of size 1."},
		{Name: "FifoChannel", Kind: "channel", Description: "FIFO queue: a first-in-first-out queue of size N."},
		{Name: "PriorityChannel", Kind: "channel", Description: "Priority queue: a priority queue of size N (lower tag = higher priority)."},
		{Name: "DroppingChannel", Kind: "channel", Description: "Dropping buffer: silently drops messages that arrive while full."},
		{Name: "LossyChannel", Kind: "channel", Description: "Lossy buffer: an unreliable medium that may drop or duplicate any message in transit (fault-injection block)."},
	}
}

// ArgKind classifies an instance argument.
type ArgKind int

// Instance argument kinds.
const (
	ArgInt ArgKind = iota + 1
	ArgSend
	ArgRecv
)

// InstanceArg is one argument of a component instance: an integer or an
// attachment to a connector endpoint (which expands to the endpoint's
// signal and data channels).
type InstanceArg struct {
	Kind ArgKind
	N    int64
	Conn string
}

// IntArg passes an integer parameter.
func IntArg(v int64) InstanceArg { return InstanceArg{Kind: ArgInt, N: v} }

// SendTo attaches the instance as a sender on the named connector.
func SendTo(conn string) InstanceArg { return InstanceArg{Kind: ArgSend, Conn: conn} }

// RecvFrom attaches the instance as a receiver on the named connector.
func RecvFrom(conn string) InstanceArg { return InstanceArg{Kind: ArgRecv, Conn: conn} }

// NamedConnector pairs a connector name with its block composition: a
// connector declaration of the design's ADL.
type NamedConnector = adl.ConnectorDecl

// Instance declares component instances of a proctype.
type Instance struct {
	Name  string
	Proc  string
	Count int
	Args  []InstanceArg
}

// propertyDecl is one declared property in its ADL form.
type propertyDecl struct {
	kind  string // the ADL keyword: "invariant", "goal" or "ltl"
	name  string
	expr  string            // the expression, or the LTL formula
	props map[string]string // LTL atomic propositions
}

// Design is a complete Plug-and-Play system design. Designs are value-ish:
// the With* plug operations return modified copies so alternatives can be
// explored side by side (the paper's design-space experimentation).
type Design struct {
	Name       string
	Components string // pml source of the component models
	Connectors []NamedConnector
	Instances  []Instance
	properties []propertyDecl
}

// NewDesign creates an empty design over the given component models.
func NewDesign(name, componentSource string) *Design {
	return &Design{Name: name, Components: componentSource}
}

// AddConnector declares a connector composed from library blocks.
func (d *Design) AddConnector(name string, spec blocks.ConnectorSpec) *Design {
	d.Connectors = append(d.Connectors, NamedConnector{Name: name, Spec: spec})
	return d
}

// AddInstance declares count instances of a component proctype.
func (d *Design) AddInstance(name, proc string, count int, args ...InstanceArg) *Design {
	d.Instances = append(d.Instances, Instance{Name: name, Proc: proc, Count: count, Args: args})
	return d
}

// AddInvariant declares a global safety invariant.
func (d *Design) AddInvariant(name, expr string) *Design {
	d.properties = append(d.properties, propertyDecl{kind: "invariant", name: name, expr: expr})
	return d
}

// AddGoal declares a delivery goal: from every reachable state it must
// remain possible to reach a state satisfying expr (AG EF expr). Unlike an
// LTL eventuality, a goal is insensitive to scheduler fairness, so it is
// the right way to state "no message is ever permanently lost".
func (d *Design) AddGoal(name, expr string) *Design {
	d.properties = append(d.properties, propertyDecl{kind: "goal", name: name, expr: expr})
	return d
}

// AddLTL declares an LTL property with its atomic propositions.
func (d *Design) AddLTL(name, formula string, props map[string]string) *Design {
	d.properties = append(d.properties, propertyDecl{kind: "ltl", name: name, expr: formula, props: props})
	return d
}

// clone copies the design (slices copied, component source shared).
func (d *Design) clone() *Design {
	n := *d
	n.Connectors = append([]NamedConnector(nil), d.Connectors...)
	n.Instances = append([]Instance(nil), d.Instances...)
	n.properties = append([]propertyDecl(nil), d.properties...)
	return &n
}

func (d *Design) connectorIndex(name string) (int, error) {
	for i, c := range d.Connectors {
		if c.Name == name {
			return i, nil
		}
	}
	return -1, fmt.Errorf("core: design %s has no connector %q", d.Name, name)
}

// plug returns a copy of the design with the named connector's spec
// edited.
func (d *Design) plug(conn string, edit func(blocks.ConnectorSpec) blocks.ConnectorSpec) (*Design, error) {
	i, err := d.connectorIndex(conn)
	if err != nil {
		return nil, err
	}
	n := d.clone()
	n.Connectors[i].Spec = edit(n.Connectors[i].Spec)
	return n, nil
}

// WithSendPort returns a copy of the design with the named connector's
// send port replaced — the paper's plug-and-play edit. Components are
// untouched.
func (d *Design) WithSendPort(conn string, k blocks.SendPortKind) (*Design, error) {
	return d.plug(conn, func(s blocks.ConnectorSpec) blocks.ConnectorSpec { return s.WithSend(k) })
}

// WithRecvPort returns a copy with the named connector's receive port
// replaced.
func (d *Design) WithRecvPort(conn string, k blocks.RecvPortKind) (*Design, error) {
	return d.plug(conn, func(s blocks.ConnectorSpec) blocks.ConnectorSpec { return s.WithRecv(k) })
}

// WithChannel returns a copy with the named connector's channel replaced.
func (d *Design) WithChannel(conn string, k blocks.ChannelKind, size int) (*Design, error) {
	return d.plug(conn, func(s blocks.ConnectorSpec) blocks.ConnectorSpec { return s.WithChannel(k, size) })
}

// ADL renders the design as an ADL document plus its one component
// file, keyed by the path the document's components clause names. This
// is the design's only composed form: Build and Verify load it through
// internal/adl, and the same pair can be submitted to a verification
// service unchanged. The text is byte-deterministic (LTL propositions
// are sorted), so equal designs share a submission key. Names must be
// ADL identifiers and expressions must not contain a double quote or a
// newline; ADL returns an error naming the offending declaration rather
// than text whose parse error would point into generated lines.
func (d *Design) ADL() (src string, components map[string]string, err error) {
	if err := valid("system", d.Name); err != nil {
		return "", nil, err
	}
	path := d.Name + ".pml"
	var b strings.Builder
	fmt.Fprintf(&b, "system %s {\n    components %q\n", d.Name, path)
	for _, c := range d.Connectors {
		if err := valid("connector", c.Name); err != nil {
			return "", nil, err
		}
		if err := c.Spec.Validate(); err != nil {
			return "", nil, fmt.Errorf("core: connector %s: %w", c.Name, err)
		}
		fmt.Fprintf(&b, "\n    connector %s {\n        send    %s\n        channel %s\n        receive %s\n    }\n",
			c.Name, c.Spec.Send.Token(), adl.ChannelToken(c.Spec.Channel, c.Spec.Size), c.Spec.Recv.Token())
	}
	b.WriteByte('\n')
	for _, in := range d.Instances {
		if err := valid("instance", in.Name); err != nil {
			return "", nil, err
		}
		if err := valid("component", in.Proc); err != nil {
			return "", nil, err
		}
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			switch a.Kind {
			case ArgInt:
				args[i] = strconv.FormatInt(a.N, 10)
				continue
			case ArgSend:
				args[i] = "send " + a.Conn
			case ArgRecv:
				args[i] = "recv " + a.Conn
			default:
				return "", nil, fmt.Errorf("core: instance %s: bad argument kind", in.Name)
			}
			if err := valid("connector", a.Conn); err != nil {
				return "", nil, err
			}
		}
		count := ""
		if in.Count > 1 {
			count = fmt.Sprintf(" * %d", in.Count)
		}
		fmt.Fprintf(&b, "    instance %s%s = %s(%s)\n", in.Name, count, in.Proc, strings.Join(args, ", "))
	}
	for _, p := range d.properties {
		if err := valid(p.kind, p.name, p.expr); err != nil {
			return "", nil, err
		}
		fmt.Fprintf(&b, "    %s %s \"%s\"", p.kind, p.name, p.expr)
		if p.kind == "ltl" {
			names := make([]string, 0, len(p.props))
			for n := range p.props {
				names = append(names, n)
			}
			sort.Strings(names)
			b.WriteString(" {")
			for _, n := range names {
				if err := valid("proposition", n, p.props[n]); err != nil {
					return "", nil, err
				}
				fmt.Fprintf(&b, " %s = \"%s\";", n, p.props[n])
			}
			b.WriteString(" }")
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return b.String(), map[string]string{path: d.Components}, nil
}

// valid checks that a declaration's name is an ADL identifier
// ([A-Za-z_][A-Za-z0-9_-]*) and that its expressions fit in ADL strings.
func valid(what, name string, exprs ...string) error {
	ok := name != ""
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok = ok && (c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			i > 0 && (c == '-' || c >= '0' && c <= '9'))
	}
	if !ok {
		return fmt.Errorf("core: %s %q is not an ADL identifier ([A-Za-z_][A-Za-z0-9_-]*)", what, name)
	}
	for _, e := range exprs {
		if strings.ContainsAny(e, "\"\n") {
			return fmt.Errorf("core: %s %s: %q contains a double quote or a newline", what, name, e)
		}
	}
	return nil
}

// load composes the design through its ADL rendering.
func (d *Design) load(cache *blocks.Cache) (*adl.System, error) {
	src, comps, err := d.ADL()
	if err != nil {
		return nil, err
	}
	sys, err := adl.Load(src, func(path string) (string, error) { return comps[path], nil }, cache)
	var ae *adl.Error
	if errors.As(err, &ae) {
		// A position would point into generated text; the message names
		// the declaration.
		return nil, fmt.Errorf("core: design %s: %s", d.Name, ae.Msg)
	}
	return sys, err
}

// Build composes the design into a verifiable model system.
func (d *Design) Build(cache *blocks.Cache) (*blocks.Builder, error) {
	sys, err := d.load(cache)
	if err != nil {
		return nil, err
	}
	return sys.Builder, nil
}

// VerifyResults holds per-property verification outcomes; "safety" is the
// combined invariant/deadlock/assertion search.
type VerifyResults map[string]*checker.Result

// AllOK reports whether every property verified.
func (v VerifyResults) AllOK() bool {
	for _, r := range v {
		if !r.OK {
			return false
		}
	}
	return true
}

// Verify builds the design and checks every declared property with
// adl.System.VerifyAll: fairness, per-property checkpoints and tracing
// apply as they do to a loaded ADL file.
func (d *Design) Verify(cache *blocks.Cache, opts checker.Options) (VerifyResults, error) {
	sys, err := d.load(cache)
	if err != nil {
		return nil, err
	}
	return sys.VerifyAll(opts), nil
}

// RuntimeConnector instantiates the named connector as an executable
// pnprt connector — the same spec that was verified now runs on
// goroutines.
func (d *Design) RuntimeConnector(name string, opts ...pnprt.Option) (*pnprt.Connector, error) {
	i, err := d.connectorIndex(name)
	if err != nil {
		return nil, err
	}
	return pnprt.NewConnector(name, d.Connectors[i].Spec, opts...)
}
