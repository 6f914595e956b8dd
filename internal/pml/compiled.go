package pml

import (
	"errors"
	"fmt"
)

// Compiled is a fully resolved, lowered pml program: every proctype body
// has been compiled to an explicit transition graph whose edges are atomic
// actions, ready for state-space exploration.
type Compiled struct {
	Mtypes      []string   // value of Mtypes[i] is int64(i+1)
	GlobalVars  []VarInfo  // declaration order
	GlobalChans []ChanInfo // declaration order
	Procs       []*Proc    // declaration order
	byName      map[string]*Proc
	mtypeVal    map[string]int64
}

// Proc returns the compiled proctype with the given name, or nil.
func (c *Compiled) Proc(name string) *Proc { return c.byName[name] }

// MtypeValue returns the value of an mtype constant, or (0, false).
func (c *Compiled) MtypeValue(name string) (int64, bool) {
	v, ok := c.mtypeVal[name]
	return v, ok
}

// MtypeName returns the declared name for an mtype value, or its decimal
// form when the value does not correspond to a constant.
func (c *Compiled) MtypeName(v int64) string {
	i := int(v) - 1
	if i >= 0 && i < len(c.Mtypes) {
		return c.Mtypes[i]
	}
	return fmt.Sprintf("%d", v)
}

// VarInfo describes an integer-family variable slot.
type VarInfo struct {
	Name string
	Type Type
	Init int64
}

// ChanInfo describes a channel: capacity 0 is rendezvous.
type ChanInfo struct {
	Name   string
	Cap    int
	Fields []Type
}

// ChanSlotInfo describes one channel slot of a proctype: either a channel
// parameter (bound at instantiation) or a local channel declaration (a
// fresh channel is created per instance).
type ChanSlotInfo struct {
	Name    string
	IsParam bool
	Decl    ChanInfo // valid when !IsParam
}

// ParamInfo maps a proctype parameter position to its slot.
type ParamInfo struct {
	Name   string
	IsChan bool
	Slot   int // index into IntVars or ChanSlots
	Type   Type
}

// Proc is a compiled proctype.
type Proc struct {
	Name      string
	Active    int
	Params    []ParamInfo
	IntVars   []VarInfo      // int-family slots: params first, then locals
	ChanSlots []ChanSlotInfo // chan slots: params first, then local decls
	// InitEdges lists local declarations whose initializer is not a
	// compile-time constant; they are compiled as assignment edges inline
	// in the body, so nothing extra is needed here. Constant initializers
	// are recorded in IntVars[i].Init.
	Entry int
	Nodes []Node
}

// Node is a control location of a compiled proctype.
type Node struct {
	Edges    []Edge
	Atomic   bool     // inside an atomic/d_step region
	EndLabel bool     // carries an end* label: valid end state
	Final    bool     // body exit: valid end state
	Labels   []string // all labels attached here (diagnostics)
}

// EdgeKind classifies the atomic action an edge performs.
type EdgeKind int

// Edge kinds. EdgeEps exists only during compilation and never survives in
// a Compiled program.
const (
	EdgeGuard EdgeKind = iota + 1
	EdgeElse
	EdgeAssign
	EdgeSend
	EdgeRecv
	EdgeAssert
	EdgeSkip
	EdgeEps
)

// VarRef is a resolved reference to a variable slot.
type VarRef struct {
	Global bool
	Idx    int
	Type   Type
	Name   string
}

// ChanRef is a resolved reference to a channel: either a global channel
// index or a proctype-local channel slot.
type ChanRef struct {
	Global bool
	Idx    int
	Name   string
}

// RRecvArgKind classifies a resolved receive argument.
type RRecvArgKind int

// Resolved receive argument kinds.
const (
	RArgBind RRecvArgKind = iota + 1
	RArgWild
	RArgMatch
)

// RRecvArg is a resolved receive argument.
type RRecvArg struct {
	Kind RRecvArgKind
	Var  VarRef // RArgBind
	X    RExpr  // RArgMatch
}

// Edge is one atomic action of the transition graph.
type Edge struct {
	Kind     EdgeKind
	Dst      int
	Pos      Pos
	Label    string // human-readable action, for counterexample traces
	Cond     RExpr  // EdgeGuard, EdgeAssert
	Var      VarRef // EdgeAssign target (element 0 for array targets)
	VarIdx   RExpr  // EdgeAssign: index expression for array targets (nil for scalars)
	VarLen   int    // EdgeAssign: declared array length for bounds checking
	RHS      RExpr  // EdgeAssign
	Ch       ChanRef
	Sorted   bool // EdgeSend: !!
	Random   bool // EdgeRecv: ??
	SendArgs []RExpr
	RecvArgs []RRecvArg
	// Local marks an invisible process-private action: a skip, or a guard
	// or assignment that touches only process-local variables. Local
	// edges are independent of every other process and never affect
	// global properties, which the checker's partial-order reduction
	// exploits.
	Local bool
}

// exprIsLocal reports whether e reads only process-local state.
func exprIsLocal(e RExpr) bool {
	switch x := e.(type) {
	case *RConst, *RPid:
		return true
	case *RVar:
		return !x.Ref.Global
	case *RUnary:
		return exprIsLocal(x.X)
	case *RBinary:
		return exprIsLocal(x.X) && exprIsLocal(x.Y)
	case *RIndex:
		return !x.Base.Global && exprIsLocal(x.Idx)
	default: // RChanPred reads shared channel state; timeout is global
		return false
	}
}

// computeLocal decides the Local flag for a finished edge.
func (e *Edge) computeLocal() {
	switch e.Kind {
	case EdgeSkip:
		e.Local = true
	case EdgeGuard:
		e.Local = exprIsLocal(e.Cond)
	case EdgeAssign:
		e.Local = !e.Var.Global && exprIsLocal(e.RHS) &&
			(e.VarIdx == nil || exprIsLocal(e.VarIdx))
	default:
		e.Local = false
	}
}

// RExpr is a resolved, evaluable expression.
type RExpr interface{ rexpr() }

// RConst is a constant.
type RConst struct{ V int64 }

// RVar reads a variable slot.
type RVar struct{ Ref VarRef }

// RIndex reads an array element: Base.Idx is the slot of element 0 and
// Len the declared length. An out-of-range index is a runtime violation.
type RIndex struct {
	Base VarRef
	Len  int
	Idx  RExpr
}

// RPid is the executing instance's pid.
type RPid struct{}

// RTimeout is Spin's timeout builtin: true when the whole system has no
// other executable transition (supplied by the evaluation environment).
type RTimeout struct{}

// RUnary applies a unary operator.
type RUnary struct {
	Op UnaryOp
	X  RExpr
}

// RBinary applies a binary operator.
type RBinary struct {
	Op   BinaryOp
	X, Y RExpr
}

// RChanPred queries channel fill state.
type RChanPred struct {
	Op ChanPredOp
	Ch ChanRef
}

func (*RConst) rexpr()    {}
func (*RVar) rexpr()      {}
func (*RIndex) rexpr()    {}
func (*RPid) rexpr()      {}
func (*RTimeout) rexpr()  {}
func (*RUnary) rexpr()    {}
func (*RBinary) rexpr()   {}
func (*RChanPred) rexpr() {}

// EvalEnv supplies the dynamic context needed to evaluate an RExpr: the
// global store, the executing process's local store and pid, and channel
// fill levels. internal/model implements it.
type EvalEnv interface {
	Global(idx int) int64
	Local(idx int) int64
	Pid() int64
	ChanLen(ref ChanRef) int
	ChanCap(ref ChanRef) int
	// Timeout reports whether the system-wide timeout condition holds:
	// no process has any other executable transition.
	Timeout() bool
}

// ErrDivByZero is returned by Eval for division or modulus by zero.
var ErrDivByZero = errors.New("pml: division by zero")

// ErrIndexOutOfRange is returned by Eval for an array access outside the
// declared bounds.
var ErrIndexOutOfRange = errors.New("pml: array index out of range")

// Eval evaluates a resolved expression in the given environment. It is
// generic over the environment so a concrete env (internal/model's
// per-state adapter) is passed by value, never boxed onto the heap.
func Eval[E EvalEnv](e RExpr, env E) (int64, error) {
	switch x := e.(type) {
	case *RConst:
		return x.V, nil
	case *RVar:
		if x.Ref.Global {
			return env.Global(x.Ref.Idx), nil
		}
		return env.Local(x.Ref.Idx), nil
	case *RIndex:
		i, err := Eval(x.Idx, env)
		if err != nil {
			return 0, err
		}
		if i < 0 || i >= int64(x.Len) {
			return 0, ErrIndexOutOfRange
		}
		slot := x.Base.Idx + int(i)
		if x.Base.Global {
			return env.Global(slot), nil
		}
		return env.Local(slot), nil
	case *RPid:
		return env.Pid(), nil
	case *RTimeout:
		return b2i(env.Timeout()), nil
	case *RUnary:
		v, err := Eval(x.X, env)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case OpNeg:
			return -v, nil
		default: // OpNot
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
	case *RBinary:
		return evalBinary(x, env)
	case *RChanPred:
		n := int64(env.ChanLen(x.Ch))
		c := int64(env.ChanCap(x.Ch))
		switch x.Op {
		case PredLen:
			return n, nil
		case PredFull:
			return b2i(n >= c), nil
		case PredEmpty:
			return b2i(n == 0), nil
		case PredNfull:
			return b2i(n < c), nil
		default: // PredNempty
			return b2i(n > 0), nil
		}
	default:
		return 0, fmt.Errorf("pml: unknown expression node %T", e)
	}
}

func evalBinary[E EvalEnv](x *RBinary, env E) (int64, error) {
	a, err := Eval(x.X, env)
	if err != nil {
		return 0, err
	}
	// Short-circuit logical operators, matching Spin.
	switch x.Op {
	case OpAnd:
		if a == 0 {
			return 0, nil
		}
		b, err := Eval(x.Y, env)
		if err != nil {
			return 0, err
		}
		return b2i(b != 0), nil
	case OpOr:
		if a != 0 {
			return 1, nil
		}
		b, err := Eval(x.Y, env)
		if err != nil {
			return 0, err
		}
		return b2i(b != 0), nil
	}
	b, err := Eval(x.Y, env)
	if err != nil {
		return 0, err
	}
	switch x.Op {
	case OpAdd:
		return a + b, nil
	case OpSub:
		return a - b, nil
	case OpMul:
		return a * b, nil
	case OpDiv:
		if b == 0 {
			return 0, ErrDivByZero
		}
		return a / b, nil
	case OpMod:
		if b == 0 {
			return 0, ErrDivByZero
		}
		return a % b, nil
	case OpEq:
		return b2i(a == b), nil
	case OpNeq:
		return b2i(a != b), nil
	case OpLt:
		return b2i(a < b), nil
	case OpLe:
		return b2i(a <= b), nil
	case OpGt:
		return b2i(a > b), nil
	default: // OpGe
		return b2i(a >= b), nil
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ConstEval evaluates an expression that must be compile-time constant
// (numeric literals, mtype constants, arithmetic over them).
func ConstEval(e RExpr) (int64, bool) {
	v, err := Eval(e, constEnv{})
	if err != nil {
		return 0, false
	}
	return v, true
}

type constEnv struct{}

func (constEnv) Global(int) int64    { return 0 }
func (constEnv) Local(int) int64     { return 0 }
func (constEnv) Pid() int64          { return 0 }
func (constEnv) ChanLen(ChanRef) int { return 0 }
func (constEnv) ChanCap(ChanRef) int { return 0 }
func (constEnv) Timeout() bool       { return false }

// isConstExpr reports whether e contains no variable, pid, or channel
// references, i.e. Eval over the zero environment yields its true value.
func isConstExpr(e RExpr) bool {
	switch x := e.(type) {
	case *RConst:
		return true
	case *RUnary:
		return isConstExpr(x.X)
	case *RBinary:
		return isConstExpr(x.X) && isConstExpr(x.Y)
	default:
		return false
	}
}
