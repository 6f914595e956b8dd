package model

import "pnp/internal/pml"

// EvalAs evaluates e as process p does in st, through the environment
// successor generation uses.
func EvalAs(s *System, st *State, p int, e pml.RExpr) (int64, error) {
	return pml.Eval(e, env{s: s, st: st, proc: p})
}
