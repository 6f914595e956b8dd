// Package ref is a reference safety search for testing the checker: a
// plain breadth-first search over a map of state keys, with no options,
// storage tiers, workers or reduction. It decides what the checker's
// level engine decides under the default options — assertion and
// runtime violations and invalid end states — and picks among a level's
// problems by the same rule, so verdicts, stored-state counts and
// counterexample lengths compare one to one.
package ref

import (
	"cmp"
	"slices"
	"strings"

	"pnp/internal/model"
)

// Result is a verdict. Problem is "" when no reachable state has one,
// else "deadlock" or the violating transition's message. Stored counts
// the states stored, the level after the problem's included; CELen is
// the length of a shortest counterexample.
type Result struct {
	Problem string
	Stored  int
	CELen   int
}

// problem is a candidate of one level: rank 0 for a state's own
// problem, 1 for a violating transition (one step longer).
type problem struct {
	rank, idx int
	key, msg  string
}

// Check searches sys from its initial state.
func Check(sys *model.System) Result {
	init := sys.InitialState()
	seen := map[string]bool{string(init.AppendKey(nil)): true}
	level := []*model.State{init}
	for depth := 0; len(level) > 0; depth++ {
		var next []*model.State
		var problems []problem
		for _, st := range level {
			key := string(st.AppendKey(nil))
			trs := sys.Successors(st)
			for i := range sys.Instances() {
				if len(trs) == 0 && !sys.AtEndState(st, i) {
					problems = append(problems, problem{0, -1, key, "deadlock"})
					break
				}
			}
			for i, tr := range trs {
				if tr.Violation != "" {
					problems = append(problems, problem{1, i, key, tr.Violation})
				} else if k := string(tr.Next.AppendKey(nil)); !seen[k] {
					seen[k] = true
					next = append(next, tr.Next)
				}
			}
		}
		if len(problems) > 0 {
			p := slices.MinFunc(problems, func(a, b problem) int {
				return cmp.Or(cmp.Compare(a.rank, b.rank), strings.Compare(a.key, b.key), cmp.Compare(a.idx, b.idx))
			})
			return Result{Problem: p.msg, Stored: len(seen), CELen: depth + p.rank}
		}
		level = next
	}
	return Result{Stored: len(seen)}
}
