package checker

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the reachable state graph (up to maxStates states) in
// Graphviz DOT format — useful for inspecting small systems and for
// documentation. Node labels show the global variables; edge labels show
// the transition. States where an invariant fails are drawn in red, valid
// end states with a double border.
//
// The graph is the one CheckEventuallyReachable searches, stored
// breadth-first with O(transitions) memory: nodes are numbered in
// breadth-first order, and when the cap cuts the search every drawn node
// is declared, edges to states past the cap are left out, and a
// "truncated" note is added.
func (c *Checker) WriteDOT(w io.Writer, maxStates int) error {
	if maxStates <= 0 {
		maxStates = 500
	}
	p := c.stateGraph(maxStates)
	res := &Result{}
	p.build(res, nil, nil)

	if _, err := fmt.Fprintln(w, "digraph statespace {"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "  rankdir=LR; node [shape=box, fontname=monospace, fontsize=9];"); err != nil {
		return err
	}

	globals := c.sys.Prog.GlobalVars
	for u := range min(p.nodes.size(), maxStates) {
		st := p.decode(uint32(u))
		var parts []string
		for i, g := range globals {
			parts = append(parts, fmt.Sprintf("%s=%d", g.Name, c.sys.Global(st, i)))
		}
		label := strings.Join(parts, "\\n")
		if len(parts) == 0 {
			label = "·"
		}
		attrs := ""
		for _, inv := range c.opts.Invariants {
			if v, err := c.sys.EvalGlobal(st, inv.Expr); err != nil || v == 0 {
				attrs = ", color=red, fontcolor=red"
				break
			}
		}
		trs := c.sys.Successors(st)
		if len(trs) == 0 {
			attrs += ", peripheries=2"
		}
		if _, err := fmt.Fprintf(w, "  s%d [label=\"%s\"%s];\n", u, label, attrs); err != nil {
			return err
		}
		if u+1 >= p.start.size() {
			continue // stored, but not expanded before the cap
		}
		// The k-th transition without a violation is the row's k-th edge.
		e := p.start.at(uint32(u))
		for _, tr := range trs {
			if tr.Violation != "" {
				continue
			}
			if e == p.start.at(uint32(u+1)) {
				break
			}
			to := p.to.at(e)
			e++
			if int(to) >= maxStates {
				continue
			}
			el := strings.ReplaceAll(c.sys.FormatTransition(tr), `"`, `'`)
			if _, err := fmt.Fprintf(w, "  s%d -> s%d [label=\"%s\", fontsize=8];\n", u, to, el); err != nil {
				return err
			}
		}
	}
	if res.Stats.Truncated {
		if _, err := fmt.Fprintf(w, "  trunc [label=\"(truncated at %d states)\", shape=plaintext];\n", maxStates); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
