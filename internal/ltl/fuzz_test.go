package ltl

import "testing"

// FuzzLTL: formulas arrive from clients (POST /v1/jobs), so parsing and
// translating the negation, as the checker does, must return an error or
// an automaton whose transitions stay in range — never panic.
func FuzzLTL(f *testing.F) {
	for _, src := range []string{
		"[] p", "<> p", "[] <> p", "<> [] p", "[] (p -> <> q)", "[] (p -> <> (q && p))",
		"[] (q -> X q)", "<> [] !p", "zero && X one", "X X zero", "[] (q || !q)",
		"[] (requested -> <> acked)", "[] !both", "[] (some -> X (some || true))",
		"p U q", "p V q", "!(p && q) || r", "<> (", "p q", "[] (a\n-> a)",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := Parse(src)
		if err != nil {
			return
		}
		a, err := Translate(Not(g))
		if err != nil {
			return
		}
		check := func(tr Trans) {
			if tr.Dst < 0 || tr.Dst >= len(a.States) {
				t.Fatalf("%q: transition to state %d of %d", src, tr.Dst, len(a.States))
			}
			for _, atom := range append(tr.Pos, tr.Neg...) {
				if atom < 0 || atom >= len(a.Atoms) {
					t.Fatalf("%q: atom %d of %d", src, atom, len(a.Atoms))
				}
			}
		}
		for _, tr := range a.InitTrans {
			check(tr)
		}
		for _, st := range a.States {
			for _, tr := range st.Trans {
				check(tr)
			}
		}
	})
}
