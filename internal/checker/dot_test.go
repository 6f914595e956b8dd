package checker

import (
	"regexp"
	"strings"
	"testing"
)

func TestWriteDOT(t *testing.T) {
	s := sysFromSource(t, `
byte x;
active proctype P() { x = 1; x = 2 }`)
	var sb strings.Builder
	if err := New(s, Options{}).WriteDOT(&sb, 100); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()
	for _, want := range []string{"digraph statespace", "s0", "x=0", "x=2", "->", "}"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	// The terminal state gets a double border.
	if !strings.Contains(dot, "peripheries=2") {
		t.Errorf("terminal state not marked:\n%s", dot)
	}
}

func TestWriteDOTMarksViolations(t *testing.T) {
	s := sysFromSource(t, `
byte x;
active proctype P() { x = 1; x = 2 }`)
	inv, err := InvariantFromSource(s.Prog, "small", "x < 2")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := New(s, Options{Invariants: []Invariant{inv}}).WriteDOT(&sb, 100); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "color=red") {
		t.Errorf("violating state not highlighted:\n%s", sb.String())
	}
}

func TestWriteDOTTruncates(t *testing.T) {
	s := sysFromSource(t, `
byte x, y;
active proctype P() {
	do
	:: x = x + 1
	:: y = y + 1
	od
}`)
	var sb strings.Builder
	if err := New(s, Options{}).WriteDOT(&sb, 10); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()
	if !strings.Contains(dot, "truncated") {
		t.Errorf("truncation marker missing")
	}
	// Exactly the first maxStates states are drawn, and every edge joins
	// two of them.
	declared := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  (s\d+) \[label=`).FindAllStringSubmatch(dot, -1) {
		declared[m[1]] = true
	}
	if len(declared) != 10 {
		t.Errorf("%d nodes declared, want 10:\n%s", len(declared), dot)
	}
	for _, m := range regexp.MustCompile(`(s\d+) -> (s\d+)`).FindAllStringSubmatch(dot, -1) {
		for _, n := range m[1:] {
			if !declared[n] {
				t.Errorf("edge %s names undeclared node %s:\n%s", m[0], n, dot)
			}
		}
	}
}
