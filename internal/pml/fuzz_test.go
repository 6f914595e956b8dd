package pml

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzCompileSource feeds the pml front end arbitrary source text, as a
// client submits it. An error is fine; a panic is not.
func FuzzCompileSource(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "adl", "*.pml"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no example sources (%v)", err)
	}
	for _, p := range files {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, src := range []string{
		"",
		"byte a; active proctype P() { do :: a < 3 -> a = a + 1 :: else -> break od }",
		"chan c = [1] of { byte, byte }; active proctype P() { byte l; c!1,2; c?l,_ }",
		"byte x[4]; active [2] proctype P() { atomic { x[_pid] = 1; assert(x[0] + x[1] < 3) } }",
		"mtype = { req, ack }; chan c = [0] of { mtype }; active proctype P() { end: c?req }",
		"active proctype P() { if :: timeout -> skip fi }",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		CompileSource(src)
	})
}
