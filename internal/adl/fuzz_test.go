package adl

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse feeds the ADL parser arbitrary design text, as a client
// submits it. An error is fine; a panic is not.
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "adl", "*.pnp"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no example designs (%v)", err)
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
		"system s {}",
		`component "c.pml" P;`,
		"connector k { send sync; channel fifo(2); receive blocking; }",
		"/* unterminated",
		`invariant x "a > 0"`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		parse(src)
	})
}
