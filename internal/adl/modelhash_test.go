package adl_test

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"pnp/internal/abp"
	"pnp/internal/adl"
	"pnp/internal/blocks"
	"pnp/internal/bridge"
	"pnp/internal/swp"
	"pnp/internal/verifyd"
)

// TestCaseStudyModelHashes pins the ModelHash of every case-study
// configuration: the six E8–E10 bridge rows, abp, swp and the four
// examples/adl designs. A change to the loader, the block library or a
// case study's design that moves any of them shows here, by name.
func TestCaseStudyModelHashes(t *testing.T) {
	build := map[string]func() (*blocks.Builder, error){}
	for name, cfg := range map[string]bridge.Config{
		"bridge-exactly-asyn-blocking": {Variant: bridge.ExactlyN, EnterSend: blocks.AsynBlockingSend},
		"bridge-exactly-asyn-checking": {Variant: bridge.ExactlyN, EnterSend: blocks.AsynCheckingSend},
		"bridge-exactly-syn-blocking":  {Variant: bridge.ExactlyN, EnterSend: blocks.SynBlockingSend},
		"bridge-exactly-syn-checking":  {Variant: bridge.ExactlyN, EnterSend: blocks.SynCheckingSend},
		"bridge-at-most-asyn-blocking": {Variant: bridge.AtMostN, EnterSend: blocks.AsynBlockingSend},
		"bridge-at-most-syn-blocking":  {Variant: bridge.AtMostN, EnterSend: blocks.SynBlockingSend},
	} {
		cfg := cfg
		build[name] = func() (*blocks.Builder, error) { return bridge.Build(cfg, nil) }
	}
	build["abp"] = func() (*blocks.Builder, error) { return abp.Build(abp.Config{}, nil) }
	build["swp"] = func() (*blocks.Builder, error) { return swp.Build(swp.Config{}, nil) }
	dir := filepath.Join("..", "..", "examples", "adl")
	for _, file := range []string{"bridge.pnp", "bridge-broken.pnp", "lossy.pnp", "pingpong.pnp"} {
		file := file
		build["examples/adl/"+file] = func() (*blocks.Builder, error) {
			src, err := os.ReadFile(filepath.Join(dir, file))
			if err != nil {
				return nil, err
			}
			sys, err := adl.Load(string(src), func(ref string) (string, error) {
				b, err := os.ReadFile(filepath.Join(dir, ref))
				return string(b), err
			}, nil)
			if err != nil {
				return nil, err
			}
			return sys.Builder, nil
		}
	}
	// Recorded while the monolithic and modular loaders both existed;
	// the examples' bridge designs are the E8 and E9 rows.
	want := map[string]string{
		"bridge-exactly-asyn-blocking":   "90c123415f2b3657c466173b52a7729f9e245461509fce6c9a6d1b680fd4e0a0",
		"bridge-exactly-asyn-checking":   "ae09ea3f725884016cfe2e141d31193b7f827eadecde341f3a48e8d72f9e07d6",
		"bridge-exactly-syn-blocking":    "bb7b1b88c47ef1d46bd1379bec10f276d1a349e89d815c596b185cd903a28001",
		"bridge-exactly-syn-checking":    "0fbdac6cac939079414913564e2f0faebfef10d2ef155f2e666759a4da3978b6",
		"bridge-at-most-asyn-blocking":   "1c042a69a40f26a5e738c3447bf2fcf78ece457eda114c52eb9971c04f105821",
		"bridge-at-most-syn-blocking":    "17963fca915d41cd0e259439aebe0d45b2dbcd898cf1a7041450c7225d8a62a6",
		"abp":                            "57c0042ae0e42e693c72d36e228c938331838f78d1f272cb942c30206e1d5149",
		"swp":                            "e3208a778b89f62824acd6b12e1e2b1c2da52c7d1850048de7470764d173c472",
		"examples/adl/bridge.pnp":        "bb7b1b88c47ef1d46bd1379bec10f276d1a349e89d815c596b185cd903a28001",
		"examples/adl/bridge-broken.pnp": "90c123415f2b3657c466173b52a7729f9e245461509fce6c9a6d1b680fd4e0a0",
		"examples/adl/lossy.pnp":         "58380d2e7567efd8fa64e4ef8654935ad4f420b22ec97440967eca7377cdefd4",
		"examples/adl/pingpong.pnp":      "973f3242ab4f4255e03343e8dbcf3f3d5d9a1c676025e035e71d884df416c389",
	}
	if len(build) != len(want) {
		t.Fatalf("%d configurations, want 12", len(build))
	}
	for name, f := range build {
		b, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := verifyd.ModelHash(b)
		if got := hex.EncodeToString(h[:]); got != want[name] {
			t.Errorf("%s: ModelHash %s, want %s", name, got, want[name])
		}
	}
}
