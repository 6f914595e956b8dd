package verifyd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pnp/internal/api"
	"pnp/internal/checker"
	"pnp/internal/obs"
)

func mustSubmit(t *testing.T, s *Server, src string, comps map[string]string, opts checker.Options) *Job {
	t.Helper()
	job, err := s.Submit(src, comps, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestIncrementalReverification pins the PR10 acceptance path: a
// one-connector edit to a warm multi-module design recompiles only the
// changed module (modules_reused == modules_total - 1), and the warm
// verdict is identical — per property: verdict, stored states,
// counterexample — to a cold run of the same edited design, at both
// worker counts.
func TestIncrementalReverification(t *testing.T) {
	src := loadExample(t, "bridge.pnp")
	edited := strings.Replace(src, "channel single-slot", "channel fifo(1)", 1)
	if edited == src {
		t.Fatal("edit did not apply")
	}
	comps := bridgeComponents(t)

	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := checker.Options{Workers: workers}

			// Cold baseline: a fresh server sees the edited design first.
			cold := newTestServer(t, Config{Workers: 2})
			cj := waitDone(t, cold, mustSubmit(t, cold, edited, comps, opts))
			if cj.Report == nil {
				t.Fatalf("cold run produced no report: %+v", cj)
			}
			if cj.ModulesCompiled == 0 || cj.ModulesReused+cj.ModulesCompiled != cj.ModulesTotal {
				t.Fatalf("cold module accounting inconsistent: %+v of %d", cj.Modules, cj.ModulesTotal)
			}

			// Warm path: verify the base design first, then resubmit with
			// exactly one connector edited.
			warm := newTestServer(t, Config{Workers: 2})
			waitDone(t, warm, mustSubmit(t, warm, src, comps, opts))
			wj := waitDone(t, warm, mustSubmit(t, warm, edited, comps, opts))
			if wj.Report == nil {
				t.Fatalf("warm run produced no report: %+v", wj)
			}
			if wj.ModulesTotal == 0 || wj.ModulesReused != wj.ModulesTotal-1 || wj.ModulesCompiled != 1 {
				t.Fatalf("one-connector edit: total=%d reused=%d compiled=%d, want N-1 reused, 1 compiled",
					wj.ModulesTotal, wj.ModulesReused, wj.ModulesCompiled)
			}

			// Verdict parity, property by property.
			if cj.Report.OK != wj.Report.OK || len(cj.Report.Properties) != len(wj.Report.Properties) {
				t.Fatalf("cold/warm reports diverge: ok=%v/%v props=%d/%d",
					cj.Report.OK, wj.Report.OK, len(cj.Report.Properties), len(wj.Report.Properties))
			}
			for i := range cj.Report.Properties {
				cp, wp := cj.Report.Properties[i], wj.Report.Properties[i]
				if cp.Name != wp.Name || cp.OK != wp.OK || cp.Verdict != wp.Verdict ||
					cp.States != wp.States || cp.Counterexample != wp.Counterexample {
					t.Errorf("property %s: cold (%s, %d states) != warm (%s, %d states)",
						cp.Name, cp.Verdict, cp.States, wp.Verdict, wp.States)
				}
			}
		})
	}
}

// TestJobModulesOnWire checks the additive v1 surface: the job document
// carries the module DAG, and GET /v1/artifacts/{hash} peeks any listed
// module's envelope.
func TestJobModulesOnWire(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Workers: 2, Registry: reg})
	tsrv := httptest.NewServer(s.Handler())
	defer tsrv.Close()
	ts := tsrv.URL

	env, _ := json.Marshal(api.JobRequest{
		ADL:        loadExample(t, "bridge.pnp"),
		Components: bridgeComponents(t),
	})
	resp, err := http.Post(ts+"/v1/jobs", "application/json", strings.NewReader(string(env)))
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(job.Modules) == 0 || job.ModulesTotal != len(job.Modules) {
		t.Fatalf("job document must list its modules: %+v", job)
	}
	if job.ModulesReused+job.ModulesCompiled != job.ModulesTotal {
		t.Fatalf("module counters inconsistent: %+v", job)
	}

	// Peek the first module over the wire.
	resp, err = http.Get(ts + "/v1/artifacts/" + job.Modules[0].Hash)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact peek = %d, want 200", resp.StatusCode)
	}
	var art struct {
		Hash   string `json:"hash"`
		Kind   string `json:"kind"`
		Source string `json:"source"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&art); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if art.Hash != job.Modules[0].Hash || art.Kind != job.Modules[0].Kind || art.Source == "" {
		t.Fatalf("artifact envelope = %+v, want module %+v", art, job.Modules[0])
	}

	// An absent (but well-formed) hash is 404; a malformed one is 400.
	resp, err = http.Get(ts + "/v1/artifacts/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent artifact = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts + "/v1/artifacts/not-a-hash")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed hash = %d, want 400", resp.StatusCode)
	}

	// The ISSUE's metric names are live on the registry.
	if reg.Counter("artifact_store_misses_total").Value() == 0 {
		t.Error("artifact_store_misses_total must count the cold compile")
	}
	if reg.Counter("jobs_modules_compiled_total").Value() == 0 {
		t.Error("jobs_modules_compiled_total must count compiled modules")
	}
}
