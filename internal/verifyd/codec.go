// Package verifyd implements verification as a service: a bounded worker
// pool draining a job queue of composed Plug-and-Play systems, with a
// content-addressed result cache so that re-verifying an unchanged
// (model, property, options) triple is a lookup instead of a search.
// This is the paper's E11 reuse claim promoted to a daemon: architects
// iterate on one port kind at a time, so most of each re-submission's
// properties hash to results the service has already computed.
package verifyd

import (
	"sort"
	"time"

	"pnp/internal/adl"
	"pnp/internal/api"
	"pnp/internal/checker"
)

// The v1 documents are declared in internal/api; this file holds the
// server-side logic that builds the verdict documents from checker
// results.

// NewPropertyVerdict converts one checker result into its JSON verdict.
// procs supplies process names for the MSC rendering; nil suppresses the
// per-process columns.
func NewPropertyVerdict(name, kind string, res *checker.Result, procs []string) api.PropertyVerdict {
	v := api.PropertyVerdict{
		Name:        name,
		Kind:        kind,
		OK:          res.OK,
		Verdict:     "verified",
		Message:     res.Message,
		Summary:     res.Summary(),
		States:      res.Stats.StatesStored,
		Matched:     res.Stats.StatesMatched,
		Transitions: res.Stats.Transitions,
		Depth:       res.Stats.MaxDepth,
		Reduced:     res.Stats.Reduced,
		Truncated:   res.Stats.Truncated,
		ElapsedMS:   float64(res.Stats.Elapsed) / float64(time.Millisecond),
		Unreached:   res.Unreached,
	}
	if !res.OK {
		v.Verdict = res.Kind.String()
	}
	if res.Trace != nil {
		v.Counterexample = res.Trace.String()
		v.MSC = res.Trace.MSC(procs)
	}
	return v
}

// NewReport assembles the full verdict document for a system from the
// VerifyAll result map, with properties sorted by name. This is the
// codec behind both GET /v1/jobs/{id} and pnpverify --json.
func NewReport(sys *adl.System, results map[string]*checker.Result) api.Report {
	kinds := make(map[string]string, len(sys.Sources))
	for _, ps := range sys.Sources {
		kinds[ps.Name] = ps.Kind
	}
	m := sys.Builder.System()
	procs := make([]string, 0, m.NumInstances())
	for _, in := range m.Instances() {
		procs = append(procs, in.Name)
	}
	rep := api.Report{
		System:    sys.Name,
		Processes: m.NumInstances(),
		Channels:  m.NumChannels(),
		OK:        true,
	}
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := NewPropertyVerdict(name, kinds[name], results[name], procs)
		rep.Properties = append(rep.Properties, v)
		if !v.OK {
			rep.OK = false
			rep.Failed++
		}
	}
	return rep
}
