package cluster

import (
	"pnp/internal/verifyd"
	"pnp/internal/verifyd/client"
)

// toReport converts the client's wire mirror of a report back into the
// server-side type the coordinator re-serves and caches. The two types
// are field-for-field mirrors of the same JSON document (the client
// deliberately avoids importing server packages), which the direct
// conversion of each verdict checks at compile time; this copy crosses
// that boundary once, at the coordinator, instead of forcing every
// consumer to care.
func toReport(r *client.Report) *verifyd.Report {
	if r == nil {
		return nil
	}
	out := &verifyd.Report{
		System:    r.System,
		Processes: r.Processes,
		Channels:  r.Channels,
		OK:        r.OK,
		Failed:    r.Failed,
	}
	for _, p := range r.Properties {
		out.Properties = append(out.Properties, verifyd.PropertyVerdict(p))
	}
	return out
}
