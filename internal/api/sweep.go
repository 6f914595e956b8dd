package api

import (
	"sort"
	"time"
)

// SweepSpec is the body of POST /v1/sweeps. The dimensions are ADL
// tokens ("syn-blocking", "fifo(2)", "blocking") so clients never depend
// on internal enum values. Preset names a built-in spec ("matrix") and
// makes every other field except Msgs/BufSize optional.
type SweepSpec struct {
	Name       string            `json:"name,omitempty"`
	Base       string            `json:"base,omitempty"`
	Components map[string]string `json:"components,omitempty"`
	Connector  string            `json:"connector,omitempty"`

	Sends    []string `json:"sends,omitempty"`
	Channels []string `json:"channels,omitempty"`
	Recvs    []string `json:"recvs,omitempty"`
	// FaultPlans varies the design's faults block; each entry is the
	// block's inner text ("" = none).
	FaultPlans []string `json:"fault_plans,omitempty"`

	UnderLossy bool `json:"under_lossy,omitempty"`
	LossySize  int  `json:"lossy_size,omitempty"`

	MaxStates int `json:"max_states,omitempty"`
	Workers   int `json:"workers,omitempty"`
	TimeoutMS int `json:"timeout_ms,omitempty"`

	// Preset selects a built-in spec ("matrix"); Msgs and BufSize
	// parameterize it.
	Preset  string `json:"preset,omitempty"`
	Msgs    int    `json:"msgs,omitempty"`
	BufSize int    `json:"buf_size,omitempty"`
}

// SweepCell is one cell's outcome: its coordinates, its verdict, and
// the cost of obtaining it.
type SweepCell struct {
	Index     int    `json:"index"`
	Connector string `json:"connector"`
	Send      string `json:"send"`
	Channel   string `json:"channel"`
	Size      int    `json:"size,omitempty"`
	Recv      string `json:"recv"`
	Faults    string `json:"faults,omitempty"`
	Companion bool   `json:"companion,omitempty"`
	Primary   int    `json:"primary"`

	// Verdict classifies the cell: "delivers-all", "may-lose-messages",
	// "deadlock", or another checker violation kind. OK is the report's
	// overall verdict; States is the safety search's stored-state count.
	Verdict string `json:"verdict"`
	OK      bool   `json:"ok"`
	States  int    `json:"states"`
	// Properties carries the full per-property verdicts of the cell's job.
	Properties []PropertyVerdict `json:"properties,omitempty"`

	// CacheHits/CacheMisses are the cell's job counters; Deduped marks a
	// cell that reused another cell's job in this sweep (its counters are
	// then zero — the cost was paid once, by the leader).
	CacheHits   int  `json:"cache_hits"`
	CacheMisses int  `json:"cache_misses"`
	Deduped     bool `json:"deduped,omitempty"`

	// ModulesReused/ModulesCompiled are the cell's job module counters:
	// how many per-module artifacts the submission pulled from the
	// artifact store versus compiled fresh.
	ModulesReused   int `json:"modules_reused,omitempty"`
	ModulesCompiled int `json:"modules_compiled,omitempty"`

	// Node names the cluster node that served the cell ("coordinator"
	// for cluster-cache answers); empty on a single-node sweep.
	Node string `json:"node,omitempty"`

	ElapsedMS float64 `json:"elapsed_ms"`
	// Err reports a per-cell submission failure; the sweep continues.
	Err string `json:"err,omitempty"`
}

// SweepResult is the aggregated outcome of one sweep.
type SweepResult struct {
	Name  string      `json:"name"`
	Cells []SweepCell `json:"cells"`

	Total  int `json:"total"`
	Passed int `json:"passed"`
	Failed int `json:"failed"`
	// DedupHits counts cells answered by another cell of this sweep;
	// CacheHits/CacheMisses sum the executed jobs' property-cache
	// counters.
	DedupHits   int `json:"dedup_hits"`
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// ModulesReused/ModulesCompiled sum the executed jobs' module
	// accounting — a warm sweep of near-identical cells shows reuse
	// dominating compilation.
	ModulesReused   int     `json:"modules_reused,omitempty"`
	ModulesCompiled int     `json:"modules_compiled,omitempty"`
	ElapsedMS       float64 `json:"elapsed_ms"`
}

// SweepStatus is the sweep resource of POST /v1/sweeps and GET
// /v1/sweeps/{id}.
type SweepStatus struct {
	ID      string    `json:"id"`
	Name    string    `json:"name"`
	State   string    `json:"state"` // "running" or "done"
	Started time.Time `json:"started"`
	Total   int       `json:"total_cells"`
	Done    int       `json:"done_cells"`
	// TraceID is the hex trace the sweep's spans record into (empty when
	// the server runs without a tracer); GET /v1/sweeps/{id}/trace
	// streams them.
	TraceID string `json:"trace_id,omitempty"`
	// Result is present once State is "done"; Err reports a sweep that
	// failed outright (its cells are then absent).
	Result *SweepResult `json:"result,omitempty"`
	Err    string       `json:"err,omitempty"`
}

// SweepLine is one NDJSON line of GET /v1/sweeps/{id}/stream: cell
// lines as results arrive, then exactly one sweep line.
type SweepLine struct {
	Cell  *SweepCell   `json:"cell,omitempty"`
	Sweep *SweepStatus `json:"sweep,omitempty"`
}

// verdictRank orders verdicts from strongest to weakest guarantee:
// delivery, possible loss, deadlock, any other violation, then cells
// that produced no verdict at all.
func verdictRank(c SweepCell) int {
	switch {
	case c.Err != "":
		return 4
	case c.Verdict == "delivers-all":
		return 0
	case c.Verdict == "may-lose-messages":
		return 1
	case c.Verdict == "deadlock":
		return 2
	default:
		return 3
	}
}

// Ranked returns the cells ordered best-first: strongest delivery
// guarantee, then fewest stored states (the cheapest design that still
// satisfies the properties), then cell order. Companion cells rank after
// primaries with the same verdict and cost.
func (r *SweepResult) Ranked() []SweepCell {
	out := append([]SweepCell(nil), r.Cells...)
	sort.SliceStable(out, func(i, j int) bool {
		ri, rj := verdictRank(out[i]), verdictRank(out[j])
		if ri != rj {
			return ri < rj
		}
		if out[i].Companion != out[j].Companion {
			return !out[i].Companion
		}
		if out[i].States != out[j].States {
			return out[i].States < out[j].States
		}
		return out[i].Index < out[j].Index
	})
	return out
}
