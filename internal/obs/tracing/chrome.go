package tracing

import (
	"encoding/json"
	"io"
	"os"
	"sort"
)

// chromeEvent is one entry of the Chrome trace_event JSON array, the
// format chrome://tracing and Perfetto open directly. Timestamps and
// durations are microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeFile writes spans to the file at path (created or
// truncated) as a Chrome trace_event JSON document — what every CLI's
// -trace-out flag does.
func WriteChromeFile(path string, spans []SpanData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := WriteChromeTrace(f, spans)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// WriteChromeTrace renders spans as a Chrome trace_event JSON document.
// Each trace becomes a process (pid) named by its TraceID; spans become
// "X" complete events assigned to thread lanes (tid) so that a child
// span sits directly under its still-open parent, concurrent siblings
// fan out to separate lanes, and span events appear as "i" instants on
// the owning span's lane.
func WriteChromeTrace(w io.Writer, spans []SpanData) error {
	byTrace := make(map[string][]SpanData)
	var order []string
	for _, s := range spans {
		if _, ok := byTrace[s.TraceID]; !ok {
			order = append(order, s.TraceID)
		}
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	sort.Strings(order)

	var evs []chromeEvent
	for pid, tid := range order {
		trace := byTrace[tid]
		evs = append(evs, chromeEvent{
			Name:  "process_name",
			Phase: "M",
			PID:   pid,
			Args:  map[string]any{"name": "trace " + tid},
		})
		evs = append(evs, chromeLanes(trace, pid)...)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(evs)
}

// chromeLanes lays one trace's spans out on thread lanes. Spans are
// processed in start order; each lane carries a stack of open spans, and
// a span lands on the lane whose top (after popping spans that ended
// before it started) is its parent — the on-top-of-stack heuristic that
// reproduces the nesting Chrome's flame view expects without requiring
// real thread identities.
func chromeLanes(trace []SpanData, pid int) []chromeEvent {
	sorted := make([]SpanData, len(trace))
	copy(sorted, trace)
	sort.Slice(sorted, func(i, j int) bool {
		if !sorted[i].Start.Equal(sorted[j].Start) {
			return sorted[i].Start.Before(sorted[j].Start)
		}
		return sorted[i].End.After(sorted[j].End)
	})

	var lanes [][]SpanData // per-lane stack of open spans
	var evs []chromeEvent
	for _, s := range sorted {
		lane := -1
		empty := -1
		for li := range lanes {
			st := lanes[li]
			for len(st) > 0 && !st[len(st)-1].End.After(s.Start) {
				st = st[:len(st)-1]
			}
			lanes[li] = st
			if len(st) == 0 {
				if empty < 0 {
					empty = li
				}
				continue
			}
			if s.Parent != "" && st[len(st)-1].SpanID == s.Parent {
				lane = li
				break
			}
		}
		if lane < 0 {
			if s.Parent == "" && empty >= 0 {
				lane = empty
			} else if s.Parent != "" {
				// Parent not on any stack (already ended, or its lane is
				// covered by a sibling): prefer a fresh lane so the span
				// doesn't visually nest under an unrelated one.
				if empty >= 0 {
					lane = empty
				} else {
					lanes = append(lanes, nil)
					lane = len(lanes) - 1
				}
			} else {
				lanes = append(lanes, nil)
				lane = len(lanes) - 1
			}
		}
		lanes[lane] = append(lanes[lane], s)

		args := make(map[string]any, len(s.Attrs)+2)
		args["trace_id"] = s.TraceID
		args["span_id"] = s.SpanID
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		dur := s.End.Sub(s.Start).Microseconds()
		if dur < 1 {
			dur = 1 // zero-width events are invisible in the flame view
		}
		evs = append(evs, chromeEvent{
			Name:  s.Name,
			Phase: "X",
			TS:    s.Start.UnixMicro(),
			Dur:   dur,
			PID:   pid,
			TID:   lane,
			Args:  args,
		})
		for _, e := range s.Events {
			ia := make(map[string]any, len(e.Attrs)+1)
			ia["span"] = s.Name
			for _, a := range e.Attrs {
				ia[a.Key] = a.Value
			}
			evs = append(evs, chromeEvent{
				Name:  e.Name,
				Phase: "i",
				TS:    e.Time.UnixMicro(),
				PID:   pid,
				TID:   lane,
				Scope: "t",
				Args:  ia,
			})
		}
	}
	return evs
}
