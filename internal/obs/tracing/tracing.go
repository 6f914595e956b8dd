// Package tracing is the distributed-tracing layer of the Plug-and-Play
// toolchain: lightweight spans (trace/span/parent IDs, attributes,
// timed events) recorded into a bounded in-process ring — a flight
// recorder — with W3C-style traceparent propagation over HTTP.
//
// One verification run yields one coherent trace: a pnpsweep -remote
// invocation produces sweep → cell → job → checker-phase spans whose
// per-level events carry frontier sizes and exploration rates, and the
// same TraceID threads the client, the daemon's structured logs, and
// GET /v1/{jobs,sweeps}/{id}/trace.
//
// Everything is nil-safe in the obs idiom: methods on a nil *Recorder
// or nil *Span are no-ops, so instrumented paths pay only a nil check
// when tracing is disabled. Completed spans land in the ring; readers
// snapshot by trace ID and export as NDJSON (one span per line) or as
// Chrome trace_event JSON for chrome://tracing and Perfetto.
package tracing

import (
	"context"
	"encoding/hex"
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// TraceID identifies one end-to-end trace (16 bytes, hex on the wire).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes, hex on the wire).
type SpanID [8]byte

// String renders the ID in lowercase hex, the traceparent form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID in lowercase hex, the traceparent form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports the all-zero (invalid per W3C) trace ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports the all-zero (invalid per W3C) span ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// NewTraceID returns a random non-zero trace ID. math/rand/v2's global
// generator is randomly seeded per process and safe for concurrent use,
// so IDs are unique across the fleet without a syscall per span.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		putUint64(t[:8], rand.Uint64())
		putUint64(t[8:], rand.Uint64())
	}
	return t
}

// NewSpanID returns a random non-zero span ID.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		putUint64(s[:], rand.Uint64())
	}
	return s
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// parseID decodes a fixed-size lowercase-hex ID.
func parseID(dst, src []byte) bool {
	if len(src) != 2*len(dst) {
		return false
	}
	_, err := hex.Decode(dst, src)
	return err == nil
}

// Attr is one key/value annotation on a span or event.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// A attaches a string attribute.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Event is one timed annotation inside a span — a BFS level, a cache
// hit, a protocol signal.
type Event struct {
	Time  time.Time `json:"time"`
	Name  string    `json:"name"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// SpanData is the completed-span record held in the ring and streamed
// over NDJSON — the wire shape of GET /v1/jobs/{id}/trace.
type SpanData struct {
	TraceID string    `json:"trace_id"`
	SpanID  string    `json:"span_id"`
	Parent  string    `json:"parent_span_id,omitempty"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Attrs   []Attr    `json:"attrs,omitempty"`
	Events  []Event   `json:"events,omitempty"`
}

// Duration is the span's wall-clock extent.
func (d SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }

// maxEventsPerSpan bounds a single span's event list; overflowing events
// are counted and surfaced as a dropped_events attribute so a
// million-level search cannot balloon the flight recorder.
const maxEventsPerSpan = 256

// Span is one in-flight operation. A nil *Span is a valid no-op
// receiver, so instrumentation never branches on "tracing enabled".
type Span struct {
	rec    *Recorder
	tid    TraceID
	sid    SpanID
	parent SpanID

	mu      sync.Mutex
	name    string
	start   time.Time
	attrs   []Attr
	events  []Event
	dropped int
	ended   bool
}

// TraceID returns the span's trace ID (zero for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.tid
}

// SpanID returns the span's ID (zero for a nil span).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.sid
}

// SpanContext is the propagated (trace, span) pair — what a traceparent
// header carries across a process boundary.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether both IDs are non-zero.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Context returns the span's propagation context (zero for nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.tid, SpanID: s.sid}
}

// SetAttr attaches an attribute. Safe on nil and after End (ignored).
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// AddEvent appends a timed event, up to maxEventsPerSpan; the overflow
// count surfaces as a dropped_events attribute on End. Safe on nil and
// for concurrent use.
func (s *Span) AddEvent(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	switch {
	case s.ended:
	case len(s.events) >= maxEventsPerSpan:
		s.dropped++
	default:
		s.events = append(s.events, Event{Time: time.Now(), Name: name, Attrs: attrs})
	}
	s.mu.Unlock()
}

// End completes the span and records it into the recorder's ring.
// Idempotent; safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	if s.dropped > 0 {
		s.attrs = append(s.attrs, Attr{Key: "dropped_events", Value: itoa(s.dropped)})
	}
	data := SpanData{
		TraceID: s.tid.String(),
		SpanID:  s.sid.String(),
		Name:    s.name,
		Start:   s.start,
		End:     time.Now(),
		Attrs:   s.attrs,
		Events:  s.events,
	}
	if !s.parent.IsZero() {
		data.Parent = s.parent.String()
	}
	s.mu.Unlock()
	s.rec.record(data)
}

// itoa avoids strconv for the one small-int rendering End needs.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// DefaultRecorderCapacity is the ring size when NewRecorder is given a
// non-positive capacity.
const DefaultRecorderCapacity = 4096

// Recorder is the flight recorder: a bounded ring of completed spans.
// When full, the oldest spans fall off — the view is always the most
// recent window. A nil *Recorder disables tracing: StartSpan returns a
// nil span and the context unchanged.
type Recorder struct {
	mu      sync.Mutex
	buf     []SpanData
	head    int // index of the oldest span
	n       int // spans currently held
	dropped int64
}

// NewRecorder creates a flight recorder holding up to capacity
// completed spans.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{buf: make([]SpanData, capacity)}
}

func (r *Recorder) record(d SpanData) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.n == len(r.buf) {
		r.buf[r.head] = d
		r.head = (r.head + 1) % len(r.buf)
		r.dropped++
	} else {
		r.buf[(r.head+r.n)%len(r.buf)] = d
		r.n++
	}
	r.mu.Unlock()
}

// Dropped returns how many completed spans have been evicted so far.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Len returns the number of spans currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Spans returns a copy of the current window, oldest-completed first.
func (r *Recorder) Spans() []SpanData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanData, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	return out
}

// Trace returns the recorded spans of one trace, ordered by start time
// (parents started before their children, so the NDJSON stream reads
// top-down).
func (r *Recorder) Trace(id TraceID) []SpanData { return r.TraceHex(id.String()) }

// TraceHex is Trace keyed by the hex form — what URLs and job records
// carry.
func (r *Recorder) TraceHex(hexID string) []SpanData {
	if r == nil {
		return nil
	}
	var out []SpanData
	for _, d := range r.Spans() {
		if d.TraceID == hexID {
			out = append(out, d)
		}
	}
	sortSpans(out)
	return out
}

// Merge appends to have the spans of more it does not already hold (by
// span id) and restores start order — how a coordinator folds the spans
// a worker recorded into its own view of one trace.
func Merge(have, more []SpanData) []SpanData {
	seen := make(map[string]bool, len(have))
	for _, s := range have {
		seen[s.SpanID] = true
	}
	for _, s := range more {
		if !seen[s.SpanID] {
			seen[s.SpanID] = true
			have = append(have, s)
		}
	}
	sort.SliceStable(have, func(i, j int) bool { return have[i].Start.Before(have[j].Start) })
	return have
}

// TraceSummary describes one trace present in the ring.
type TraceSummary struct {
	TraceID string    `json:"trace_id"`
	Root    string    `json:"root"` // name of the earliest span
	Spans   int       `json:"spans"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
}

// Traces summarizes every trace in the ring, most recent first.
func (r *Recorder) Traces() []TraceSummary {
	if r == nil {
		return nil
	}
	byID := map[string]*TraceSummary{}
	var order []string
	for _, d := range r.Spans() {
		ts := byID[d.TraceID]
		if ts == nil {
			ts = &TraceSummary{TraceID: d.TraceID, Root: d.Name, Start: d.Start, End: d.End}
			byID[d.TraceID] = ts
			order = append(order, d.TraceID)
		}
		ts.Spans++
		if d.Start.Before(ts.Start) {
			ts.Start = d.Start
			ts.Root = d.Name
		}
		if d.End.After(ts.End) {
			ts.End = d.End
		}
	}
	out := make([]TraceSummary, 0, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		out = append(out, *byID[order[i]])
	}
	return out
}

// sortSpans orders by start time, then span ID for stability.
func sortSpans(spans []SpanData) {
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0; j-- {
			a, b := &spans[j-1], &spans[j]
			if a.Start.Before(b.Start) || (a.Start.Equal(b.Start) && a.SpanID <= b.SpanID) {
				break
			}
			spans[j-1], spans[j] = spans[j], spans[j-1]
		}
	}
}

// --- context propagation ---

type spanKey struct{}
type remoteKey struct{}

// ContextWithSpan returns ctx carrying sp as the current span; child
// spans started from the returned context parent to it.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// ContextWithRemote returns ctx carrying a remote parent (an extracted
// traceparent): spans started from it join the remote trace. An invalid
// sc returns ctx unchanged.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey{}, sc)
}

// RemoteFromContext returns the remote parent, or a zero SpanContext.
func RemoteFromContext(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	sc, _ := ctx.Value(remoteKey{}).(SpanContext)
	return sc
}

// Current returns the propagation context of the current span, falling
// back to the remote parent — what an outbound traceparent should carry.
func Current(ctx context.Context) SpanContext {
	if sp := SpanFromContext(ctx); sp != nil {
		return sp.Context()
	}
	return RemoteFromContext(ctx)
}

// StartSpan begins a span named name. The parent is the current span in
// ctx, else the remote parent from an extracted traceparent, else the
// span roots a fresh trace. The returned context carries the new span.
// On a nil recorder both returns are pass-throughs (ctx, nil).
func (r *Recorder) StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if r == nil {
		return ctx, nil
	}
	sp := &Span{rec: r, sid: NewSpanID(), name: name, start: time.Now(), attrs: attrs}
	if parent := SpanFromContext(ctx); parent != nil {
		sp.tid, sp.parent = parent.tid, parent.sid
	} else if sc := RemoteFromContext(ctx); sc.Valid() {
		sp.tid, sp.parent = sc.TraceID, sc.SpanID
	} else {
		sp.tid = NewTraceID()
	}
	return ContextWithSpan(ctx, sp), sp
}
