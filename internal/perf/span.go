package perf

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one benchmark-owned trace record: a named interval around a call
// into a layer, the span that caused it and the operation both belong to.
// Times are offsets from the tracer's epoch.
type Span struct {
	Name       string
	Start, End time.Duration
	Parent     int // index of the parent span, -1 for a root
	Op         int // operation id shared by every span of one request
}

// Tracer keeps spans in memory until the benchmark ends. A nil *Tracer
// records nothing, which is how the timed (untraced) runs switch it off.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewTracer starts an empty tracer whose epoch is now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its id (-1 on a nil tracer).
func (t *Tracer) Begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// End closes the span Begin returned.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// In runs fn inside a span.
func (t *Tracer) In(name string, parent, op int, fn func()) {
	id := t.Begin(name, parent, op)
	fn()
	t.End(id)
}

// Add records a span whose interval was measured elsewhere — server
// timestamps, or the product's own flight-recorder spans — and returns its
// id. Instants are converted to offsets from the tracer's epoch.
func (t *Tracer) Add(name string, start, end time.Time, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SpanStat aggregates every span of one name.
type SpanStat struct {
	Count       int
	Total, Self time.Duration
}

// SelfTimes sums, per span name, total duration and self time: a span's
// duration minus the part of its interval its children cover. Overlapping
// children (parallel jobs) are merged first, so coverage is never counted
// twice and self time is never negative.
func SelfTimes(spans []Span) map[string]SpanStat {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]SpanStat)
	for i, s := range spans {
		st := out[s.Name]
		st.Count++
		st.Total += s.End - s.Start
		st.Self += s.End - s.Start - coverage(children[i], s.Start, s.End)
		out[s.Name] = st
	}
	return out
}

// coverage is the length of the union of the spans' intervals, clipped to
// [lo, hi].
func coverage(spans []Span, lo, hi time.Duration) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var covered time.Duration
	edge := lo
	for _, s := range spans {
		start, end := max(s.Start, edge), min(s.End, hi)
		if end > start {
			covered += end - start
			edge = end
		}
	}
	return covered
}

// WriteChrome writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or ui.perfetto.dev). Each operation is one track.
func (t *Tracer) WriteChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	spans := t.Spans()
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / float64(time.Microsecond), Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Op, Args: map[string]int{"span": i, "parent": s.Parent},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
