// Package obs is Musketeer's zero-dependency observability layer: a
// per-run flight recorder of hierarchical spans, a process-wide metrics
// registry, and estimator-accuracy accounting.
//
// Everything here is built around two invariants:
//
//   - Race safety. One recorder and one registry are shared by every
//     goroutine of a concurrent workflow execution (scheduler workers,
//     engine jobs, the WHILE driver). Span creation and metric updates are
//     internally synchronized; an individual span is owned by the goroutine
//     that started it until End, which matches how the execution stack
//     hands work to exactly one worker at a time.
//
//   - Free when disabled. A nil *Recorder, nil *Span, nil *Registry, and
//     nil counters/gauges/histograms are all valid receivers whose methods
//     do nothing — and, because every attribute setter takes typed (string,
//     int64, float64) values rather than interface{}, a disabled call site
//     performs zero allocations. ci.sh gates this with a
//     testing.AllocsPerRun guard.
//
// Spans form a tree (workflow → optimize/partition-search → analyze →
// schedule → job attempt → engine phase, with per-iteration WHILE spans)
// and carry both real wall-clock timings and the simulated-clock timings of
// the cost model. Export as Chrome trace_event JSON (Perfetto-loadable)
// lives in trace.go; the metrics registry in metrics.go; predicted-vs-
// measured makespan accounting in accuracy.go.
package obs

import (
	"sync"
	"time"
)

// Recorder is a per-run flight recorder. The zero value is not usable; a
// nil *Recorder is — every method no-ops, which is how tracing is disabled
// without conditionals at the instrumentation sites.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []*Span
	next  int64
}

// NewRecorder starts an empty flight recorder whose wall-clock epoch is
// now; span timestamps are offsets from it.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now()}
}

// AttrKind discriminates a span attribute's value field.
type AttrKind uint8

// Attribute kinds. String and integer attributes describe structure (names,
// attempt numbers, byte counts) and survive golden-trace zeroing; float
// attributes are measurements and are dropped when timings are zeroed.
const (
	AttrStr AttrKind = iota
	AttrInt
	AttrFloat
)

// Attr is one typed span attribute. Typed variants (instead of
// interface{}) keep disabled instrumentation allocation-free: nothing is
// boxed before the nil check.
type Attr struct {
	Key   string
	Kind  AttrKind
	Str   string
	Int   int64
	Float float64
}

// Span is one timed node of the flight recorder's tree. Fields are written
// only by the goroutine that started the span (spans are handed to exactly
// one worker at a time); the recorder's span list is the shared, mutex-
// guarded structure.
type Span struct {
	rec *Recorder
	// ID and Parent place the span in the recorder's tree (Parent 0 =
	// root). IDs reflect creation order, which is nondeterministic under
	// concurrency — the exporter orders the tree structurally instead.
	ID     int64
	Parent int64
	Name   string
	// Cat is the span's category ("pipeline", "job", "phase", "while").
	Cat string
	// Start and Dur are real wall-clock offsets from the recorder epoch.
	Start, Dur time.Duration
	// SimStart and SimDur place the span on the simulated timeline
	// (seconds); negative means unset.
	SimStart, SimDur float64
	// ownTrack marks spans that start a new track in the trace viewer
	// (job attempts), so concurrent jobs render on separate lanes.
	ownTrack bool
	attrs    []Attr
	ended    bool
}

// StartSpan opens a child span of parent (nil parent = a root span).
// Returns nil — and allocates nothing — on a nil recorder.
func (r *Recorder) StartSpan(parent *Span, name, cat string) *Span {
	if r == nil {
		return nil
	}
	s := &Span{rec: r, Name: name, Cat: cat, SimStart: -1, SimDur: -1}
	r.mu.Lock()
	r.next++
	s.ID = r.next
	if parent != nil {
		s.Parent = parent.ID
	}
	s.Start = time.Since(r.epoch)
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s
}

// End closes the span at the current wall clock. Safe on nil spans and
// idempotent (retried instrumentation cannot double-close).
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.Dur = time.Since(s.rec.epoch) - s.Start
}

// Ended reports whether End has been called. A nil span has nothing to end
// and reports true.
func (s *Span) Ended() bool { return s == nil || s.ended }

// NewTrack marks the span as the start of a new display track, so the
// trace viewer renders it (and its children) on its own lane instead of
// overlapping concurrent siblings.
func (s *Span) NewTrack() {
	if s == nil {
		return
	}
	s.ownTrack = true
}

// SetSim places the span on the simulated timeline (seconds). May be
// called after End — simulated start/finish times are only known once the
// scheduler has accounted the whole submission.
func (s *Span) SetSim(start, dur float64) {
	if s == nil {
		return
	}
	s.SimStart, s.SimDur = start, dur
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, val string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Kind: AttrStr, Str: val})
}

// SetInt attaches an integer attribute (structural: attempts, iteration
// and byte counts — kept by golden-trace zeroing).
func (s *Span) SetInt(key string, val int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Kind: AttrInt, Int: val})
}

// SetFloat attaches a float attribute (a measurement: wall milliseconds,
// predicted/actual seconds — dropped by golden-trace zeroing).
func (s *Span) SetFloat(key string, val float64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Kind: AttrFloat, Float: val})
}

// Attrs returns the span's attributes in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	return s.attrs
}

// Spans returns a snapshot of every span recorded so far, in creation
// order. The returned slice is a copy; the spans are shared.
func (r *Recorder) Spans() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Span(nil), r.spans...)
}

// Len reports how many spans have been recorded.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}
