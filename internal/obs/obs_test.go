package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeAndAttrs(t *testing.T) {
	rec := NewRecorder()
	root := rec.StartSpan(nil, "workflow", "pipeline")
	child := rec.StartSpan(root, "schedule", "pipeline")
	child.SetStr("engine", "spark")
	child.SetInt("attempt", 2)
	child.SetFloat("queue_wait_ms", 1.5)
	child.SetSim(0, 42)
	child.End()
	root.End()

	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[1].Parent != spans[0].ID {
		t.Fatalf("child parent = %d, want %d", spans[1].Parent, spans[0].ID)
	}
	if got := len(child.Attrs()); got != 3 {
		t.Fatalf("got %d attrs, want 3", got)
	}
	if child.SimDur != 42 {
		t.Fatalf("SimDur = %v, want 42", child.SimDur)
	}
	if child.Dur < 0 || root.Dur < child.Dur {
		t.Fatalf("durations not nested: root %v child %v", root.Dur, child.Dur)
	}
}

func TestEndIdempotent(t *testing.T) {
	rec := NewRecorder()
	s := rec.StartSpan(nil, "x", "y")
	s.End()
	d := s.Dur
	time.Sleep(time.Millisecond)
	s.End()
	if s.Dur != d {
		t.Fatal("second End moved the duration")
	}
}

// TestDisabledPathAllocs is the hot-path guard: with observability disabled
// (nil recorder, nil registry) every instrumentation call must be a free
// no-op — zero allocations — so the kernel and scheduler hot paths pay
// nothing when no one is watching. ci.sh runs this test explicitly.
func TestDisabledPathAllocs(t *testing.T) {
	var rec *Recorder
	var reg *Registry
	allocs := testing.AllocsPerRun(1000, func() {
		sp := rec.StartSpan(nil, "job", "job")
		sp.NewTrack()
		sp.SetStr("engine", "spark")
		sp.SetInt("attempt", 1)
		sp.SetFloat("queue_wait_ms", 0.25)
		sp.SetSim(0, 1)
		sp.End()
		reg.Counter("jobs_completed_total").Add(1)
		reg.Gauge("workers").Set(4)
		reg.Histogram("sched_queue_wait_ms").Observe(0.25)
	})
	if allocs != 0 {
		t.Fatalf("disabled observability allocated %.1f times per op, want 0", allocs)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				reg.Counter("n").Add(1)
				reg.Histogram("h").Observe(float64(i))
				reg.Gauge("g").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("n").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	snap := reg.Snapshot()
	if snap.Histograms["h"].Count != 8000 {
		t.Fatalf("histogram count = %d, want 8000", snap.Histograms["h"].Count)
	}
}

func TestRecorderConcurrentSpans(t *testing.T) {
	rec := NewRecorder()
	root := rec.StartSpan(nil, "workflow", "pipeline")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := rec.StartSpan(root, "job", "job")
				s.SetInt("i", int64(i))
				s.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if got := rec.Len(); got != 801 {
		t.Fatalf("got %d spans, want 801", got)
	}
}

func TestChromeTraceValidJSONAndOrder(t *testing.T) {
	rec := NewRecorder()
	root := rec.StartSpan(nil, "workflow", "pipeline")
	b := rec.StartSpan(root, "b-job", "job")
	b.NewTrack()
	b.End()
	a := rec.StartSpan(root, "a-job", "job")
	a.NewTrack()
	a.SetStr("engine", "hadoop")
	a.End()
	root.End()

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf, TraceOptions{}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TID  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
	// Structural order: children sorted by name regardless of creation
	// order, so concurrent runs export identically.
	if doc.TraceEvents[1].Name != "a-job" || doc.TraceEvents[2].Name != "b-job" {
		t.Fatalf("events not name-sorted: %q then %q", doc.TraceEvents[1].Name, doc.TraceEvents[2].Name)
	}
	// Job spans get their own tracks; the root keeps its own.
	if doc.TraceEvents[1].TID == doc.TraceEvents[0].TID || doc.TraceEvents[1].TID == doc.TraceEvents[2].TID {
		t.Fatalf("expected distinct tracks, got tids %d %d %d",
			doc.TraceEvents[0].TID, doc.TraceEvents[1].TID, doc.TraceEvents[2].TID)
	}
	if doc.TraceEvents[1].Args["engine"] != "hadoop" {
		t.Fatalf("missing engine arg: %v", doc.TraceEvents[1].Args)
	}
}

func TestChromeTraceZeroTimesDeterministic(t *testing.T) {
	build := func() *Recorder {
		rec := NewRecorder()
		root := rec.StartSpan(nil, "workflow", "pipeline")
		j := rec.StartSpan(root, "job:x", "job")
		j.SetFloat("wall_ms", float64(time.Now().UnixNano()%997)) // run-dependent
		j.SetInt("attempt", 0)
		j.SetSim(0, 12.5)
		j.End()
		root.End()
		time.Sleep(time.Millisecond) // perturb wall timings
		return rec
	}
	var buf1, buf2 bytes.Buffer
	if err := build().WriteChromeTrace(&buf1, TraceOptions{ZeroTimes: true}); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChromeTrace(&buf2, TraceOptions{ZeroTimes: true}); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Fatalf("zeroed traces differ:\n%s\n--\n%s", buf1.String(), buf2.String())
	}
	if strings.Contains(buf1.String(), "wall_ms") {
		t.Fatal("ZeroTimes kept a float measurement attribute")
	}
	if !strings.Contains(buf1.String(), `"attempt":0`) {
		t.Fatal("ZeroTimes dropped a structural integer attribute")
	}
}

// TestChromeTraceEscapesHostileNames proves span names, categories, attr
// keys, and string values containing quotes, backslashes, control bytes,
// and multi-byte UTF-8 survive the trace export as valid JSON and decode
// back to the original strings (the writer escapes via json.Marshal — this
// pins that contract).
func TestChromeTraceEscapesHostileNames(t *testing.T) {
	hostile := `sel "σ" \ slash
newline	tab 日本語 🎯`
	rec := NewRecorder()
	root := rec.StartSpan(nil, hostile, `cat"egory\`)
	root.SetStr(`key"with\quotes`, hostile)
	root.End()

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf, TraceOptions{}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("hostile names broke the trace JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 1 {
		t.Fatalf("got %d events, want 1", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev.Name != hostile {
		t.Errorf("name did not round-trip: %q", ev.Name)
	}
	if ev.Cat != `cat"egory\` {
		t.Errorf("category did not round-trip: %q", ev.Cat)
	}
	if ev.Args[`key"with\quotes`] != hostile {
		t.Errorf("attr did not round-trip: %v", ev.Args)
	}
}

func TestNilRecorderTrace(t *testing.T) {
	var rec *Recorder
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf, TraceOptions{}); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil-recorder trace not valid JSON: %v", err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]*WorkflowAccuracy{{
		Workflow: "a", PredictedMakespanS: 100, ActualMakespanS: 120, MakespanError: 0.2,
		Jobs: []JobAccuracy{{Job: "j1", Engine: "spark", PredictedS: 100, ActualS: 120, Error: 0.2}},
	}, {
		Workflow: "b", PredictedMakespanS: 50, ActualMakespanS: 40, MakespanError: -0.2,
		Jobs: []JobAccuracy{{Job: "j1", Engine: "hadoop", PredictedS: 50, ActualS: 40, Error: -0.2}},
	}})
	if s.Workflows != 2 || s.Jobs != 2 {
		t.Fatalf("summary counts = %+v", s)
	}
	if s.MeanMakespanError != 0 || s.MeanAbsMakespanError != 0.2 {
		t.Fatalf("summary errors = %+v", s)
	}
	if s.MeanAbsJobError != 0.2 || s.WorstAbsMakespanError != 0.2 {
		t.Fatalf("summary magnitudes = %+v", s)
	}
	if got := Summarize(nil); got != (AccuracySummary{}) {
		t.Fatalf("empty summary = %+v", got)
	}
}

func TestRelError(t *testing.T) {
	if got := RelError(100, 150); got != 0.5 {
		t.Fatalf("RelError(100,150) = %v", got)
	}
	if got := RelError(0, 10); got != 0 {
		t.Fatalf("RelError(0,10) = %v, want 0", got)
	}
}
