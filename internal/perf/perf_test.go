package perf

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"musketeer"
	"musketeer/internal/relation"
)

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // descending: the picker must sort a copy
	}
	_, err := Percentile(xs, 95)
	if err == nil {
		t.Fatal("p95 of 199 samples has 9.95 beyond it and must be refused")
	}
	if !strings.Contains(err.Error(), "199 samples") {
		t.Errorf("refusal must print the sample count, got %q", err)
	}
	if xs[0] != 199 {
		t.Error("Percentile reordered its input")
	}
	xs = append(xs, 200)
	got, err := Percentile(xs, 95)
	if err != nil || got != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", got, err)
	}
	if got, err := Percentile(xs, 50); err != nil || got != 100 {
		t.Errorf("p50 of 1..200 = %v, %v; want 100", got, err)
	}
	if _, err := Percentile(xs[:19], 50); err == nil {
		t.Error("p50 of 19 samples has 9.5 on either side and must be refused")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	if got := geomean([]float64{1, 10, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1, 10, 100) = %v, want 10", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v, want 0", got)
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []Span{
		{Name: "parent", Start: 0, End: msec(100), Parent: -1},
		{Name: "child", Start: msec(10), End: msec(50), Parent: 0},
		{Name: "child", Start: msec(30), End: msec(70), Parent: 0},  // overlaps the first
		{Name: "child", Start: msec(90), End: msec(120), Parent: 0}, // runs past the parent
		{Name: "grandchild", Start: msec(35), End: msec(45), Parent: 2},
	}
	st := SelfTimes(spans)
	// Children cover [10,70] and [90,100] of the parent: 70 ms, so 30 ms self.
	if got := st["parent"].Self; got != msec(30) {
		t.Errorf("parent self time = %v, want 30ms", got)
	}
	if got := st["child"]; got.Count != 3 || got.Total != msec(110) || got.Self != msec(100) {
		t.Errorf("child stats = %+v, want 3 spans, 110ms total, 100ms self", got)
	}
}

func TestSameMultisetToleratesOrderAndRounding(t *testing.T) {
	mk := func(rows ...relation.Row) *relation.Relation {
		r := relation.New("r", relation.NewSchema("k:int", "v:float"))
		for _, row := range rows {
			r.MustAppend(row)
		}
		return r
	}
	row := func(k int64, v float64) relation.Row { return relation.Row{relation.Int(k), relation.Float(v)} }
	want := mk(row(1, 0.1+0.2), row(2, 5), row(2, 5))
	if err := sameMultiset(mk(row(2, 5), row(1, 0.3), row(2, 5)), want); err != nil {
		t.Errorf("same rows in another order, float off by one ulp: %v", err)
	}
	if err := sameMultiset(mk(row(2, 5), row(1, 0.3), row(1, 0.3)), want); err == nil {
		t.Error("a different multiplicity must not match")
	}
	if err := sameMultiset(mk(row(2, 5), row(1, 0.3001), row(2, 5)), want); err == nil {
		t.Error("a float off by 3e-4 relative must not match")
	}
}

// TestClosedLatencyIgnoresDisturbedRepeats: a third of every member's repeats
// running at twice the time (a busy neighbour, a collector cycle) must move
// neither lat_ms nor workflows_per_s, while the whole-window view shows it.
func TestClosedLatencyIgnoresDisturbedRepeats(t *testing.T) {
	members := []*member{{name: "a"}, {name: "b"}}
	w := &closedWindow{ms: map[string][]float64{}, results: map[string][]opResult{}}
	for i := 0; i < 90; i++ {
		slow := 1.0
		if i%3 == 0 {
			slow = 2
		}
		w.ms["a"] = append(w.ms["a"], 20*slow)
		w.ms["b"] = append(w.ms["b"], 80*slow)
		w.results["a"] = append(w.results["a"], opResult{sim: 1})
		w.results["b"] = append(w.results["b"], opResult{sim: 2})
		w.rotations = append(w.rotations, 0.1*slow)
	}
	m, err := w.endToEnd(members)
	if err != nil {
		t.Fatal(err)
	}
	if got := m["lat_ms"]; math.Abs(got-40) > 1e-9 {
		t.Errorf("lat_ms = %v, want the geometric mean of the undisturbed 20 and 80", got)
	}
	if got := m["workflows_per_s"]; math.Abs(got-20) > 1e-9 {
		t.Errorf("workflows_per_s = %v, want 2 members per undisturbed 0.1 s rotation", got)
	}
	if got := m["sim_makespan_s"]; got != 3 {
		t.Errorf("sim_makespan_s = %v, want 3", got)
	}
	if p50, p90 := w.wholeWindow(members); math.Abs(p50-40) > 1e-9 || math.Abs(p90-80) > 1e-9 {
		t.Errorf("whole window p50, p90 = %v, %v; want 40 and the disturbed 80", p50, p90)
	}
}

// TestSpeedometerScalesToTheNominalProbe: the reading is the undisturbed
// tenth of the samples, the factor brings it to the nominal probe time, and
// tick samples only after a tenth of a second.
func TestSpeedometerScalesToTheNominalProbe(t *testing.T) {
	sp := newSpeedometer()
	sp.burst(3)
	if len(sp.ms) != 3 || sp.ms[0] <= 0 {
		t.Fatalf("a burst of 3 recorded %v", sp.ms)
	}
	sp.tick()
	if len(sp.ms) != 3 {
		t.Error("tick sampled again right after a sample")
	}
	sp.last = time.Now().Add(-time.Second)
	sp.tick()
	if len(sp.ms) != 4 {
		t.Error("tick did not sample a second after the last sample")
	}
	sp.ms = []float64{4, 9, 4, 8, 4, 7, 4, 6, 4, 5}
	if got := sp.reading(); got != 4 {
		t.Errorf("reading = %v, want the undisturbed 4", got)
	}
	if got, want := sp.factor(), probeNominalMS/4; got != want {
		t.Errorf("factor = %v, want %v", got, want)
	}
}

// TestServeLatencyWeighsClassesEqually: lat_ms is the geometric mean of the
// hot and the never-seen class, each taken in its calmest stretch.
func TestServeLatencyWeighsClassesEqually(t *testing.T) {
	start := time.Now()
	w := &serveWindow{length: 12 * time.Second, elapsed: 12 * time.Second, fromStart: true}
	for i := 0; i < 1200; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		lat := 2 * time.Millisecond
		hot := i%5 != 0
		if !hot {
			lat = 8 * time.Millisecond
		}
		if at >= 3*time.Second { // only the first three of the twelve stretches are calm
			lat *= 3
		}
		q := &request{arrival: arrival{at: at, hot: hot}, intended: start.Add(at), done: true}
		q.finished = q.intended.Add(lat)
		w.requests = append(w.requests, q)
	}
	m, err := w.endToEnd()
	if err != nil {
		t.Fatal(err)
	}
	if got := m["lat_ms"]; math.Abs(got-4) > 1e-9 {
		t.Errorf("lat_ms = %v, want 4: the geometric mean of the calm 2 ms hits and 8 ms misses", got)
	}
	if got := m["workflows_per_s"]; math.Abs(got-100) > 1e-9 {
		t.Errorf("workflows_per_s = %v, want 100", got)
	}
}

// TestOpenLoopCountsTheWaitBehindAStall is the coordinated-omission test.
// A fake server stalls one submission for 200 ms. The sender posts
// synchronously, so the arrivals scheduled during the stall go out late.
// Timed from the intended send time their latency shows the stall; timed
// from the actual send — what a closed-loop client would report — it
// vanishes.
func TestOpenLoopCountsTheWaitBehindAStall(t *testing.T) {
	const stallAt, stall = 10, 200 * time.Millisecond
	var mu sync.Mutex
	finished := map[string]time.Time{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/tenants/{tenant}/jobs", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n := len(finished)
		mu.Unlock()
		if n == stallAt {
			time.Sleep(stall)
		}
		id := fmt.Sprintf("j-%d", n)
		mu.Lock()
		finished[id] = time.Now()
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(musketeer.JobStatus{ID: id, Status: "queued"})
	})
	mux.HandleFunc("GET /api/v1/tenants/{tenant}/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		at := finished[r.PathValue("id")].Format(time.RFC3339Nano)
		mu.Unlock()
		_ = json.NewEncoder(w).Encode(musketeer.JobStatus{
			ID: r.PathValue("id"), Status: "ok", SubmittedAt: at, StartedAt: at, FinishedAt: at,
			Result: &musketeer.JobResult{},
		})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	s := &serveLoop{ts: ts}
	w := s.window(context.Background(), 200, 500*time.Millisecond, rand.New(rand.NewSource(1)))
	if len(w.requests) < 2*stallAt {
		t.Fatalf("only %d arrivals scheduled", len(w.requests))
	}
	count := func(over float64) (n int) {
		for i, q := range w.requests {
			if i != stallAt && w.ok(q) && w.latencyMS(q) > over {
				n++
			}
		}
		return n
	}
	if _, failed := w.latencies(nil); failed != 0 {
		t.Fatalf("%d requests failed against the fake server", failed)
	}
	// At 200/s about 40 arrivals fall inside a 200 ms stall; the first half
	// of them waits more than 100 ms.
	if n := count(100); n < 10 {
		t.Errorf("from intended send, %d requests behind the stall waited over 100 ms; want at least 10", n)
	}
	w.fromStart = false
	if n := count(100); n != 0 {
		t.Errorf("from actual send, %d requests show over 100 ms; the stall should be invisible", n)
	}
}

func TestScheduleIsSeededAndStratified(t *testing.T) {
	a := schedule(rand.New(rand.NewSource(7)), 300, 2*time.Second, 0)
	b := schedule(rand.New(rand.NewSource(7)), 300, 2*time.Second, 0)
	if scheduleDigest(a) != scheduleDigest(b) {
		t.Error("the same seed drew two different schedules")
	}
	if scheduleDigest(a) == scheduleDigest(schedule(rand.New(rand.NewSource(8)), 300, 2*time.Second, 0)) {
		t.Error("two seeds drew the same schedule")
	}
	seen := map[float64]bool{}
	for i := 0; i+5 <= len(a); i += 5 {
		novel := 0
		for _, x := range a[i : i+5] {
			if !x.hot {
				novel++
				if seen[x.damping] {
					t.Fatalf("novel variant %v offered twice", x.damping)
				}
				seen[x.damping] = true
			}
		}
		if novel != 1 {
			t.Fatalf("arrivals %d..%d hold %d never-seen variants, want exactly 1", i, i+4, novel)
		}
	}
}

// TestQuickPipeline runs every workload end to end at reduced sizes — set-up,
// reference check, timed window, traced pass, attribution — and requires
// every metric to be present and every output to match its reference.
func TestQuickPipeline(t *testing.T) {
	for _, name := range Workloads {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, traced := range []bool{false, true} {
				rep, err := Run(context.Background(), Options{Workload: name, Seed: 2, Seconds: 0.5, Quick: true, Trace: traced})
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !rep.Correct() || rep.Attempted == 0 {
					t.Errorf("traced=%v: %d of %d operations failed", traced, rep.Failed, rep.Attempted)
				}
				defs := EndToEnd
				if traced {
					defs = PerLayer
				}
				for _, d := range defs {
					v, ok := rep.Metrics[d.Name]
					if traced {
						ok = true // a per-layer metric that does not apply reads 0
					}
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (!traced && v <= 0) {
						t.Errorf("traced=%v: metric %s = %v (present %v)", traced, d.Name, v, ok)
					}
				}
			}
		})
	}
}

func TestUnknownWorkloadIsRefused(t *testing.T) {
	if _, err := Run(context.Background(), Options{Workload: "nope", Seconds: 1}); err == nil {
		t.Error("an unknown workload must be an error")
	}
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the metric tables
// the command prints from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, Workloads[i])
		}
	}
	compare := func(kind string, got []metric, want []MetricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the harness has %d", len(got), kind, len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in the harness", kind, i, g, w)
			}
			if bounded && (g.Bound == nil || *g.Bound != w.Bound) {
				t.Errorf("%s: bound differs between BENCHMARK.json and the harness (%v)", g.Name, w.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric carries no bound", g.Name)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, EndToEnd, true)
	compare("per_layer", spec.PerLayer, PerLayer, false)
}
