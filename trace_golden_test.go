package musketeer

// Flight-recorder integration tests: a golden Chrome trace for a canonical
// two-engine workflow (structure-only — ZeroTimes strips wall-clock and
// simulated timings so the bytes are reproducible), and a -race stress test
// of concurrent traced executions sharing one deployment's metrics registry
// and run registry. Regenerate the golden with
//
//	go test -run TestTraceGolden -update .

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"musketeer/internal/core"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
	"musketeer/internal/workloads"
)

// stageCrossCommunityOnHadoop stages the §6.3 cross-community workflow,
// optimizes it and maps it onto hadoop alone.
func stageCrossCommunityOnHadoop(t *testing.T, m *Musketeer) (*Workflow, *ir.DAG, *core.Estimator, *Partitioning) {
	t.Helper()
	// Same seed and mean degree: the two communities share every edge, so
	// the intersection (and the PageRank over it) is non-trivial.
	a := workloads.GenerateGraph("a", 400_000, 2_000_000, 40, 7)
	b := workloads.GenerateGraph("b", 500_000, 2_500_000, 40, 7)
	wl := workloads.CrossCommunityPageRank(a, b, 3)
	if err := wl.Stage(m.fs); err != nil {
		t.Fatal(err)
	}
	dag, err := wl.Build()
	if err != nil {
		t.Fatal(err)
	}
	wf, err := m.FromDAG(dag)
	if err != nil {
		t.Fatal(err)
	}
	wf.Optimize()
	est, err := wf.estimator(ir.Identify(dag))
	if err != nil {
		t.Fatal(err)
	}
	part, err := core.AutoMap(dag, est, []*engines.Engine{m.engines["hadoop"]})
	if err != nil {
		t.Fatal(err)
	}
	return wf, dag, est, part
}

// stageTwoEngine stages the §6.3 cross-community workflow and forces its
// iterative fragment onto metis with the batch phase on hadoop — the
// paper's fixed hadoop+metis combination, and the canonical case where one
// trace shows two engines' phases side by side.
func stageTwoEngine(t *testing.T, m *Musketeer) (*Workflow, *Partitioning) {
	t.Helper()
	wf, dag, est, part := stageCrossCommunityOnHadoop(t, m)
	metis := m.engines["metis"]
	// A driver-looped WHILE is always a job of its own and carries the plan
	// of its body, so the metis plan's WHILE job replaces hadoop's whole.
	onMetis, err := core.AutoMap(dag, est, []*engines.Engine{metis})
	if err != nil {
		t.Fatal(err)
	}
	forced := false
	for i := range part.Jobs {
		for _, mj := range onMetis.Jobs {
			if w := part.Jobs[i].Frag.While(); w != nil && w == mj.Frag.While() {
				part.Jobs[i] = mj
				forced = true
			}
		}
	}
	if !forced {
		t.Fatal("no WHILE fragment accepted metis; the workflow is not two-engine")
	}
	return wf, part
}

// TestTraceGolden pins the span tree of the two-engine workflow: one
// workflow root, a schedule pipeline span, a job span per fragment (hadoop
// batch jobs and the metis WHILE job), per-iteration WHILE spans with
// body-job children, and pull/process/push engine phases under every
// attempt.
func TestTraceGolden(t *testing.T) {
	m := New(WithTracing())
	wf, part := stageTwoEngine(t, m)
	res, err := wf.Run(part)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flight == nil {
		t.Fatal("WithTracing execution returned no flight recorder")
	}

	var buf bytes.Buffer
	if err := res.Flight.WriteChromeTrace(&buf, TraceOptions{ZeroTimes: true}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	got := buf.String()
	path := filepath.Join("testdata", "trace", "crosscommunity.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestTraceGolden -update .` to create it)", err)
	}
	if want := string(wantBytes); got != want {
		t.Errorf("trace structure changed.\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestExecutedJobsPriceLikePlans is the statement "prediction error is
// volumes and codegen tax, nothing else" on the two-engine workflow: run
// with no codegen tax, every executed job's makespan is, to the bit, what
// the planner's scorer returns for the volumes the job measured. The
// predicted critical path is pinned to the bits PR 19 computed, whichever
// routine walks it.
func TestExecutedJobsPriceLikePlans(t *testing.T) {
	m := New()
	wf, part := stageTwoEngine(t, m)
	wf.Mode = ModeHand
	res, err := wf.Run(part)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, jr := range res.Jobs {
		eng := m.engines[jr.Engine]
		seen[jr.Engine] = true
		if got := eng.EstimateCostRates(m.cluster, jr.Volumes, eng.SeedRates()); got != jr.Makespan {
			t.Errorf("job %s on %s: planner prices its measured volumes at %v (%016x), it was charged %v (%016x)",
				jr.Job, jr.Engine, got, math.Float64bits(float64(got)), jr.Makespan, math.Float64bits(float64(jr.Makespan)))
		}
	}
	if !seen["hadoop"] || !seen["metis"] {
		t.Errorf("engines that ran: %v, want hadoop and metis", seen)
	}
	if got := math.Float64bits(res.Accuracy.PredictedMakespanS); got != 0x40853c401be7dfd5 {
		t.Errorf("predicted critical path = %v (%016x), want bits 40853c401be7dfd5", res.Accuracy.PredictedMakespanS, got)
	}
}

// stressCatalog stages a small join workload for the concurrency stress
// test and returns its Hive catalog.
func stressCatalog(t *testing.T, m *Musketeer) Catalog {
	t.Helper()
	props := NewRelation("properties", NewSchema("id:int", "street:string", "town:string"))
	prices := NewRelation("prices", NewSchema("id:int", "price:float"))
	for i := int64(0); i < 500; i++ {
		props.MustAppend(relation.Row{relation.Int(i), relation.Str("mill rd"), relation.Str("cam")})
		prices.MustAppend(relation.Row{relation.Int(i), relation.Float(float64(100 + i))})
	}
	if err := m.WriteInput("in/properties", props); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteInput("in/prices", prices); err != nil {
		t.Fatal(err)
	}
	return Catalog{
		"properties": {Path: "in/properties", Schema: props.Schema},
		"prices":     {Path: "in/prices", Schema: prices.Schema},
	}
}

const stressHive = `
SELECT id, street, town FROM properties AS locs;
locs JOIN prices ON locs.id = prices.id AS id_price;
SELECT street, MAX(price) AS max_price FROM id_price GROUP BY street AS street_price;
`

// TestTracedExecuteEndsEverySpan: the flight recorder a traced Execute
// returns holds the planning spans above the runner's — workflow, compile,
// optimize, partition-search — and every span in it is ended.
func TestTracedExecuteEndsEverySpan(t *testing.T) {
	m := New(WithTracing())
	wf, err := m.CompileHive(stressHive, stressCatalog(t, m))
	if err != nil {
		t.Fatal(err)
	}
	res, err := wf.Execute()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, sp := range res.Flight.Spans() {
		seen[sp.Name] = true
		if !sp.Ended() {
			t.Errorf("span %q (%s) was never ended", sp.Name, sp.Cat)
		}
	}
	for _, name := range []string{"workflow", "compile", "optimize", "partition-search"} {
		if !seen[name] {
			t.Errorf("no %q span recorded", name)
		}
	}
}

// TestTracedExecutionsConcurrent drives concurrent traced executions into
// one shared deployment — one metrics registry, one run registry, one
// scheduler. Meaningful under -race (ci.sh runs the suite with it): the
// per-run recorders must stay independent while the shared instruments
// absorb all runs.
func TestTracedExecutionsConcurrent(t *testing.T) {
	const runs = 8
	m := New(WithTracing())
	cat := stressCatalog(t, m)
	wf, err := m.CompileHive(stressHive, cat)
	if err != nil {
		t.Fatal(err)
	}

	results := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = wf.Execute()
		}()
	}
	wg.Wait()

	seen := map[*FlightRecorder]bool{}
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		res := results[i]
		if res.Flight == nil || res.Flight.Len() == 0 {
			t.Fatalf("run %d: missing flight recorder", i)
		}
		if seen[res.Flight] {
			t.Fatalf("run %d: flight recorder shared between executions", i)
		}
		seen[res.Flight] = true
		if res.Accuracy == nil || len(res.Accuracy.Jobs) == 0 {
			t.Fatalf("run %d: missing accuracy record", i)
		}
	}

	if got := m.Metrics().Counter("workflows_completed_total").Value(); got != runs {
		t.Errorf("workflows_completed_total = %d, want %d", got, runs)
	}
	if got := m.Runs().Len(); got != runs {
		t.Errorf("run registry holds %d digests, want %d", got, runs)
	}
}
