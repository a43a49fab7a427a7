package musketeer

// Chaos integration tests: a golden Chrome trace for the two-engine
// workflow under a seeded fault plan — the trace must show every recovery
// mechanism working (transient-crash retries, checkpoint spans and
// checkpoint-rollback recovery on the naiad fragment, straggler slowdown
// with a speculative backup attempt, DFS read retries) and be byte-stable
// (ZeroTimes strips wall-clock so only structure is pinned), and a second
// golden for the same workflow on hadoop alone, whose WHILE is driver-looped.
// Regenerate with
//
//	go test -run 'TestChaos.*Golden' -update .

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// chaosGoldenPlan is tuned so the fixed seed exercises every fault kind on
// this workflow: at least one job crash (retried), worker faults on both
// engines (task re-execution on hadoop, checkpoint rollback on naiad), a
// straggler slow enough to trigger speculation, and a DFS read retry.
func chaosGoldenPlan() *ChaosPlan {
	return &ChaosPlan{
		Seed:                7,
		JobCrashProb:        0.3,
		MTBFSeconds:         30,
		SlowNodeProb:        0.3,
		SlowFactor:          4,
		DFSReadFailProb:     0.3,
		CheckpointIntervalS: 20,
		CheckpointCostS:     2,
		SpeculativeMultiple: 1.5,
	}
}

// stageChaosTwoEngine is stageTwoEngine with the WHILE fragment forced onto
// naiad instead of metis: naiad checkpoints (Table 3), so the chaos trace
// shows checkpoint spans and checkpoint-rollback recovery next to hadoop's
// task-level re-execution.
func stageChaosTwoEngine(t *testing.T, m *Musketeer) (*Workflow, *Partitioning) {
	t.Helper()
	wf, _, est, part := stageCrossCommunityOnHadoop(t, m)
	naiad := m.engines["naiad"]
	forced := false
	for i := range part.Jobs {
		frag := part.Jobs[i].Frag
		if frag.While() != nil && naiad.ValidFragment(frag) == nil {
			part.Jobs[i].Engine = naiad
			part.Jobs[i].Cost = est.FragmentCost(frag, naiad)
			forced = true
		}
	}
	if !forced {
		t.Fatal("no WHILE fragment accepted naiad; the workflow is not two-engine")
	}
	return wf, part
}

// stageChaosHadoop is stageChaosTwoEngine's workflow mapped onto hadoop
// alone: the WHILE is driver-looped, so every round's body jobs pull their
// inputs, draw their read faults and pay for them again.
func stageChaosHadoop(t *testing.T, m *Musketeer) (*Workflow, *Partitioning) {
	t.Helper()
	wf, _, _, part := stageCrossCommunityOnHadoop(t, m)
	looped := false
	for i := range part.Jobs {
		looped = looped || part.Jobs[i].DriverLoop() != nil
	}
	if !looped {
		t.Fatal("hadoop plan has no driver-looped WHILE")
	}
	return wf, part
}

// chaosTrace runs a chaotic workflow, staged by stage on a fresh deployment,
// and returns the ZeroTimes trace bytes plus the result.
func chaosTrace(t *testing.T, stage func(*testing.T, *Musketeer) (*Workflow, *Partitioning)) (string, *Result) {
	t.Helper()
	m := New(WithTracing(), WithChaos(chaosGoldenPlan()), WithRetries(5))
	wf, part := stage(t, m)
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
	return buf.String(), res
}

// TestChaosGolden pins the chaotic execution's span tree and asserts the
// trace actually demonstrates each recovery mechanism (a quiet plan that
// injects nothing would be a vacuous golden).
func TestChaosGolden(t *testing.T) {
	got, _ := chaosTrace(t, stageChaosTwoEngine)
	checkChaosGolden(t, got, "chaos.golden", map[string]string{
		`"recover:checkpoint"`: "naiad checkpoint-rollback recovery span",
		`"recover:task-level"`: "hadoop task re-execution recovery span",
		`"checkpoint"`:         "periodic checkpoint span",
		`"attempt":2`:          "scheduler retry of a crashed job attempt",
		`"speculative":1`:      "speculative backup attempt for a straggler",
		`"straggler":1`:        "straggler slowdown attribute",
		`"dfs_retries":`:       "DFS read retry accounting",
	})
}

// TestChaosDriverGolden pins the chaotic execution of the hadoop plan, whose
// WHILE the runner drives round by round: every round's body jobs open,
// re-fetch and are charged for their inputs, loop-invariant or not, and the
// loop checkpoints its carried state after each one.
func TestChaosDriverGolden(t *testing.T) {
	got, _ := chaosTrace(t, stageChaosHadoop)
	checkChaosGolden(t, got, "chaos_driver.golden", map[string]string{
		`"iteration"`:          "driver-loop round span",
		`"checkpoint"`:         "per-round checkpoint span",
		`"recover:task-level"`: "hadoop task re-execution recovery span",
		`"dfs_retries":`:       "DFS read retry accounting",
	})
}

// checkChaosGolden asserts the trace shows each marker — a quiet plan that
// injects nothing would be a vacuous golden — and compares it against
// testdata/trace/name, which -update rewrites.
func checkChaosGolden(t *testing.T, got, name string, markers map[string]string) {
	t.Helper()
	for marker, what := range markers {
		if !strings.Contains(got, marker) {
			t.Errorf("trace lacks %s (%s)", what, marker)
		}
	}

	path := filepath.Join("testdata", "trace", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run 'TestChaos.*Golden' -update .` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("chaos trace structure changed.\n--- want\n%s--- got\n%s", string(want), got)
	}
}

// TestChaosFixedSeedDeterministic: two fresh deployments under the same
// plan must agree on the injected faults exactly — equal makespans and
// byte-identical span trees.
func TestChaosFixedSeedDeterministic(t *testing.T) {
	trace1, res1 := chaosTrace(t, stageChaosTwoEngine)
	trace2, res2 := chaosTrace(t, stageChaosTwoEngine)
	if res1.Makespan != res2.Makespan {
		t.Errorf("makespans differ under a fixed seed: %v vs %v", res1.Makespan, res2.Makespan)
	}
	if trace1 != trace2 {
		t.Error("span trees differ under a fixed seed")
	}
}

// TestChaoticExecutionsConcurrent drives concurrent chaotic executions into
// one shared deployment. Meaningful under -race: the fault plan, scheduler
// (with retries and speculation live), metrics registry and run registry
// are shared across runs, while each run injects and recovers its own
// faults.
func TestChaoticExecutionsConcurrent(t *testing.T) {
	const runs = 8
	m := New(WithTracing(), WithChaos(chaosGoldenPlan()), WithRetries(5))
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

	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if results[i].Flight == nil || results[i].Flight.Len() == 0 {
			t.Fatalf("run %d: missing flight recorder", i)
		}
	}
	// The plan is shared and draws are keyed by job identity, so every run
	// injects the same faults and lands on the same makespan.
	for i := 1; i < runs; i++ {
		if results[i].Makespan != results[0].Makespan {
			t.Errorf("run %d makespan %v != run 0 %v (shared plan must inject identically)",
				i, results[i].Makespan, results[0].Makespan)
		}
	}
	if got := m.Metrics().Counter("workflows_completed_total").Value(); got != runs {
		t.Errorf("workflows_completed_total = %d, want %d", got, runs)
	}
}
