package core

import (
	"testing"

	"musketeer/internal/chaos"
	"musketeer/internal/cluster"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
	"musketeer/internal/obs"
)

// TestWhileDriverIterationCheckpoints: under a chaos plan, the WHILE driver
// charges one checkpoint per iteration on the simulated clock (the loop's
// DFS-materialized carried state IS a checkpoint) and records it as a span.
func TestWhileDriverIterationCheckpoints(t *testing.T) {
	run := func(plan *chaos.Plan) (*WorkflowResult, *obs.Recorder) {
		d, fs := countdownDAG(t, 4, 10) // converges in 4 iterations
		est, err := NewEstimator(ir.Identify(d), fs, cluster.Local(7), nil)
		if err != nil {
			t.Fatal(err)
		}
		part, err := AutoMap(d, est, []*engines.Engine{engines.Registry()["hadoop"]}) // driver loop
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder()
		reg := obs.NewRegistry()
		r := &Runner{
			Ctx:  engines.RunContext{DFS: fs, Cluster: cluster.Local(7), Chaos: plan},
			Mode: engines.ModeOptimized,
			Rec:  rec, Metrics: reg,
		}
		res, err := r.Execute(ir.Identify(d), part)
		if err != nil {
			t.Fatal(err)
		}
		if reg.Counter("chaos_checkpoints_total").Value() != ckptSpans(rec) {
			t.Errorf("checkpoint counter %d != %d checkpoint spans",
				reg.Counter("chaos_checkpoints_total").Value(), ckptSpans(rec))
		}
		return res, rec
	}

	clean, cleanRec := run(nil)
	if n := ckptSpans(cleanRec); n != 0 {
		t.Fatalf("chaos-disabled run recorded %d checkpoint spans", n)
	}
	// The plan injects nothing except the checkpoint discipline: a
	// vanishing DFS fault probability enables chaos without ever firing.
	plan := &chaos.Plan{Seed: 1, DFSReadFailProb: 1e-12, CheckpointCostS: 2}
	chaotic, rec := run(plan)
	const iters = 4
	if n := ckptSpans(rec); n != iters {
		t.Errorf("recorded %d checkpoint spans, want one per iteration (%d)", n, iters)
	}
	want := clean.Makespan + cluster.Seconds(iters*2)
	if chaotic.Makespan != want {
		t.Errorf("makespan %v, want clean %v + %d checkpoints x 2s = %v",
			chaotic.Makespan, clean.Makespan, iters, want)
	}
}

func ckptSpans(rec *obs.Recorder) int64 {
	var n int64
	for _, sp := range rec.Spans() {
		if sp.Name == "checkpoint" && sp.Cat == "chaos" {
			n++
		}
	}
	return n
}

// TestAutoMapPrefersCheaperRecoveryUnderFaults: the estimator's expected-
// recovery term changes automatic engine selection. On a fault-free
// deployment Spark's faster processing wins this workload; under a 30s
// MTBF its lineage-recomputation recovery (which replays upstream operators
// per fault) is priced in, and the partitioner flips to Hadoop, whose
// task-level re-execution recovers more cheaply.
func TestAutoMapPrefersCheaperRecoveryUnderFaults(t *testing.T) {
	pick := func(plan *chaos.Plan) []string {
		dag := maxPropertyPrice()
		fs := seedPropertyDFS(t, 1_000_000)
		est, err := NewEstimator(ir.Identify(dag), fs, cluster.Local(7), nil)
		if err != nil {
			t.Fatal(err)
		}
		est.WithChaos(plan)
		part, err := PartitionDynamic(dag, est, []*engines.Engine{
			engines.Registry()["hadoop"], engines.Registry()["spark"],
		})
		if err != nil {
			t.Fatal(err)
		}
		return part.Engines()
	}
	clean := pick(nil)
	if len(clean) != 1 || clean[0] != "spark" {
		t.Fatalf("fault-free mapping = %v, want [spark]", clean)
	}
	faulty := pick(&chaos.Plan{Seed: 1, MTBFSeconds: 30})
	if len(faulty) != 1 || faulty[0] != "hadoop" {
		t.Fatalf("mapping under 30s MTBF = %v, want [hadoop] (cheaper recovery)", faulty)
	}
}

// TestEstimatorChaosClearsMemo: WithChaos must invalidate memoized fragment
// choices — a stale cache would keep fault-free engine picks after a plan
// is installed.
func TestEstimatorChaosClearsMemo(t *testing.T) {
	dag := maxPropertyPrice()
	fs := seedPropertyDFS(t, 1_000_000)
	est, err := NewEstimator(ir.Identify(dag), fs, cluster.Local(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	engs := []*engines.Engine{engines.Registry()["hadoop"], engines.Registry()["spark"]}
	first, err := PartitionDynamic(dag, est, engs)
	if err != nil {
		t.Fatal(err)
	}
	est.WithChaos(&chaos.Plan{Seed: 1, MTBFSeconds: 30})
	second, err := PartitionDynamic(dag, est, engs)
	if err != nil {
		t.Fatal(err)
	}
	if first.Engines()[0] == second.Engines()[0] {
		t.Errorf("memoized choice survived WithChaos: %v then %v", first.Engines(), second.Engines())
	}
	if second.Cost <= first.Cost {
		t.Errorf("cost under faults (%v) should exceed fault-free cost (%v)", second.Cost, first.Cost)
	}
}
