package engines

import (
	"errors"
	"testing"

	"musketeer/internal/chaos"
	"musketeer/internal/cluster"
)

func TestFaultToleranceMechanisms(t *testing.T) {
	want := map[string]FaultTolerance{
		"hadoop": FTTaskLevel, "spark": FTLineage,
		"naiad": FTCheckpoint, "powergraph": FTCheckpoint,
		"metis": FTNone, "graphchi": FTNone, "serial": FTNone,
	}
	for name, ft := range want {
		e := Registry()[name]
		if got := e.FaultTolerance(); got != ft {
			t.Errorf("%s fault tolerance = %s, want %s", name, got, ft)
		}
	}
	for _, f := range []FaultTolerance{FTNone, FTTaskLevel, FTLineage, FTCheckpoint} {
		if f.String() == "" {
			t.Error("empty mechanism name")
		}
	}
}

// TestFaultPenaltyOrdering pins the Table 3 recovery hierarchy: for the SAME
// injected fault — a worker dying t seconds into a job of duration base —
// checkpoint rollback beats lineage recomputation, lineage beats a full
// restart, and task re-execution is cheapest of all when the fault strikes
// late.
func TestFaultPenaltyOrdering(t *testing.T) {
	const (
		nodes    = 100.0
		depth    = 3
		interval = 60.0
	)
	base := cluster.Seconds(2000)
	tp := 1000.0 // fault at mid-job

	task := FaultPenalty(FTTaskLevel, nodes, depth, base, tp, interval)
	ckpt := FaultPenalty(FTCheckpoint, nodes, depth, base, tp, interval)
	lin := FaultPenalty(FTLineage, nodes, depth, base, tp, interval)
	restart := FaultPenalty(FTNone, nodes, depth, base, tp, interval)

	if !(task < ckpt && ckpt < lin && lin < restart) {
		t.Errorf("recovery hierarchy violated: task=%v ckpt=%v lineage=%v restart=%v",
			task, ckpt, lin, restart)
	}
	// Checkpoint rollback never exceeds the interval; restart loses all
	// progress.
	if float64(ckpt) >= interval {
		t.Errorf("checkpoint rollback %v exceeds interval %v", ckpt, interval)
	}
	if float64(restart) != tp {
		t.Errorf("restart should lose all %vs of progress, lost %v", tp, restart)
	}
	// Lineage grows with fault lateness; task retry does not.
	late := FaultPenalty(FTLineage, nodes, depth, base, 1900, interval)
	if late <= lin {
		t.Error("lineage recovery should cost more for later faults")
	}
	if FaultPenalty(FTTaskLevel, nodes, depth, base, 1900, interval) != task {
		t.Error("task-level recovery should be independent of fault position")
	}
}

func TestRecoverFaultsDisabled(t *testing.T) {
	c := cluster.EC2(100)
	if rec := RecoverFaults(nil, Hadoop(), c, 3, 1000, "j", 0); rec.Failures != 0 || rec.Penalty != 0 {
		t.Error("nil plan should inject nothing")
	}
	p := &chaos.Plan{Seed: 5} // no MTBF
	if rec := RecoverFaults(p, Hadoop(), c, 3, 1000, "j", 0); rec.Failures != 0 || rec.Penalty != 0 {
		t.Error("zero MTBF should inject nothing")
	}
}

func TestRecoverFaultsDeterministicAndEngineAware(t *testing.T) {
	c := cluster.EC2(100)
	p := &chaos.Plan{Seed: 3, MTBFSeconds: 100}
	base := cluster.Seconds(2000)

	a := RecoverFaults(p, Hadoop(), c, 3, base, "job_a", 0)
	b := RecoverFaults(p, Hadoop(), c, 3, base, "job_a", 0)
	if a.Failures != b.Failures || a.Penalty != b.Penalty {
		t.Error("fault injection not deterministic for a fixed seed")
	}
	if a.Failures == 0 {
		t.Fatal("expected failures on a 2000s job with 100s MTBF")
	}
	// The SAME faults strike every distributed engine (failure points are
	// keyed by job, not engine), but each pays its own mechanism's price:
	// Spark's lineage recomputation costs more than Hadoop's task retry.
	s := RecoverFaults(p, Spark(), c, 3, base, "job_a", 0)
	if s.Failures != a.Failures {
		t.Errorf("spark saw %d faults, hadoop %d — injection must be engine-independent",
			s.Failures, a.Failures)
	}
	if s.Penalty <= a.Penalty {
		t.Errorf("lineage recovery (%v) should cost more than task retry (%v)", s.Penalty, a.Penalty)
	}
	// Rollback engines pay the periodic checkpoint tax even without faults.
	quiet := &chaos.Plan{Seed: 3, MTBFSeconds: 1e12}
	n := RecoverFaults(quiet, Naiad(), c, 3, base, "job_q", 0)
	if n.Checkpoints != int(float64(base)/Naiad().Profile().CheckpointS) {
		t.Errorf("naiad wrote %d checkpoints over %vs at %vs intervals",
			n.Checkpoints, base, Naiad().Profile().CheckpointS)
	}
	if h := RecoverFaults(quiet, Hadoop(), c, 3, base, "job_q", 0); h.Checkpoints != 0 {
		t.Error("task-level engines must not checkpoint")
	}
}

func TestExpectedRecoveryPrefersCheaperMechanisms(t *testing.T) {
	c := cluster.EC2(100)
	p := &chaos.Plan{Seed: 1, MTBFSeconds: 300}
	base := cluster.Seconds(2000)

	task := ExpectedRecovery(p, Hadoop(), c, 3, base)
	lin := ExpectedRecovery(p, Spark(), c, 3, base)
	none := ExpectedRecovery(p, Metis(), c, 3, base)
	if task <= 0 {
		t.Fatal("expected recovery term must be positive under a fault rate")
	}
	if lin <= task {
		t.Errorf("expected lineage cost (%v) should exceed task retry (%v)", lin, task)
	}
	// Single-machine restart loses half the job per fault, but its exposure
	// is 1/N of the cluster's: fewer expected faults, each catastrophic.
	if none <= 0 {
		t.Error("restart engines must carry an expected-recovery term")
	}
	if ExpectedRecovery(nil, Hadoop(), c, 3, base) != 0 {
		t.Error("nil plan must add no expected recovery")
	}
	// Straggler exposure shows up even without task faults.
	slow := &chaos.Plan{Seed: 1, SlowNodeProb: 0.5, SlowFactor: 3}
	if got := ExpectedRecovery(slow, Hadoop(), c, 3, 100); float64(got) != 0.5*2*100 {
		t.Errorf("straggler expectation = %v, want 100", got)
	}
}

func TestRunWithFaultInjection(t *testing.T) {
	dag := maxPropertyPrice()
	frag := wholeFragment(t, dag)
	// Big logical scale so the job is long enough to attract failures.
	fs := seedDFS(t, 30_000_000)
	plan, err := Naiad().Plan(frag, ModeOptimized)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(RunContext{DFS: fs, Cluster: cluster.EC2(100)}, plan)
	if err != nil {
		t.Fatal(err)
	}
	fs2 := seedDFS(t, 30_000_000)
	faulty, err := Run(RunContext{
		DFS: fs2, Cluster: cluster.EC2(100),
		Chaos: &chaos.Plan{MTBFSeconds: 20, Seed: 1},
	}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Failures == 0 {
		t.Fatalf("no failures injected (makespan %v)", faulty.Makespan)
	}
	if faulty.Makespan <= clean.Makespan {
		t.Errorf("faulty run (%v) should be slower than clean run (%v)", faulty.Makespan, clean.Makespan)
	}
	if faulty.Recovery <= 0 {
		t.Error("recovery time not accounted")
	}
	// Results are unaffected by failures (recovery is transparent).
	a, err := fs.ReadRelation("street_price")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fs2.ReadRelation("street_price")
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("failure injection changed results")
	}
}

// TestRunWithDFSReadFaults: injected block-read failures re-fetch from a
// replica, paying the transfer twice — visible as extra PULL volume.
func TestRunWithDFSReadFaults(t *testing.T) {
	dag := maxPropertyPrice()
	frag := wholeFragment(t, dag)
	fs := seedDFS(t, 5_000_000)
	plan, err := Hadoop().Plan(frag, ModeOptimized)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(RunContext{DFS: fs, Cluster: cluster.EC2(100)}, plan)
	if err != nil {
		t.Fatal(err)
	}
	fs2 := seedDFS(t, 5_000_000)
	faulty, err := Run(RunContext{
		DFS: fs2, Cluster: cluster.EC2(100),
		Chaos: &chaos.Plan{DFSReadFailProb: 1, Seed: 1}, // every read fails once
	}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.DFSRetries != len(frag.ExtIn) {
		t.Errorf("retries = %d, want one per input (%d)", faulty.DFSRetries, len(frag.ExtIn))
	}
	if faulty.Volumes.Pull != 2*clean.Volumes.Pull {
		t.Errorf("retried pull moved %d bytes, want twice the clean %d", faulty.Volumes.Pull, clean.Volumes.Pull)
	}
	if faulty.Breakdown.Pull <= clean.Breakdown.Pull {
		t.Error("re-fetch must cost simulated PULL time")
	}
}

func TestRunJobCrashIsTransient(t *testing.T) {
	dag := maxPropertyPrice()
	frag := wholeFragment(t, dag)
	fs := seedDFS(t, 1_000_000)
	plan, err := Hadoop().Plan(frag, ModeOptimized)
	if err != nil {
		t.Fatal(err)
	}
	p := &chaos.Plan{JobCrashProb: 1, Seed: 1}
	_, err = Run(RunContext{DFS: fs, Cluster: cluster.EC2(100), Chaos: p}, plan)
	if err == nil {
		t.Fatal("crash probability 1 must kill the attempt")
	}
	if !IsTransient(err) {
		t.Fatalf("job crash should surface as transient, got %v", err)
	}
	// The crash happens before output: nothing was written.
	if _, rerr := fs.ReadRelation("street_price"); rerr == nil {
		t.Error("crashed attempt must not write output")
	}
	if IsTransient(errDummy) {
		t.Error("IsTransient matched a plain error")
	}
}

var errDummy = errors.New("plain failure")
