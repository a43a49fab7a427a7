package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"musketeer/internal/chaos"
	"musketeer/internal/cluster"
	"musketeer/internal/dfs"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
	"musketeer/internal/sched"
)

// countdownDAG builds a WHILE workflow decrementing a counter until the
// "pending" condition relation empties (start iterations needed), capped
// at maxIter.
func countdownDAG(t *testing.T, start, maxIter int) (*ir.DAG, *dfs.DFS) {
	t.Helper()
	d := ir.NewDAG()
	in := d.AddInput("counter", "in/counter", relation.NewSchema("v:int"))
	body := ir.NewDAG()
	bIn := body.AddInput("counter", "", relation.NewSchema("v:int"))
	dec := body.Add(ir.OpArith, "next", ir.Params{Dst: "v", ALeft: ir.ColRef("v"), ARght: ir.LitOp(relation.Int(1)), AOp: ir.ArithSub}, bIn)
	body.Add(ir.OpSelect, "pending", ir.Params{Pred: ir.Cmp(ir.ColRef("v"), ir.CmpGt, ir.LitOp(relation.Int(0)))}, dec)
	d.Add(ir.OpWhile, "done", ir.Params{
		Body: body, MaxIter: maxIter, CondRel: "pending",
		Carried: map[string]string{"counter": "next"},
	}, in)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	fs := dfs.New()
	counter := relation.New("counter", relation.NewSchema("v:int"))
	counter.MustAppend(relation.Row{relation.Int(int64(start))})
	counter.LogicalBytes = 1e9
	if err := fs.WriteRelation("in/counter", counter); err != nil {
		t.Fatal(err)
	}
	return d, fs
}

// TestWhileDriverNonConvergence: a driver-looped WHILE that exhausts its
// iteration cap with the stop condition still non-empty must fail with a
// diagnostic naming the loop and the iteration count — not silently return
// the truncated state as if it were the fixpoint.
func TestWhileDriverNonConvergence(t *testing.T) {
	d, fs := countdownDAG(t, 10, 3) // needs 10 iterations, capped at 3
	est, err := NewEstimator(ir.Identify(d), fs, cluster.Local(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	part, err := MapTo(d, est, engines.Registry()["hadoop"]) // no native iteration → driver loop
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Ctx: engines.RunContext{DFS: fs, Cluster: cluster.Local(7)}, Mode: engines.ModeOptimized}
	_, err = r.Execute(ir.Identify(d), part)
	if err == nil {
		t.Fatal("non-convergent WHILE reported success")
	}
	for _, want := range []string{"did not converge", "done", "3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %q", err, want)
		}
	}
	if _, err := fs.ReadRelation("done"); err == nil {
		t.Error("truncated WHILE state was published as the loop output")
	}
}

// TestRunnerRetriesTransientFaults: with a chaos plan killing whole job
// attempts, a Runner whose scheduler retries transient failures must
// complete the workflow; without a retry budget the same plan fails it.
func TestRunnerRetriesTransientFaults(t *testing.T) {
	plan := &chaos.Plan{JobCrashProb: 0.5, Seed: 11}
	run := func(s *sched.Scheduler) (*WorkflowResult, error) {
		dag := maxPropertyPrice()
		fs := seedPropertyDFS(t, 1000)
		est, err := NewEstimator(ir.Identify(dag), fs, cluster.Local(7), nil)
		if err != nil {
			t.Fatal(err)
		}
		part, err := MapTo(dag, est, engines.Registry()["hadoop"])
		if err != nil {
			t.Fatal(err)
		}
		r := &Runner{
			Ctx:   engines.RunContext{DFS: fs, Cluster: cluster.Local(7), Chaos: plan},
			Mode:  engines.ModeOptimized,
			Sched: s,
		}
		return r.Execute(ir.Identify(dag), part)
	}

	res, err := run(sched.New(sched.Options{Workers: 4, MaxRetries: 20, Retryable: engines.IsTransient}))
	if err != nil {
		t.Fatalf("retrying scheduler failed: %v", err)
	}
	if len(res.Jobs) == 0 {
		t.Fatal("no jobs ran")
	}

	if _, err := run(sched.New(sched.Options{Workers: 4})); !engines.IsTransient(err) {
		t.Errorf("without retries the injected failure should surface, got %v", err)
	}
}

// TestExecuteCtxPreCancelled: a context cancelled before submission must
// stop the workflow without running any job.
func TestExecuteCtxPreCancelled(t *testing.T) {
	dag := maxPropertyPrice()
	fs := seedPropertyDFS(t, 1000)
	est, err := NewEstimator(ir.Identify(dag), fs, cluster.Local(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	part, err := MapTo(dag, est, engines.Registry()["hadoop"])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &Runner{Ctx: engines.RunContext{DFS: fs, Cluster: cluster.Local(7)}, Mode: engines.ModeOptimized}
	if _, err := r.ExecuteCtx(ctx, ir.Identify(dag), part); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, out := range dag.Sinks() {
		if _, err := fs.ReadRelation(out.Out); err == nil {
			t.Errorf("sink %q materialized despite pre-cancelled context", out.Out)
		}
	}
}
