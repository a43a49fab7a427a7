package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"musketeer/internal/analysis"
	"musketeer/internal/chaos"
	"musketeer/internal/cluster"
	"musketeer/internal/dfs"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
	"musketeer/internal/obs"
	"musketeer/internal/relation"
	"musketeer/internal/sched"
	"musketeer/internal/workloads"
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
	if err := analysis.Analyze(d).Err(); err != nil {
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
	part, err := AutoMap(d, est, []*engines.Engine{engines.Registry()["hadoop"]}) // no native iteration → driver loop
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
		part, err := AutoMap(dag, est, []*engines.Engine{engines.Registry()["hadoop"]})
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
	part, err := AutoMap(dag, est, []*engines.Engine{engines.Registry()["hadoop"]})
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

// TestEverySpanEnds: whichever way an execution leaves — success, a job
// whose retries are exhausted, a context cancelled before submission, a
// driver-looped WHILE — every span it opened on its recorder is ended.
func TestEverySpanEnds(t *testing.T) {
	// twoEngine is Listing 1 one operator per job, alternating hadoop and
	// spark.
	twoEngine := func() (*ir.DAG, *dfs.DFS, *Partitioning) {
		dag := maxPropertyPrice()
		fs := seedPropertyDFS(t, 1000)
		est, err := NewEstimator(ir.Identify(dag), fs, cluster.Local(7), nil)
		if err != nil {
			t.Fatal(err)
		}
		part, err := PerOperatorPartitioning(dag, est, engines.Hadoop())
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(part.Jobs); i += 2 {
			part.Jobs[i].Engine = engines.Spark()
		}
		return dag, fs, part
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name    string
		ctx     context.Context
		chaos   *chaos.Plan
		wantErr bool
		minJobs int // job-attempt spans the case must at least open
		stage   func() (*ir.DAG, *dfs.DFS, *Partitioning)
	}{
		{name: "two-engine", ctx: context.Background(), minJobs: 3, stage: twoEngine},
		{name: "retries exhausted", ctx: context.Background(), chaos: &chaos.Plan{JobCrashProb: 1, Seed: 3}, wantErr: true, minJobs: 3, stage: twoEngine},
		{name: "pre-cancelled", ctx: cancelled, wantErr: true, stage: twoEngine},
		{name: "driver-looped WHILE", ctx: context.Background(), minJobs: 5, stage: func() (*ir.DAG, *dfs.DFS, *Partitioning) {
			d, fs := countdownDAG(t, 4, 10)
			est, err := NewEstimator(ir.Identify(d), fs, cluster.Local(7), nil)
			if err != nil {
				t.Fatal(err)
			}
			part, err := AutoMap(d, est, []*engines.Engine{engines.Hadoop()})
			if err != nil {
				t.Fatal(err)
			}
			return d, fs, part
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dag, fs, part := tc.stage()
			rec := obs.NewRecorder()
			r := &Runner{
				Ctx:   engines.RunContext{DFS: fs, Cluster: cluster.Local(7), Chaos: tc.chaos},
				Mode:  engines.ModeOptimized,
				Sched: sched.New(sched.Options{Workers: 2, MaxRetries: 2, Retryable: engines.IsTransient}),
				Rec:   rec,
			}
			_, err := r.ExecuteCtx(tc.ctx, ir.Identify(dag), part)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want an error: %v", err, tc.wantErr)
			}
			spans := rec.Spans()
			if len(spans) == 0 {
				t.Fatal("the execution recorded no spans")
			}
			jobs := 0
			for _, sp := range spans {
				if sp.Cat == "job" {
					jobs++
				}
				if !sp.Ended() {
					t.Errorf("span %q (%s) was never ended", sp.Name, sp.Cat)
				}
			}
			if jobs < tc.minJobs {
				t.Errorf("%d job-attempt spans, want at least %d", jobs, tc.minJobs)
			}
		})
	}
}

// TestDriverLoopRunsThePricedBody: a WHILE mapped to an engine without
// native iteration is planned once. Its job carries the body's partitioning,
// the loop's cost is that partitioning's cost times the estimated rounds, the
// relations the driver reads back each round are outputs of body jobs, and
// the jobs that run each round are the body plan's, by name and in order.
func TestDriverLoopRunsThePricedBody(t *testing.T) {
	const iters = 3
	for _, tc := range []struct {
		name string
		wl   *workloads.Workload
	}{
		{"pagerank", workloads.PageRank(workloads.LiveJournal(), iters)},
		{"cross-community", workloads.CrossCommunityPageRank(workloads.LiveJournal(), workloads.WebCommunity(), iters)},
	} {
		for _, engine := range []string{"hadoop", "metis"} {
			pc := stagedPlanCase(t, tc.name, tc.wl)
			c := cluster.EC2(100)
			id := ir.Identify(pc.dag)
			est, err := NewEstimator(id, pc.fs, c, nil)
			if err != nil {
				t.Fatal(err)
			}
			part, err := AutoMap(pc.dag, est, []*engines.Engine{engines.Registry()[engine]})
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.name, engine, err)
			}
			var want []string // the job names a run must report
			loops := 0
			for _, job := range part.Jobs {
				w := job.DriverLoop()
				if w == nil {
					if job.Body != nil {
						t.Errorf("%s on %s: %s carries a body plan", tc.name, engine, job.Frag)
					}
					want = append(want, job.Frag.Name())
					continue
				}
				loops++
				if job.Body == nil {
					t.Fatalf("%s on %s: %s carries no body plan", tc.name, engine, job.Frag)
				}
				if got := cluster.Seconds(float64(job.Body.Cost) * float64(est.Iters(w))); got != job.Cost {
					t.Errorf("%s on %s: body plan %v × %d rounds = %v, the loop is priced %v",
						tc.name, engine, job.Body.Cost, est.Iters(w), got, job.Cost)
				}
				var sum cluster.Seconds
				outputs := map[string]bool{}
				var round []string
				for _, bj := range job.Body.Jobs {
					sum += bj.Cost
					round = append(round, bj.Frag.Name())
					for _, out := range bj.Frag.ExtOut {
						outputs[out.Out] = true
					}
				}
				// Job costs are differences of the DP's prefix sums, so they
				// add back up to its total only up to rounding.
				if !sameUpToRounding(sum, job.Body.Cost) {
					t.Errorf("%s on %s: body jobs cost %v in sum, the body plan %v", tc.name, engine, sum, job.Body.Cost)
				}
				for _, carried := range w.Params.Carried {
					if !outputs[carried] {
						t.Errorf("%s on %s: loop-carried %q is no body job's output", tc.name, engine, carried)
					}
				}
				if cond := w.Params.CondRel; cond != "" && !outputs[cond] {
					t.Errorf("%s on %s: stop condition %q is no body job's output", tc.name, engine, cond)
				}
				for i := 0; i < iters; i++ {
					want = append(want, round...)
				}
			}
			if loops != 1 {
				t.Fatalf("%s on %s: %d driver-looped jobs, want 1", tc.name, engine, loops)
			}
			r := &Runner{Ctx: engines.RunContext{DFS: pc.fs, Cluster: c}, Mode: engines.ModeOptimized}
			res, err := r.Execute(id, part)
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.name, engine, err)
			}
			var got []string
			for _, jr := range res.Jobs {
				got = append(got, jr.Job)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s on %s ran jobs\n%v, the plan names\n%v", tc.name, engine, got, want)
			}
		}
	}
}

// TestDriverLoopWithoutBodyFails: the runner plans nothing, so a hand-built
// driver-looped job that carries no body plan is an error — raised before
// the loop reads or stages anything (the DFS here holds no input at all).
func TestDriverLoopWithoutBodyFails(t *testing.T) {
	d, staged := countdownDAG(t, 4, 10)
	est, err := NewEstimator(ir.Identify(d), staged, cluster.Local(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	frag, err := ir.NewFragment(d, []*ir.Op{d.ByOut("done")})
	if err != nil {
		t.Fatal(err)
	}
	hadoop := engines.Registry()["hadoop"]
	part := &Partitioning{Jobs: []Assignment{{Frag: frag, Engine: hadoop, Cost: est.FragmentCost(frag, hadoop)}}}
	empty := dfs.New()
	r := &Runner{Ctx: engines.RunContext{DFS: empty, Cluster: cluster.Local(7)}, Mode: engines.ModeOptimized}
	_, err = r.Execute(ir.Identify(d), part)
	if err == nil || !strings.Contains(err.Error(), "carries no body plan") {
		t.Fatalf("err = %v, want the missing-body-plan error", err)
	}
	if files := empty.List(); len(files) != 0 {
		t.Errorf("the failed loop left %v in the DFS", files)
	}
}

// TestCondOnlyLoopHasOneCap: a loop with no MaxIter is capped at
// ir.MaxCondIters wherever it runs. One needing more rounds than the driver's
// old private cap (1<<16) converges driver-looped as it does natively.
func TestCondOnlyLoopHasOneCap(t *testing.T) {
	if testing.Short() {
		t.Skip("drives 66 000 loop rounds")
	}
	const rounds = 1<<16 + 464
	for _, engine := range []string{"naiad", "hadoop"} {
		d, fs := countdownDAG(t, rounds, 0)
		est, err := NewEstimator(ir.Identify(d), fs, cluster.Local(7), nil)
		if err != nil {
			t.Fatal(err)
		}
		part, err := AutoMap(d, est, []*engines.Engine{engines.Registry()[engine]})
		if err != nil {
			t.Fatal(err)
		}
		r := &Runner{Ctx: engines.RunContext{DFS: fs, Cluster: cluster.Local(7)}, Mode: engines.ModeOptimized}
		if _, err := r.Execute(ir.Identify(d), part); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		out, err := fs.ReadRelation("done")
		if err != nil {
			t.Fatal(err)
		}
		if out.NumRows() != 1 || out.Rows[0][0].I != 0 {
			t.Errorf("%s: countdown ended at %v, want 0", engine, out.Rows)
		}
	}
}
