package core

import (
	"context"
	"fmt"

	"musketeer/internal/cluster"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
	"musketeer/internal/obs"
	"musketeer/internal/sched"
)

// Runner executes partitionings against a deployment. It drives WHILE
// loops for engines without native iteration (re-submitting the body's jobs
// every round, exactly like iterative MapReduce), records workflow history,
// and accounts the simulated makespan along the job DAG's critical path. It
// plans nothing: the partitioning names every job it runs, loop bodies
// included.
//
// All concurrency is delegated to the job scheduler: the partitioning's
// jobs are submitted as a dependency DAG, the scheduler dispatches
// data-independent jobs concurrently under the deployment's admission
// control, cancels in-flight siblings when one job fails, and retries
// transiently fault-injected failures. A Runner holds no mutable state of
// its own, so one compiled workflow may be executed from many goroutines
// at once provided each execution gets its own DFS namespace (the
// session layer above arranges this).
type Runner struct {
	Ctx engines.RunContext
	// History, when non-nil, receives per-job observations (§5.2).
	History *History
	// Mode selects code-generation quality for every generated job.
	Mode engines.PlanMode
	// Sched dispatches the partitioning's jobs. Nil uses a process-wide
	// default scheduler bounded by GOMAXPROCS.
	Sched *sched.Scheduler
	// Rec, when non-nil, records the execution onto a flight recorder:
	// analyze and schedule pipeline spans under Span, one span per job
	// attempt (retries appear as separate attempts), engine phase spans
	// beneath those, and per-iteration spans for driver-looped WHILEs.
	Rec *obs.Recorder
	// Span is the parent the execution's spans hang from (usually the
	// session's workflow span). Ignored when Rec is nil.
	Span *obs.Span
	// Metrics receives scheduler/engine counters and histograms. Nil
	// disables metric recording.
	Metrics *obs.Registry
}

// defaultSched serves Runners constructed without an explicit scheduler,
// which only tests do; deployments built through the public API share
// their own per-deployment scheduler instead.
var defaultSched = sched.New(sched.Options{Retryable: engines.IsTransient})

func (r *Runner) scheduler() *sched.Scheduler {
	if r.Sched != nil {
		return r.Sched
	}
	return defaultSched
}

// WorkflowResult aggregates one workflow execution.
type WorkflowResult struct {
	// Makespan is the simulated end-to-end time: the critical path through
	// the job DAG (jobs with no data dependency run concurrently).
	Makespan cluster.Seconds
	// SumJobTime is the total work across jobs (for resource-efficiency
	// calculations, Fig 8c).
	SumJobTime cluster.Seconds
	// Jobs are the individual executions in partitioning order.
	Jobs []*engines.RunResult
	// OOM reports whether any job exceeded its engine's memory capacity.
	OOM bool
	// Accuracy compares the planner's predicted per-job costs and critical
	// path against what the execution actually measured.
	Accuracy *obs.WorkflowAccuracy
}

// jobDeps derives the partitioning's dependency lists: job i depends on
// job p when p materializes a relation i reads.
func jobDeps(part *Partitioning) [][]int {
	producers := map[string]int{}
	for i, job := range part.Jobs {
		for _, out := range job.Frag.ExtOut {
			producers[out.Out] = i
		}
	}
	deps := make([][]int, len(part.Jobs))
	for i, job := range part.Jobs {
		seen := map[int]bool{}
		for _, in := range job.Frag.ExtIn {
			if p, ok := producers[in.Out]; ok && p != i && !seen[p] {
				seen[p] = true
				deps[i] = append(deps[i], p)
			}
		}
	}
	return deps
}

// Execute runs every job of the partitioning in dependency order with no
// cancellation deadline.
func (r *Runner) Execute(id *ir.Identity, part *Partitioning) (*WorkflowResult, error) {
	return r.ExecuteCtx(context.Background(), id, part)
}

// ExecuteCtx runs every job of a partitioning of id.DAG in dependency order.
// Jobs with no data dependency between them execute concurrently under
// the scheduler's admission control (the DFS and history store are
// concurrency-safe); the simulated makespan is the deterministic critical
// path either way. Workflow outputs land in the execution's DFS view under
// their relation names. Cancelling ctx stops in-flight jobs between
// operators and skips everything not yet started. The runner does not
// analyze id.DAG: product code reaches it only through a musketeer.Workflow,
// whose DAG was analyzed once at compile, and Optimize keeps an analyzable
// DAG analyzable (TestOptimizeKeepsWorkloadsAnalyzable,
// TestRandomWorkflowsOptimizePreservesResults).
func (r *Runner) ExecuteCtx(ctx context.Context, id *ir.Identity, part *Partitioning) (*WorkflowResult, error) {
	deps := jobDeps(part)

	ssp := r.Rec.StartSpan(r.Span, "schedule", "pipeline")
	defer ssp.End()
	ssp.SetInt("jobs", int64(len(part.Jobs)))

	// jobSpans[i] holds job i's most recent attempt span; each slot is
	// written only by the job's own goroutine and read after the
	// scheduler's Run returns (the completion channel provides the
	// happens-before edge), so no lock is needed.
	jobSpans := make([]*obs.Span, len(part.Jobs))
	jobs := make([]sched.Job, len(part.Jobs))
	for i := range part.Jobs {
		i := i
		job := &part.Jobs[i]
		spanName := "job:" + job.Frag.Name() // precomputed: no per-attempt alloc when tracing is off
		jobs[i] = sched.Job{
			Name:      job.Frag.Name(),
			Deps:      deps[i],
			Predicted: job.Cost,
			Run: func(jctx context.Context, attempt int) (sched.Result, error) {
				jsp := r.Rec.StartSpan(ssp, spanName, "job")
				defer jsp.End()
				jsp.NewTrack()
				jobSpans[i] = jsp
				runs, dur, err := r.runJob(jctx, r.Ctx, jsp, id, job, attempt)
				if err != nil {
					return sched.Result{}, err
				}
				r.observe(id, job, runs)
				return sched.Result{Value: runs, Duration: dur}, nil
			},
		}
	}
	rep := r.scheduler().Run(ctx, jobs)
	ssp.End()
	if rep.Err != nil {
		return nil, fmt.Errorf("core: %w", rep.Err)
	}

	res := &WorkflowResult{Makespan: rep.Makespan}
	for i := range part.Jobs {
		out := rep.Outcomes[i]
		// Place the job's final attempt on the simulated timeline now that
		// the scheduler has accounted the whole submission, and attach its
		// measured scheduling latencies.
		if sp := jobSpans[i]; sp != nil {
			sp.SetSim(float64(out.Start), float64(out.Duration))
			sp.SetFloat("queue_wait_ms", out.QueueWait.Seconds()*1e3)
			sp.SetFloat("run_wall_ms", out.RunWall.Seconds()*1e3)
		}
		runs, _ := out.Value.([]*engines.RunResult)
		for _, jr := range runs {
			res.Jobs = append(res.Jobs, jr)
			res.SumJobTime += jr.Makespan
			if jr.OOM {
				res.OOM = true
			}
			// Close the estimator loop (§5.2 made continuous): fold the
			// job's observed phase rates into the calibration state. Output
			// ratios were already folded per job by observe(); the version
			// bumps invalidate any live estimator's memoized scores.
			if r.History != nil {
				r.History.Calibration().ObserveRun(part.Jobs[i].Engine, r.Ctx.Cluster, jr)
			}
		}
	}
	res.Accuracy = r.accuracy(part, deps, rep)
	return res, nil
}

// accuracy compares the planner's per-job cost predictions against the
// measured simulated durations: per-job signed relative error, plus the
// workflow-level comparison of the predicted critical path (the same
// dependency accounting the scheduler applies to measured durations)
// against the measured makespan.
func (r *Runner) accuracy(part *Partitioning, deps [][]int, rep *sched.Report) *obs.WorkflowAccuracy {
	n := len(part.Jobs)
	acc := &obs.WorkflowAccuracy{
		ActualMakespanS: float64(rep.Makespan),
		Jobs:            make([]obs.JobAccuracy, 0, n),
	}
	predicted := make([]cluster.Seconds, n)
	for i := range part.Jobs {
		predicted[i] = part.Jobs[i].Cost
	}
	_, makespan := sched.CriticalPath(deps, predicted)
	acc.PredictedMakespanS = float64(makespan)
	for i := range part.Jobs {
		pred, act := float64(part.Jobs[i].Cost), float64(rep.Outcomes[i].Duration)
		acc.Jobs = append(acc.Jobs, obs.JobAccuracy{
			Job:        part.Jobs[i].Frag.Name(),
			Engine:     part.Jobs[i].Engine.Name(),
			PredictedS: pred,
			ActualS:    act,
			Error:      obs.RelError(pred, act),
		})
	}
	acc.MakespanError = obs.RelError(acc.PredictedMakespanS, acc.ActualMakespanS)
	return acc
}

// runJob is one attempt of one job under sp, its span: a driver-looped WHILE
// goes through runWhileDriver, anything else is a single engine run. base is
// the deployment view the job reads and writes.
func (r *Runner) runJob(jctx context.Context, base engines.RunContext, sp *obs.Span, id *ir.Identity, job *Assignment, attempt int) ([]*engines.RunResult, cluster.Seconds, error) {
	sp.SetStr("engine", job.Engine.Name())
	sp.SetInt("attempt", int64(attempt))
	if sched.IsSpeculative(jctx) {
		sp.SetInt("speculative", 1)
	}
	rctx := base
	rctx.Ctx = jctx
	rctx.Attempt = attempt
	rctx.Rec, rctx.Span, rctx.Metrics = r.Rec, sp, r.Metrics
	if w := job.DriverLoop(); w != nil {
		return r.runWhileDriver(rctx, id, w, job.Body)
	}
	plan, err := job.Engine.Plan(job.Frag, r.Mode)
	if err != nil {
		return nil, 0, err
	}
	jr, err := engines.Run(rctx, plan)
	if err != nil {
		return nil, 0, err
	}
	return []*engines.RunResult{jr}, jr.Makespan, nil
}

// runWhileDriver expands a WHILE for an engine without native iteration:
// Musketeer itself drives the loop. ir.Op.Loop steps the rounds; each round
// submits the jobs of part — the body plan the partitioning carries —
// through the scheduler, and the stop condition is read from materialized
// state. Loop state lives in a "__loop/<out>" namespace of the execution's
// DFS view — the shared DAG is never mutated, so one compiled workflow can
// run this driver from many executions at once. Job overheads and DFS
// round-trips are paid every iteration, which is exactly the cost the paper
// attributes to iterative workflows on MapReduce-class systems; only the
// host's own work of decoding and indexing a loop-invariant input is done
// once per body job.
func (r *Runner) runWhileDriver(rctx engines.RunContext, id *ir.Identity, w *ir.Op, part *Partitioning) ([]*engines.RunResult, cluster.Seconds, error) {
	if part == nil {
		return nil, 0, fmt.Errorf("core: WHILE %s is driver-looped but its job carries no body plan", w.Out)
	}
	ctx := rctx.Ctx // the job attempt's context
	body := w.Params.Body
	// Stage loop state in the loop namespace: each body input's source
	// relation is copied to the path the body resolves it from, so carried
	// updates never clobber source data and concurrent executions of the
	// same workflow never see each other's iteration state.
	loopNS := "__loop/" + w.Out
	loopFS := rctx.DFS.Namespace(loopNS)
	inPath := map[string]string{} // body input name → loop-relative path
	for _, bop := range body.Ops {
		if bop.Type != ir.OpInput {
			continue
		}
		src := w.BoundInput(bop)
		if src == nil {
			return nil, 0, fmt.Errorf("core: WHILE %s: body input %q unbound", w.Out, bop.Out)
		}
		dst := engines.InputPath(bop)
		inPath[bop.Out] = dst
		if err := rctx.DFS.Copy(engines.InputPath(src), loopNS+"/"+dst); err != nil {
			return nil, 0, fmt.Errorf("core: WHILE %s input %q: %w", w.Out, bop.Out, err)
		}
	}
	// No round rewrites the loop copy of an invariant body input. Each body
	// job keeps what its rounds decode and index of those inputs in a share
	// of its own: one job's rounds, retries and backups run one after
	// another, while jobs of one round may run concurrently.
	invariant := make(map[string]bool, len(inPath))
	for bop := range w.Invariant() {
		if bop.Type == ir.OpInput {
			invariant[bop.Out] = true
		}
	}
	lctxs := make([]engines.RunContext, len(part.Jobs))
	for ji := range lctxs {
		lctxs[ji] = rctx
		lctxs[ji].DFS = loopFS
		lctxs[ji].Loop = engines.NewLoopShare(invariant)
	}

	bodyDeps := jobDeps(part)
	// Precomputed span names: zero per-iteration allocation when tracing
	// is off.
	bodySpanNames := make([]string, len(part.Jobs))
	for ji := range part.Jobs {
		bodySpanNames[ji] = "job:" + part.Jobs[ji].Frag.Name()
	}

	var all []*engines.RunResult
	var total cluster.Seconds
	// simClock places iteration spans on the loop's simulated timeline:
	// iterations are strictly sequential, each starting where the previous
	// one's nested critical path ended.
	var simClock cluster.Seconds
	// One driver round, recorded as its own "iteration" span beneath the
	// job attempt.
	round := func(iter int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		isp := r.Rec.StartSpan(rctx.Span, "iteration", "while")
		defer isp.End()
		isp.SetInt("iter", int64(iter))
		r.Metrics.Counter("while_iterations_total").Add(1)
		// One iteration = one nested submission: the driver already holds
		// a worker slot, so body jobs bypass admission but keep dependency
		// dispatch, fail-fast cancellation, and retry.
		iterJobs := make([]sched.Job, len(part.Jobs))
		for ji := range part.Jobs {
			ji := ji
			job := &part.Jobs[ji]
			iterJobs[ji] = sched.Job{
				Name:      job.Frag.Name(),
				Deps:      bodyDeps[ji],
				Predicted: job.Cost,
				Run: func(jctx context.Context, attempt int) (sched.Result, error) {
					bsp := r.Rec.StartSpan(isp, bodySpanNames[ji], "job")
					defer bsp.End()
					runs, dur, err := r.runJob(jctx, lctxs[ji], bsp, id, job, attempt)
					return sched.Result{Value: runs, Duration: dur}, err
				},
			}
		}
		rep := r.scheduler().RunNested(ctx, iterJobs)
		if rep.Err != nil {
			return rep.Err
		}
		// Observed here, in job order, not as each job ends: what history
		// learns from a round does not depend on how its jobs interleaved.
		for ji := range part.Jobs {
			runs := rep.Outcomes[ji].Value.([]*engines.RunResult)
			r.observe(id, &part.Jobs[ji], runs)
			for _, jr := range runs {
				all = append(all, jr)
				total += jr.Makespan
			}
		}
		isp.SetSim(float64(simClock), float64(rep.Makespan))
		simClock += rep.Makespan
		if rctx.Chaos.Enabled() {
			// Under a chaos plan, materializing loop-carried state to the
			// DFS each round is an explicit checkpoint: a later fault
			// restarts the loop from the last round's state, not from
			// iteration zero. Charge its cost on the simulated clock.
			ck := rctx.Chaos.CheckpointCost()
			csp := r.Rec.StartSpan(isp, "checkpoint", "chaos")
			csp.SetInt("iter", int64(iter))
			csp.End()
			csp.SetSim(float64(simClock), ck)
			simClock += cluster.Seconds(ck)
			total += cluster.Seconds(ck)
			r.Metrics.Counter("chaos_checkpoints_total").Add(1)
		}
		return nil
	}
	// Rebinding copies a carried output over its input's loop copy (the
	// analyzer has made every carried input a body INPUT); the stop
	// condition is read from the round's materialized state.
	iters, err := w.Loop(round, func(in, out string) error {
		return loopFS.Copy(out, inPath[in])
	}, func(cond string) (int, error) {
		st, err := loopFS.Stat(cond)
		return st.Rows, err
	})
	if err != nil {
		return nil, 0, fmt.Errorf("core: %w", err)
	}
	if r.History != nil {
		r.History.ObserveIterations(id.Key(w), iters)
	}
	// Publish the WHILE's result under its output name in the execution's
	// view. The last rebind copied a carried result to its input, so the
	// body job's output holds the same bytes.
	if err := rctx.DFS.Copy(loopNS+"/"+w.ResultRelation(), w.Out); err != nil {
		return nil, 0, err
	}
	return all, total, nil
}

// observe records output ratios for the job's materialized relations and
// feeds per-operator-class selectivities to the calibration state. History
// writes are damped (ObserveDamped): the stored ratio eases from the
// planner's current prior toward the measurement, so estimator error
// shrinks geometrically across learning rounds instead of locking onto one
// (possibly noisy) observation.
func (r *Runner) observe(id *ir.Identity, job *Assignment, runs []*engines.RunResult) {
	if r.History == nil || job.DriverLoop() != nil {
		return // a driver loop's rounds were observed as they ran
	}
	frag, jr := job.Frag, runs[0]
	cal := r.History.Calibration()
	for _, out := range frag.ExtOut {
		if jr.Trace.InBytes[out.ID] > 0 {
			// classObs below records this op from the exact per-operator
			// trace; the coarse pull-share approximation would only fight
			// it.
			continue
		}
		var in int64
		for _, p := range out.Inputs {
			if b, ok := jr.Trace.OutBytes[p.ID]; ok {
				in += b
			} else {
				// External input: approximate with the job's pull volume
				// share (coarse, like real black-box observation).
				in += jr.Volumes.Pull
			}
		}
		if in <= 0 {
			continue
		}
		outBytes := jr.Trace.OutBytes[out.ID]
		r.History.ObserveDamped(id.Key(out),
			Observation{OutRatio: float64(outBytes) / float64(in), InBytes: in, OutBytes: outBytes},
			cal.SelectivityPrior(out.Type), SelectivityDamping)
	}
	// Per-op ratios come from the exact per-operator trace volumes (the
	// engine measured both sides). Each feeds two stores: the per-op
	// history under the operator's key, so a rerun of what it computes
	// estimates from exact evidence, and the per-class calibration, which
	// transfers the (coarser, cross-workload) signal to operators never
	// seen before. The prior is captured before the class update so the
	// damping base is what the planner actually used this run.
	var classObs func(ops []*ir.Op, iters int64)
	classObs = func(ops []*ir.Op, iters int64) {
		for _, op := range ops {
			if op.Type == ir.OpWhile {
				n := int64(1)
				if it, ok := jr.Trace.Iterations[op.ID]; ok && it > 0 {
					r.History.ObserveIterations(id.Key(op), it)
					n = int64(it)
				}
				if op.Params.Body != nil {
					classObs(op.Params.Body.Ops, iters*n)
				}
				continue
			}
			if op.Type == ir.OpInput {
				continue
			}
			if in := jr.Trace.InBytes[op.ID]; in > 0 {
				ratio := float64(jr.Trace.OutBytes[op.ID]) / float64(in)
				prior := cal.SelectivityPrior(op.Type)
				cal.ObserveSelectivity(op.Type, ratio)
				// Trace volumes accumulate across WHILE iterations; the
				// history stores per-iteration averages, the granularity
				// the estimator charges at.
				r.History.ObserveDamped(id.Key(op), Observation{
					OutRatio:  ratio,
					InBytes:   in / iters,
					OutBytes:  jr.Trace.OutBytes[op.ID] / iters,
					ProcBytes: jr.Trace.ProcBytes[op.ID] / iters,
				}, prior, SelectivityDamping)
			}
		}
	}
	classObs(frag.Ops, 1)
}
