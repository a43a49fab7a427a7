package engines

import (
	"context"
	"fmt"

	"musketeer/internal/chaos"
	"musketeer/internal/cluster"
	"musketeer/internal/dfs"
	"musketeer/internal/exec"
	"musketeer/internal/ir"
	"musketeer/internal/obs"
	"musketeer/internal/relation"
)

// RunContext is the deployment a job executes on.
type RunContext struct {
	// Ctx carries the execution's cancellation and deadline; Run observes
	// it between phases and operators. Nil means no cancellation
	// (context.Background()).
	Ctx context.Context
	// DFS is the storage view the job reads and writes — for workflow
	// executions, a per-session namespaced view.
	DFS     *dfs.DFS
	Cluster *cluster.Cluster
	// Chaos, when non-nil, is the deterministic fault-injection plan: job
	// crashes, worker failures, stragglers, and DFS read faults are drawn
	// from it, and each engine recovers per its Table 3 mechanism (task
	// retry, lineage, checkpoint, restart).
	Chaos *chaos.Plan
	// Attempt is the scheduler's 0-based retry attempt for this job; the
	// fault model derives per-attempt failure draws from it so a retried
	// job does not deterministically die the same death.
	Attempt int
	// Rec and Span, when set, make Run record pull/process/push phase spans
	// beneath Span (the job attempt's span) on the flight recorder, carrying
	// the cost model's simulated placements. Metrics receives DFS byte
	// counters. All three may be nil — instrumentation then costs nothing.
	Rec     *obs.Recorder
	Span    *obs.Span
	Metrics *obs.Registry
	// Loop is the share of a driver-looped WHILE's body job (see LoopShare);
	// nil for every other job.
	Loop *LoopShare
}

// LoopShare is what one body job of a driver-looped WHILE keeps from round
// to round: each loop-invariant input as the round that first read it opened
// it — its bytes metered, its rows decoded if anything needed them whole —
// and the join tables built over those inputs. A later round still opens,
// verifies and is charged for every input, and draws its read faults; it
// reads the held input instead, so it decodes no rows already decoded and
// indexes no build side already indexed. An input that a pipeline scans is
// decoded every round: its rows never outlive one. A job's rounds, retries
// and speculative backups run one after another, so a share has one user at
// a time.
type LoopShare struct {
	invariant map[string]bool // input names whose bytes no round rewrites
	held      map[string]*relation.Encoded
	joins     exec.JoinTables
}

// NewLoopShare returns an empty share for a body job whose inputs named in
// invariant hold the same bytes every round.
func NewLoopShare(invariant map[string]bool) *LoopShare {
	return &LoopShare{invariant: invariant, held: map[string]*relation.Encoded{}, joins: exec.JoinTables{}}
}

// keep holds the invariant inputs a round read for the rounds after it.
func (s *LoopShare) keep(pulled []pulledInput) {
	for _, in := range pulled {
		if name := in.src.Name; in.held == nil && s.invariant[name] {
			s.held[name] = in.src
		}
	}
}

// Context returns the execution context, defaulting to Background.
func (c RunContext) Context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// RunResult reports one executed job.
type RunResult struct {
	Job       string
	Engine    string
	Makespan  cluster.Seconds
	Breakdown CostBreakdown
	// Volumes is what the cost function charged: the job-edge bytes moved
	// and the per-operator volumes measured from the trace — the same struct
	// the planner fills from estimates, so observers can set a prediction
	// beside its measurement and invert the breakdown into effective rates.
	Volumes Volumes
	// OOM reports that the job's working set exceeded the engine's memory
	// capacity; the makespan includes the thrashing penalty.
	OOM bool
	// Failures counts injected worker failures; Recovery is the simulated
	// time the engine's fault-tolerance mechanism spent recovering from
	// them (included in Makespan).
	Failures int
	Recovery cluster.Seconds
	// Straggler reports that the attempt landed on an injected slow node.
	Straggler bool
	// Checkpoints is how many periodic checkpoints the attempt wrote
	// (rollback-recovery engines only).
	Checkpoints int
	// DFSRetries counts input blocks re-fetched after injected read faults.
	DFSRetries int
	Trace      *exec.Trace
}

// InputPath returns the DFS path an external input is read from: source
// operators carry an explicit path, intermediates are stored under their
// relation name.
func InputPath(op *ir.Op) string {
	if op.Type == ir.OpInput && op.Params.Path != "" {
		return op.Params.Path
	}
	return op.Out
}

// Run executes the plan: reads the fragment's external inputs from the
// DFS, evaluates the operators through the shared kernels, writes external
// outputs back, and computes the simulated makespan from the engine's
// profile and the logical volumes observed. Non-native WHILE fragments must
// be expanded into per-iteration jobs by the caller before reaching Run.
func Run(ctx RunContext, p *Plan) (*RunResult, error) {
	if p.While != nil && !p.Iterative {
		return nil, fmt.Errorf("%s: WHILE fragment requires the iteration driver", p.Engine.Name())
	}
	cctx := ctx.Context()
	if err := cctx.Err(); err != nil {
		return nil, fmt.Errorf("%s: job %s: %w", p.Engine.Name(), p.Frag.Name(), err)
	}
	// Transient whole-job failures (driver/master loss) are injected before
	// any output is written, so a retried attempt replays cleanly.
	if ctx.Chaos.CrashesJob(p.Frag.Name(), ctx.Attempt) {
		ctx.Metrics.Counter("chaos_job_crashes_total").Add(1)
		return nil, fmt.Errorf("%s: job %s: %w", p.Engine.Name(), p.Frag.Name(),
			&TransientError{Job: p.Frag.Name(), Attempt: ctx.Attempt})
	}
	pulled, dfsRetries, pullSp, err := runPull(ctx, p)
	if err != nil {
		return nil, err
	}
	trace, sinks, procSp, err := runProcess(ctx, p, pulled)
	if err != nil {
		return nil, err
	}
	// A physical-only input is sized by the rows decoded from it — their
	// text length, whatever codec they were stored in — which a streamed
	// input only is once the process phase has run, and a held one was in the
	// round that decoded it; a re-read moves it twice.
	var pullBytes int64
	for _, in := range pulled {
		b := in.src.LogicalBytes
		if b <= 0 {
			b = in.read().PhysicalBytes()
		}
		if in.reread {
			b *= 2
		}
		pullBytes += b
	}
	pullSp.SetInt("bytes", pullBytes)
	pullSp.SetInt("inputs", int64(len(pulled)))
	pushBytes, pushSp, err := runPush(ctx, p, sinks)
	if err != nil {
		return nil, err
	}
	ctx.Metrics.Counter("dfs_pull_bytes_total").Add(pullBytes)
	ctx.Metrics.Counter("dfs_push_bytes_total").Add(pushBytes)
	ctx.Metrics.Counter("engine_jobs_total").Add(1)

	res := &RunResult{
		Job:        p.Frag.Name(),
		Engine:     p.Engine.Name(),
		Trace:      trace,
		Volumes:    Volumes{Pull: pullBytes, Push: pushBytes},
		DFSRetries: dfsRetries,
	}
	p.Engine.cost(ctx.Cluster, p, res)
	if ctx.Chaos != nil {
		applyChaos(ctx, p, res)
	}
	// The simulated cost breakdown is only known now; place the already-
	// closed phase spans on the simulated timeline after the fact (pull
	// covers PULL+LOAD, process covers SHUFFLE+PROCESS).
	bd := res.Breakdown
	pull, proc := bd.Pull+bd.Load+bd.LoadGen, bd.Shuffle+bd.Collect+bd.Proc
	pullSp.SetSim(float64(bd.Overhead), float64(pull))
	procSp.SetSim(float64(bd.Overhead+pull), float64(proc))
	pushSp.SetSim(float64(bd.Overhead+pull+proc), float64(bd.Push))
	return res, nil
}

// pulledInput is one external input the pull phase opened; held is the same
// bytes as an earlier round of the job's loop opened and read them, if any;
// reread says the chaos plan failed the first block read.
type pulledInput struct {
	src    *relation.Encoded
	held   *relation.Encoded
	reread bool
}

// read is the input the process phase reads: the held one, if any.
func (in pulledInput) read() *relation.Encoded {
	if in.held != nil {
		return in.held
	}
	return in.src
}

// runPull opens the fragment's external inputs on the DFS — the read is
// accounted and one healthy replica of every block verified, but no row is
// decoded: the process phase streams or materializes them — recording the
// "pull" phase span. The chaos plan may fail individual block reads; a
// failed read is re-fetched from a replica, paying the transfer a second
// time. The returned span is already ended; the caller sets its byte
// attributes once the inputs are sized and places it on the simulated
// timeline once the cost breakdown is known.
func runPull(ctx RunContext, p *Plan) ([]pulledInput, int, *obs.Span, error) {
	sp := ctx.Rec.StartSpan(ctx.Span, "pull", "phase")
	defer sp.End()
	pulled := make([]pulledInput, len(p.Frag.ExtIn))
	retries := 0
	for i, in := range p.Frag.ExtIn {
		src, _, err := ctx.DFS.Open(InputPath(in))
		if err != nil {
			return nil, 0, sp, fmt.Errorf("%s: %w", p.Engine.Name(), err)
		}
		src.Name = in.Out
		pulled[i] = pulledInput{src: src}
		if ctx.Loop != nil {
			pulled[i].held = ctx.Loop.held[in.Out]
		}
		if ctx.Chaos.FailsRead(p.Frag.Name(), ctx.Attempt, i) {
			pulled[i].reread = true
			retries++
		}
	}
	if retries > 0 {
		sp.SetInt("dfs_retries", int64(retries))
		ctx.Metrics.Counter("chaos_dfs_read_retries_total").Add(int64(retries))
	}
	return pulled, retries, sp, nil
}

// runProcess evaluates the fragment's operators through the shared
// interpreter (exec.RunOps), recording the "process" phase span. Only the
// fragment's external outputs must outlive it, so interior
// SELECT/PROJECT/ARITH/JOIN/AGG chains run as single pull pipelines with no
// intermediate relations, and every output is rendered into the writer
// returned for it. A streamed-through operator's trace entry is metered by a
// tap and equals what materializing it would record, so plans, costs and
// golden traces do not depend on where a fragment was cut.
func runProcess(ctx RunContext, p *Plan, pulled []pulledInput) (*exec.Trace, map[string]*relation.Writer, *obs.Span, error) {
	sp := ctx.Rec.StartSpan(ctx.Span, "process", "phase")
	defer sp.End()
	cctx := ctx.Context()
	trace := exec.NewTrace()
	sinks := make(map[string]*relation.Writer, len(p.Frag.ExtOut))
	for _, op := range p.Frag.ExtOut {
		// Every stored file is columnar: a user reads text rendered from it.
		// RunOps stamps the schema before the first row.
		sinks[op.Out] = relation.NewColumnarWriter(relation.Schema{})
	}
	// Every input is handed over undecoded — a held one as an earlier round
	// read it — and RunOps streams or materializes each.
	env := exec.Env{}
	sources := make(map[string]*relation.Encoded, len(pulled))
	for _, in := range pulled {
		sources[in.src.Name] = in.read()
	}
	opts := exec.RunOptions{
		// Cancellation is observed at execution-unit granularity: a
		// cancelled multi-operator job stops between kernels/pipelines
		// instead of running the whole fragment to completion.
		Check:      cctx.Err,
		SkipInputs: true,
		Sources:    sources,
		Sinks:      sinks,
	}
	if ctx.Loop != nil {
		opts.Joins = ctx.Loop.joins
	}
	if err := exec.RunOps(p.Frag.Ops, env, trace, opts); err != nil {
		return nil, nil, sp, fmt.Errorf("%s: job %s: %w", p.Engine.Name(), p.Frag.Name(), err)
	}
	if ctx.Loop != nil {
		ctx.Loop.keep(pulled)
	}
	ops := 0
	for _, op := range p.Frag.Ops {
		if op.Type != ir.OpInput {
			ops++
		}
	}
	sp.SetInt("ops", int64(ops))
	return trace, sinks, sp, nil
}

// runPush publishes the fragment's external outputs on the DFS, recording
// the "push" phase span. It runs once every operator has succeeded, so a
// failed attempt publishes nothing and leaves a file it would replace whole.
func runPush(ctx RunContext, p *Plan, sinks map[string]*relation.Writer) (int64, *obs.Span, error) {
	sp := ctx.Rec.StartSpan(ctx.Span, "push", "phase")
	defer sp.End()
	cctx := ctx.Context()
	var pushBytes int64
	for _, out := range p.Frag.ExtOut {
		if err := cctx.Err(); err != nil {
			return 0, sp, fmt.Errorf("%s: job %s: %w", p.Engine.Name(), p.Frag.Name(), err)
		}
		w := sinks[out.Out]
		if _, err := ctx.DFS.Commit(out.Out, w); err != nil {
			return 0, sp, err
		}
		if w.LogicalBytes > 0 {
			pushBytes += w.LogicalBytes
		} else {
			pushBytes += w.BodyBytes()
		}
	}
	sp.SetInt("bytes", pushBytes)
	sp.SetInt("outputs", int64(len(p.Frag.ExtOut)))
	return pushBytes, sp, nil
}
