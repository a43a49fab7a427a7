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
	// Log, when set, receives the attempt's structured fault events
	// (injected crashes, stragglers, DFS read retries, fault recovery) —
	// the execution's run-scoped logger. Nil disables logging at zero cost.
	Log *obs.Logger
	// ShuffleCodec selects the wire format for intra-run shuffles (fragment
	// outputs consumed by other jobs of the same run). The zero value keeps
	// everything TSV; workflow sources, published sinks, and loop
	// temporaries stay TSV regardless.
	ShuffleCodec relation.Codec
}

// Context returns the execution context, defaulting to Background.
func (c RunContext) Context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	//mkvet:ignore context-discipline nil-Ctx fallback for direct engine invocation (tests, tools); workflow executions always populate Ctx via ExecuteCtx
	return context.Background()
}

// CostBreakdown decomposes a job's simulated makespan into the phases of
// the paper's cost model (Table 1 plus per-job overhead).
type CostBreakdown struct {
	Overhead cluster.Seconds
	Pull     cluster.Seconds
	Load     cluster.Seconds
	Shuffle  cluster.Seconds
	Proc     cluster.Seconds
	Push     cluster.Seconds
}

// Total sums the phases.
func (c CostBreakdown) Total() cluster.Seconds {
	return c.Overhead + c.Pull + c.Load + c.Shuffle + c.Proc + c.Push
}

// RunResult reports one executed job.
type RunResult struct {
	Job        string
	Engine     string
	Makespan   cluster.Seconds
	Breakdown  CostBreakdown
	Iterations int
	// ProcVolume / GenVolume / ShuffleVolume are the surcharge-weighted
	// PROCESS volume, the generated (operator output) volume, and the
	// shuffle-operator input volume the cost function charged — the measured
	// counterparts of Volumes.Proc/Gen/Shuffle, kept so observers can derive
	// effective per-phase rates from the breakdown. AggVolume is the subset
	// that flowed through single-machine aggregation (NonAssocGroupBy).
	ProcVolume, GenVolume, ShuffleVolume, AggVolume int64
	// Graph marks that the job was costed at the engine's vertex-centric
	// PROCESS rate (detected graph idiom).
	Graph bool
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
	// PullBytes/PushBytes are the effective volumes moved at job edges.
	PullBytes, PushBytes int64
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
		ctx.Log.WithJob(p.Frag.Name()).WithAttempt(ctx.Attempt).Warn("job_crash_injected").
			Str("engine", p.Engine.Name()).Emit()
		return nil, fmt.Errorf("%s: job %s: %w", p.Engine.Name(), p.Frag.Name(),
			&TransientError{Job: p.Frag.Name(), Attempt: ctx.Attempt})
	}
	env := exec.Env{}
	pulled, dfsRetries, pullSp, err := runPull(ctx, p)
	if err != nil {
		return nil, err
	}
	trace, sinks, procSp, err := runProcess(ctx, p, env, pulled)
	if err != nil {
		return nil, err
	}
	// A physical-only input is sized by the rows decoded from it, which a
	// streamed input only is once the process phase has run: columnar
	// shuffle files move their compact wire volume, TSV files the decoded
	// relation's effective size, a re-read twice.
	var pullBytes int64
	for _, in := range pulled {
		b := in.wire
		if !in.columnar {
			if b = in.src.LogicalBytes; b <= 0 {
				b = in.src.PhysicalBytes()
			}
		}
		if in.reread {
			b *= 2
		}
		pullBytes += b
	}
	pullSp.SetInt("bytes", pullBytes)
	pullSp.SetInt("inputs", int64(len(pulled)))
	pushBytes, pushSp, err := runPush(ctx, p, env, sinks)
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
		PullBytes:  pullBytes,
		PushBytes:  pushBytes,
		DFSRetries: dfsRetries,
	}
	if p.While != nil {
		res.Iterations = trace.Iterations[p.While.ID]
	}
	res.Breakdown, res.OOM = p.Engine.cost(ctx.Cluster, p, res)
	res.Makespan = res.Breakdown.Total()
	if ctx.Chaos != nil {
		applyChaos(ctx, p, res)
	}
	// The simulated cost breakdown is only known now; place the already-
	// closed phase spans on the simulated timeline after the fact (pull
	// covers PULL+LOAD, process covers SHUFFLE+PROCESS).
	bd := res.Breakdown
	pullSp.SetSim(float64(bd.Overhead), float64(bd.Pull+bd.Load))
	procSp.SetSim(float64(bd.Overhead+bd.Pull+bd.Load), float64(bd.Shuffle+bd.Proc))
	pushSp.SetSim(float64(bd.Overhead+bd.Pull+bd.Load+bd.Shuffle+bd.Proc), float64(bd.Push))
	return res, nil
}

// pulledInput is one external input the pull phase opened: a columnar
// shuffle file accounts for its wire volume, a TSV file for its rows'
// effective size; reread says the chaos plan failed the first block read.
type pulledInput struct {
	src      *relation.Encoded
	wire     int64
	columnar bool
	reread   bool
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
		src, st, err := ctx.DFS.Open(InputPath(in))
		if err != nil {
			return nil, 0, sp, fmt.Errorf("%s: %w", p.Engine.Name(), err)
		}
		src.Name = in.Out
		pulled[i] = pulledInput{src: src, wire: st.WireBytes, columnar: st.Codec == relation.CodecColumnar}
		if ctx.Chaos.FailsRead(p.Frag.Name(), ctx.Attempt, i) {
			pulled[i].reread = true
			retries++
		}
	}
	if retries > 0 {
		sp.SetInt("dfs_retries", int64(retries))
		ctx.Metrics.Counter("chaos_dfs_read_retries_total").Add(int64(retries))
		ctx.Log.WithJob(p.Frag.Name()).WithAttempt(ctx.Attempt).Warn("dfs_read_retry").
			Int("retries", int64(retries)).Emit()
	}
	return pulled, retries, sp, nil
}

// runProcess evaluates the fragment's operators through the shared
// interpreter (exec.RunOps), recording the "process" phase span. Only the
// fragment's external outputs must outlive it, so interior
// SELECT/PROJECT/ARITH/JOIN/AGG chains run as single pull pipelines with no
// intermediate relations; a TSV output is rendered into the writer returned
// for it, a columnar shuffle output materializes into env. A
// streamed-through operator's trace entry is metered by a tap and equals what
// materializing it would record, so plans, costs and golden traces do not
// depend on where a fragment was cut.
func runProcess(ctx RunContext, p *Plan, env exec.Env, pulled []pulledInput) (*exec.Trace, map[string]*relation.Writer, *obs.Span, error) {
	sp := ctx.Rec.StartSpan(ctx.Span, "process", "phase")
	defer sp.End()
	cctx := ctx.Context()
	trace := exec.NewTrace()
	extOut := make(map[*ir.Op]bool, len(p.Frag.ExtOut))
	sinks := make(map[string]*relation.Writer, len(p.Frag.ExtOut))
	for _, op := range p.Frag.ExtOut {
		extOut[op] = true
		// Intra-run shuffles (outputs another job reads) may use the compact
		// columnar wire format; sinks and loop temporaries stay TSV so
		// published results and golden fixtures are untouched.
		if ctx.ShuffleCodec != relation.CodecColumnar || !p.Frag.ConsumedOutside(op) {
			sinks[op.Out] = relation.NewWriter(relation.Schema{}) // RunOps stamps the schema
		}
	}
	sources := make(map[string]*relation.Encoded, len(pulled))
	for _, in := range pulled {
		sources[in.src.Name] = in.src
	}
	err := exec.RunOps(p.Frag.Ops, env, trace, exec.RunOptions{
		Keep: func(op *ir.Op) bool { return extOut[op] },
		// Cancellation is observed at execution-unit granularity: a
		// cancelled multi-operator job stops between kernels/pipelines
		// instead of running the whole fragment to completion.
		Check:      cctx.Err,
		SkipInputs: true,
		Sources:    sources,
		Sinks:      sinks,
	})
	if err != nil {
		return nil, nil, sp, fmt.Errorf("%s: job %s: %w", p.Engine.Name(), p.Frag.Name(), err)
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
func runPush(ctx RunContext, p *Plan, env exec.Env, sinks map[string]*relation.Writer) (int64, *obs.Span, error) {
	sp := ctx.Rec.StartSpan(ctx.Span, "push", "phase")
	defer sp.End()
	cctx := ctx.Context()
	var pushBytes int64
	for _, out := range p.Frag.ExtOut {
		if err := cctx.Err(); err != nil {
			return 0, sp, fmt.Errorf("%s: job %s: %w", p.Engine.Name(), p.Frag.Name(), err)
		}
		// Per-codec shuffle counters feed estimator calibration: the
		// encoded-vs-logical ratio is what WithShuffleCodec scales by.
		if w := sinks[out.Out]; w != nil {
			st, err := ctx.DFS.Commit(out.Out, w)
			if err != nil {
				return 0, sp, err
			}
			eff := w.LogicalBytes
			if eff <= 0 {
				eff = w.BodyBytes()
			}
			pushBytes += eff
			ctx.Metrics.Counter("shuffle_codec_tsv_total").Add(1)
			ctx.Metrics.Counter("shuffle_tsv_encoded_bytes_total").Add(st.PhysicalBytes)
			ctx.Metrics.Counter("shuffle_tsv_logical_bytes_total").Add(eff)
			continue
		}
		rel, ok := env[out.Out]
		if !ok {
			return 0, sp, fmt.Errorf("%s: output %q not materialized", p.Engine.Name(), out.Out)
		}
		st, err := ctx.DFS.WriteRelationCodec(out.Out, rel, relation.CodecColumnar)
		if err != nil {
			return 0, sp, err
		}
		pushBytes += st.WireBytes
		ctx.Metrics.Counter("shuffle_codec_columnar_total").Add(1)
		ctx.Metrics.Counter("shuffle_columnar_encoded_bytes_total").Add(st.PhysicalBytes)
		ctx.Metrics.Counter("shuffle_columnar_logical_bytes_total").Add(rel.EffectiveBytes())
	}
	sp.SetInt("bytes", pushBytes)
	sp.SetInt("outputs", int64(len(p.Frag.ExtOut)))
	return pushBytes, sp, nil
}

// cost converts observed volumes into simulated time. This is the engine
// side of the paper's cost function (§5.2): PULL and PUSH at the job's
// edges, LOAD for engines with an ingest transformation, and PROCESS per
// operator — paid once per operator, while merging lets all operators share
// a single PULL/LOAD/PUSH.
func (e *Engine) cost(c *cluster.Cluster, p *Plan, res *RunResult) (CostBreakdown, bool) {
	pullBytes, pushBytes, trace := res.PullBytes, res.PushBytes, res.Trace
	nodes := e.EffectiveNodes(c)
	fn := e.RateNodes(c)
	bd := CostBreakdown{
		Overhead: cluster.Seconds(e.prof.PerJobOverheadS),
		Pull:     cluster.TransferTime(pullBytes, e.prof.PullMBps*fn),
		Load:     cluster.TransferTime(pullBytes, e.prof.LoadMBps*fn),
		Push:     cluster.TransferTime(pushBytes, e.prof.PushMBps*fn),
	}

	// PROCESS: cumulative per-operator volumes (inputs + produced data),
	// with a surcharge on shuffle operators for partition/sort engines,
	// split into aggregation vs other work when the engine's high-level
	// GROUP BY is non-associative (Lindi: aggregation collapses to one
	// machine).
	graph := p.Iterative && p.While != nil && ir.DetectGraphIdiom(p.While) != nil
	rate := e.prof.ProcMBps
	if graph && e.prof.GraphProcMBps > 0 {
		rate = e.prof.GraphProcMBps
	}
	shuf := e.prof.ShuffleFactor
	if shuf <= 0 {
		shuf = 1
	}
	var aggBytes, otherBytes, genBytes, shufBytes int64
	addOp := func(op *ir.Op) {
		b := trace.ProcBytes[op.ID]
		// Cumulative produced volume = processed minus consumed
		// (accumulates across WHILE iterations).
		genBytes += trace.ProcBytes[op.ID] - trace.InBytes[op.ID]
		if ir.IsShuffleOp(op.Type) {
			b = int64(float64(b) * shuf)
			shufBytes += trace.InBytes[op.ID]
		}
		if e.prof.NonAssocGroupBy && op.Type == ir.OpAgg {
			aggBytes += b
		} else {
			otherBytes += b
		}
	}
	for _, op := range p.Frag.Ops {
		if op.Type == ir.OpWhile && op.Params.Body != nil {
			for _, bop := range allBodyOps(op.Params.Body) {
				addOp(bop)
			}
			continue
		}
		if op.Type != ir.OpInput {
			addOp(op)
		}
	}
	res.ProcVolume = otherBytes + aggBytes
	res.GenVolume = genBytes
	res.ShuffleVolume = shufBytes
	res.AggVolume = aggBytes
	res.Graph = graph
	if e.prof.LoadOutputs {
		bd.Load += cluster.TransferTime(genBytes, e.prof.LoadMBps*fn)
	}
	if !graph {
		// Graph-idiom plans communicate through the engine's vertex
		// messaging, already covered by GraphProcMBps.
		bd.Shuffle = cluster.TransferTime(shufBytes, e.prof.ShuffleMBps*fn)
	}
	proc := cluster.TransferTime(otherBytes, rate*fn) +
		cluster.TransferTime(aggBytes, rate) // one machine
	if e.prof.NonAssocGroupBy {
		// Collecting the aggregation input onto a single machine moves it
		// over one node's network link.
		bd.Shuffle += cluster.TransferTime(aggBytes, e.prof.ShuffleMBps)
	}
	// Codegen quality (paper §4.3, §6.4): naive plans re-scan per
	// operator; Musketeer-optimized plans carry a small residual tax over
	// the hand-optimized baseline.
	switch p.Mode {
	case ModeNaive:
		proc = cluster.Seconds(float64(proc) * e.prof.NaiveFactor)
	case ModeOptimized:
		proc = cluster.Seconds(float64(proc) * (1 + e.prof.CodegenTaxPct/100))
	}

	// Memory capacity: in-memory engines thrash once the working set
	// (largest materialized relation, or the pulled inputs) exceeds the
	// deployment's capacity. CROSS JOIN outputs are weighted by the
	// engine's cartesian blow-up factor.
	oom := false
	if e.prof.MemCapGB > 0 {
		// Memory capacity scales with physical nodes, not rate efficiency.
		capBytes := int64(e.prof.MemCapGB * 1e9 * float64(nodes))
		peak := pullBytes
		if graph && e.prof.GraphMemFactor > 1 {
			peak = int64(float64(pullBytes) * e.prof.GraphMemFactor)
		}
		blowup := e.prof.CrossJoinBlowup
		if blowup <= 0 {
			blowup = 1
		}
		var visit func(op *ir.Op)
		visit = func(op *ir.Op) {
			if op.Type == ir.OpInput {
				return
			}
			if op.Params.Body != nil {
				for _, bop := range op.Params.Body.Ops {
					visit(bop)
				}
				return
			}
			b := trace.OutBytes[op.ID]
			if op.Type == ir.OpCrossJoin {
				b = int64(float64(b) * blowup)
			}
			if b > peak {
				peak = b
			}
		}
		for _, op := range p.Frag.Ops {
			visit(op)
		}
		if peak > capBytes {
			oom = true
			proc = cluster.Seconds(float64(proc) * e.prof.ThrashFactor)
		}
	}
	bd.Proc = proc
	return bd, oom
}

func allBodyOps(d *ir.DAG) []*ir.Op {
	var ops []*ir.Op
	for _, op := range d.Ops {
		if op.Type == ir.OpInput {
			continue
		}
		ops = append(ops, op)
		if op.Params.Body != nil {
			ops = append(ops, allBodyOps(op.Params.Body)...)
		}
	}
	return ops
}

// Volumes aggregates a prospective job's estimated data movement for
// planning-time costing.
type Volumes struct {
	// Pull / Push are the job-edge DFS volumes.
	Pull, Push int64
	// Proc is the summed per-operator PROCESS volume (inputs + outputs,
	// shuffle surcharge already applied, multiplied by expected iterations
	// for WHILE fragments); AggProc is the subset flowing through
	// aggregation operators.
	Proc, AggProc int64
	// Gen is the summed generated (operator output) volume, which feeds
	// the LOAD phase of engines that materialize results in memory.
	Gen int64
	// Shuffle is the summed input volume of shuffle operators, moved over
	// the network by distributed engines.
	Shuffle int64
	// Peak is the largest single estimated relation (cross-join weighted),
	// checked against the engine's memory capacity.
	Peak int64
	// Graph marks a detected graph idiom (vertex-centric PROCESS rate).
	Graph bool
	// ExtraJobs adds per-job overheads beyond the first.
	ExtraJobs int
}

// Rates is the tunable-rate slice of an engine's profile: the per-node
// phase throughputs (and per-job overhead) the planning-time cost function
// runs on. The structural profile facts — paradigm flags, memory capacity,
// shuffle surcharges — stay on Profile; Rates is what feedback calibration
// refines (§5.2's Table 1 constants, made continuous).
type Rates struct {
	OverheadS     float64 `json:"overhead_s"`
	PullMBps      float64 `json:"pull_mbps"`
	LoadMBps      float64 `json:"load_mbps,omitempty"`
	ProcMBps      float64 `json:"proc_mbps"`
	GraphProcMBps float64 `json:"graph_proc_mbps,omitempty"`
	PushMBps      float64 `json:"push_mbps"`
	ShuffleMBps   float64 `json:"shuffle_mbps,omitempty"`
}

// SeedRates returns the engine's Table-1 calibrated rates — the seed a
// feedback calibration starts from, and what EstimateCost runs on.
func (e *Engine) SeedRates() Rates {
	return Rates{
		OverheadS:     e.prof.PerJobOverheadS,
		PullMBps:      e.prof.PullMBps,
		LoadMBps:      e.prof.LoadMBps,
		ProcMBps:      e.prof.ProcMBps,
		GraphProcMBps: e.prof.GraphProcMBps,
		PushMBps:      e.prof.PushMBps,
		ShuffleMBps:   e.prof.ShuffleMBps,
	}
}

// EstimateCost predicts a job's makespan from estimated volumes without
// executing it — the planning-time side of the cost function used by the
// DAG partitioner and the automatic mapper (§5.2) — at the engine's seed
// (Table 1) rates.
func (e *Engine) EstimateCost(c *cluster.Cluster, v Volumes) cluster.Seconds {
	return e.EstimateCostRates(c, v, e.SeedRates())
}

// EstimateCostRates is EstimateCost evaluated at explicit rates, so a
// calibration layer can re-score candidate mappings on learned throughputs
// without touching the engine's structural profile. With r == SeedRates()
// the result is bit-identical to EstimateCost.
func (e *Engine) EstimateCostRates(c *cluster.Cluster, v Volumes, r Rates) cluster.Seconds {
	nodes := e.EffectiveNodes(c)
	fn := e.RateNodes(c)
	rate := r.ProcMBps
	if v.Graph && r.GraphProcMBps > 0 {
		rate = r.GraphProcMBps
	}
	t := cluster.Seconds(r.OverheadS*float64(1+v.ExtraJobs)) +
		cluster.TransferTime(v.Pull, r.PullMBps*fn) +
		cluster.TransferTime(v.Pull, r.LoadMBps*fn) +
		cluster.TransferTime(v.Push, r.PushMBps*fn)
	if e.prof.LoadOutputs {
		t += cluster.TransferTime(v.Gen, r.LoadMBps*fn)
	}
	if !v.Graph {
		t += cluster.TransferTime(v.Shuffle, r.ShuffleMBps*fn)
	}
	proc := cluster.TransferTime(v.Proc-v.AggProc, rate*fn)
	if e.prof.NonAssocGroupBy {
		proc += cluster.TransferTime(v.AggProc, rate) // one machine
		t += cluster.TransferTime(v.AggProc, r.ShuffleMBps)
	} else {
		proc += cluster.TransferTime(v.AggProc, rate*fn)
	}
	if e.prof.MemCapGB > 0 {
		peak := v.Peak
		if v.Pull > peak {
			peak = v.Pull
		}
		if v.Graph && e.prof.GraphMemFactor > 1 {
			if g := int64(float64(v.Pull) * e.prof.GraphMemFactor); g > peak {
				peak = g
			}
		}
		if peak > int64(e.prof.MemCapGB*1e9*float64(nodes)) {
			proc = cluster.Seconds(float64(proc) * e.prof.ThrashFactor)
		}
	}
	return t + proc
}

// ObservedRates derives the effective per-node phase rates one executed
// job actually achieved, by inverting the cost function over the measured
// breakdown and the volumes it charged. Fields the job gives no clean
// signal for are zero (no data moved, thrashing run, single-machine
// aggregation mixing rates). This is the measurement half of feedback
// calibration: under fault-free runs the observed rates converge on the
// profile seeds, while systematic effects the planner does not price —
// codegen tax, chaos-degraded throughput — show up as persistent residuals
// the calibration layer can learn.
func (e *Engine) ObservedRates(c *cluster.Cluster, res *RunResult) Rates {
	fn := e.RateNodes(c)
	r := Rates{OverheadS: float64(res.Breakdown.Overhead)}
	mbps := func(bytes int64, secs cluster.Seconds) float64 {
		if bytes <= 0 || secs <= 0 {
			return 0
		}
		return float64(bytes) / 1e6 / float64(secs) / fn
	}
	r.PullMBps = mbps(res.PullBytes, res.Breakdown.Pull)
	r.PushMBps = mbps(res.PushBytes, res.Breakdown.Push)
	loadVol := res.PullBytes
	if e.prof.LoadOutputs {
		loadVol += res.GenVolume
	}
	r.LoadMBps = mbps(loadVol, res.Breakdown.Load)
	if !e.prof.NonAssocGroupBy {
		// NonAssoc engines fold a single-link aggregation collect into the
		// shuffle phase; the blended rate is not a network throughput.
		r.ShuffleMBps = mbps(res.ShuffleVolume, res.Breakdown.Shuffle)
	}
	if !res.OOM && res.AggVolume == 0 {
		// A thrashing run measures the penalty, not the rate; an aggregation
		// split across single-machine and distributed rates is not separable
		// from the breakdown alone.
		proc := mbps(res.ProcVolume, res.Breakdown.Proc)
		if res.Graph {
			r.GraphProcMBps = proc
		} else {
			r.ProcMBps = proc
		}
	}
	return r
}

// ShuffleSurcharge returns the engine's PROCESS multiplier for shuffle
// operators (≥ 1).
func (e *Engine) ShuffleSurcharge() float64 {
	if e.prof.ShuffleFactor <= 0 {
		return 1
	}
	return e.prof.ShuffleFactor
}

// CrossBlowup returns the engine's cartesian working-set multiplier (≥ 1).
func (e *Engine) CrossBlowup() float64 {
	if e.prof.CrossJoinBlowup <= 0 {
		return 1
	}
	return e.prof.CrossJoinBlowup
}
