// Package musketeer is a from-scratch Go reproduction of "Musketeer: all
// for one, one for all in data processing systems" (EuroSys 2015): a
// workflow manager that decouples front-end workflow frameworks from
// back-end execution engines.
//
// Workflows written in any supported front-end (a HiveQL subset, the BEER
// DSL, a Pig Latin subset, the Gather-Apply-Scatter DSL, or the LINQ-style
// Lindi builder) are translated to a common DAG-of-operators intermediate
// representation,
// optimized, partitioned into jobs, mapped — manually or automatically via
// a calibrated cost function — onto seven back-end execution engines
// (Hadoop MapReduce, Spark, Naiad, PowerGraph, GraphChi, Metis, serial C),
// and executed. The engines are in-process simulations that really run the
// generated jobs over a simulated distributed filesystem while accounting
// makespan with per-engine performance profiles; see DESIGN.md for the
// substitution rationale.
//
// Quickstart:
//
//	m := musketeer.New(musketeer.EC2(16))
//	m.WriteInput("in/properties", propsRel)
//	m.WriteInput("in/prices", pricesRel)
//	wf, err := m.CompileHive(querySrc, catalog)
//	res, err := wf.Execute() // optimize, auto-map, run
//	out, err := m.ReadOutput("street_price")
package musketeer

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"musketeer/internal/analysis"
	"musketeer/internal/chaos"
	"musketeer/internal/cluster"
	"musketeer/internal/core"
	"musketeer/internal/dfs"
	"musketeer/internal/engines"
	"musketeer/internal/frontends"
	"musketeer/internal/frontends/beer"
	"musketeer/internal/frontends/gas"
	"musketeer/internal/frontends/hive"
	"musketeer/internal/frontends/lindi"
	"musketeer/internal/frontends/pig"
	"musketeer/internal/ir"
	"musketeer/internal/obs"
	"musketeer/internal/relation"
	"musketeer/internal/sched"
)

// Re-exported front-end types.
type (
	// Catalog maps base-table names to DFS paths and schemas.
	Catalog = frontends.Catalog
	// Table is one catalogued base relation.
	Table = frontends.Table
	// GASConfig configures the Gather-Apply-Scatter front-end.
	GASConfig = gas.Config
	// LindiBuilder is the LINQ-style programmatic front-end.
	LindiBuilder = lindi.Builder
	// Relation is the tabular data model.
	Relation = relation.Relation
	// Schema describes a relation's columns.
	Schema = relation.Schema
	// Seconds is a simulated duration.
	Seconds = cluster.Seconds
	// History is the workflow-history store.
	History = core.History
	// Calibration is the feedback-calibrated rate & selectivity store
	// carried by a History (seeded from Table 1, updated after every run).
	Calibration = core.Calibration
	// CalibrationSnapshot is a versioned point-in-time copy of a
	// Calibration: per-engine seed vs learned rates and per-operator-class
	// selectivities.
	CalibrationSnapshot = core.CalibrationSnapshot
	// Partitioning is a workflow decomposed into engine-assigned jobs.
	Partitioning = core.Partitioning
	// Estimator is the cost model a partitioning is searched and priced
	// with (see Workflow.Estimator).
	Estimator = core.Estimator
	// PlanMode selects generated-code quality.
	PlanMode = engines.PlanMode
	// FlightRecorder is the per-run span recorder (see Result.Flight).
	FlightRecorder = obs.Recorder
	// TraceOptions configures Chrome trace_event export.
	TraceOptions = obs.TraceOptions
	// MetricsRegistry is the deployment-wide metrics store.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of every metric.
	MetricsSnapshot = obs.Snapshot
	// WorkflowAccuracy compares predicted against measured makespans.
	WorkflowAccuracy = obs.WorkflowAccuracy
	// RunDigest is the retained summary of one execution (see Runs).
	RunDigest = obs.RunDigest
	// RunRegistry is the bounded in-process registry of recent executions.
	RunRegistry = obs.RunRegistry
)

// Code-generation modes.
const (
	ModeOptimized = engines.ModeOptimized
	ModeNaive     = engines.ModeNaive
	ModeHand      = engines.ModeHand
)

// NewSchema builds a schema from "name:kind" specs.
func NewSchema(specs ...string) Schema { return relation.NewSchema(specs...) }

// LoadHistory reads a workflow-history store saved by History.Save;
// a missing file yields an empty store.
func LoadHistory(path string) (*History, error) { return core.LoadHistory(path) }

// NewLindiBuilder starts a LINQ-style Lindi workflow over the catalog.
func NewLindiBuilder(cat Catalog) *LindiBuilder { return lindi.NewBuilder(cat) }

// NewRelation creates an empty relation with the given name and schema.
func NewRelation(name string, schema Schema) *Relation { return relation.New(name, schema) }

// Musketeer is a deployment: a cluster, shared storage, the engine
// registry, the job scheduler, and accumulated workflow history.
//
// A deployment is safe for concurrent use: every execution runs in its own
// DFS session namespace, and all executions share the deployment
// scheduler's admission control, so concurrent workflows compete for the
// same bounded worker budget instead of oversubscribing the host.
type Musketeer struct {
	fs      *dfs.DFS
	cluster *cluster.Cluster
	engines map[string]*engines.Engine
	history *core.History
	chaos   *chaos.Plan
	sched   *sched.Scheduler
	workers int
	retries int
	runSeq  atomic.Int64
	// tracing makes every execution carry a flight recorder (Result.Flight);
	// off by default so instrumented hot paths stay allocation-free.
	tracing bool
	// metrics are always on: counters are cheap and shared by every
	// execution.
	metrics *obs.Registry
	// runs retains digests of the last N executions (always on: a digest is
	// a few hundred bytes; flight recorders are retained only when tracing).
	runs         *obs.RunRegistry
	runRetention int
	// planCache memoizes partitionings across executions keyed on the
	// canonicalized IR (see WithPlanCache); nil (the default) disables it.
	planCache    *core.PlanCache
	planCacheCap int
}

// Option configures New.
type Option func(*Musketeer)

// EC2 deploys on n EC2 m1.xlarge nodes (the paper's 100-node cluster).
func EC2(n int) Option {
	return func(m *Musketeer) { m.cluster = cluster.EC2(n) }
}

// LocalCluster deploys on the paper's dedicated 7-node local cluster.
func LocalCluster(n int) Option {
	return func(m *Musketeer) { m.cluster = cluster.Local(n) }
}

// WithHistory installs an existing workflow-history store.
func WithHistory(h *core.History) Option {
	return func(m *Musketeer) { m.history = h }
}

// ChaosPlan is a deterministic fault-injection plan: whole-job crashes,
// per-task worker failures, slow nodes, and DFS read faults, all drawn from
// a seed. See chaos.Plan for the knobs.
type ChaosPlan = chaos.Plan

// WithChaos installs a fault-injection plan. Every injected fault is a pure
// function of (seed, job, attempt), so two runs with the same seed produce
// identical faults, makespans, and traces regardless of scheduling
// interleavings. Engines recover per their fault-tolerance mechanism
// (Table 3): Hadoop re-runs tasks, Spark recomputes lineage,
// Naiad/PowerGraph roll back to checkpoints, single-machine systems
// restart. The cost estimator adds each engine's expected recovery cost to
// fragment scores, so automatic mapping prefers engines that fail cheaply.
func WithChaos(p *ChaosPlan) Option {
	return func(m *Musketeer) { m.chaos = p }
}

// DefaultChaos is a convenience plan exercising every injection point at
// the given fault rate (expected worker failures per simulated hour), with
// speculative re-execution enabled at 1.5x predicted cost.
func DefaultChaos(seed int64, faultsPerHour float64) *ChaosPlan {
	return chaos.Default(seed, faultsPerHour)
}

// WithConcurrency bounds how many back-end jobs the deployment runs at
// once across every concurrent workflow execution (admission control).
// n <= 0 selects the scheduler default, max(4, GOMAXPROCS).
func WithConcurrency(n int) Option {
	return func(m *Musketeer) { m.workers = n }
}

// WithRetries re-submits jobs killed by transient fault injection up to n
// times each before the failure is propagated (zero disables retry).
func WithRetries(n int) Option {
	return func(m *Musketeer) { m.retries = n }
}

// WithTracing makes every execution record a flight recorder of
// hierarchical spans — workflow, compile/optimize/partition-search,
// analyze, schedule, per-attempt job spans, engine phases, and WHILE
// iterations — exposed on Result.Flight and exportable as Chrome
// trace_event JSON. Tracing is per-run: each execution gets its own
// recorder. Off by default; the disabled path adds zero allocations.
func WithTracing() Option {
	return func(m *Musketeer) { m.tracing = true }
}

// WithRunRetention bounds how many execution digests the deployment
// retains for /debug/runs (default obs.DefaultRunRetention).
func WithRunRetention(n int) Option {
	return func(m *Musketeer) { m.runRetention = n }
}

// WithPlanCache memoizes up to n partitionings across executions, keyed on
// the canonicalized IR (independent of relation names and operator
// insertion order) and the engine set, and pinned to the calibration
// version. A repeated submission of a semantically identical workflow
// skips compile, optimize, and the partition search entirely and replays
// the cached plan onto its own DAG; calibration updates invalidate stale
// entries on lookup. The cache exports plan_cache_{hit,miss,evict}_total
// on the deployment metrics. n <= 0 disables caching (the default).
func WithPlanCache(n int) Option {
	return func(m *Musketeer) { m.planCacheCap = n }
}

// New creates a deployment. Default: the 7-node local cluster, all seven
// engines registered, empty history.
func New(opts ...Option) *Musketeer {
	m := &Musketeer{
		fs:      dfs.New(),
		cluster: cluster.Local(7),
		engines: engines.Registry(),
		history: core.NewHistory(),
		metrics: obs.NewRegistry(),
	}
	for _, o := range opts {
		o(m)
	}
	m.runs = obs.NewRunRegistry(m.runRetention)
	m.planCache = core.NewPlanCache(m.planCacheCap, m.metrics)
	m.sched = sched.New(sched.Options{
		Workers:             m.workers,
		MaxRetries:          m.retries,
		Retryable:           engines.IsTransient,
		Metrics:             m.metrics,
		SpeculativeMultiple: m.chaos.SpecMultiple(),
	})
	return m
}

// Metrics returns the deployment-wide metrics registry: scheduler and
// engine counters and latency histograms accumulated across every
// execution.
func (m *Musketeer) Metrics() *MetricsRegistry { return m.metrics }

// Runs returns the deployment's run registry: bounded digests of the last
// N executions (per-phase rollups, predicted-vs-measured accuracy,
// chaos/recovery counts, chosen engine per fragment).
func (m *Musketeer) Runs() *RunRegistry { return m.runs }

// DebugHandler returns the deployment's debug-plane HTTP handler:
// /metrics (Prometheus text exposition), /debug/runs, /debug/runs/<id>,
// /debug/runs/<id>/trace (Chrome trace JSON, traced runs only), /healthz,
// and the stock /debug/pprof endpoints. Serve it on a private listener
// (`musketeer -debug-addr :6060`) or mount it in tests with httptest.
func (m *Musketeer) DebugHandler() http.Handler {
	return obs.DebugMux(m.metrics, m.runs)
}

// startRun opens a flight recorder for one execution (nil when tracing is
// off — every instrumentation site downstream then no-ops for free).
func (m *Musketeer) startRun() *obs.Recorder {
	if !m.tracing {
		return nil
	}
	return obs.NewRecorder()
}

// WriteInput stages a relation in the shared DFS.
func (m *Musketeer) WriteInput(path string, rel *Relation) error {
	return m.fs.WriteRelation(path, rel)
}

// ReadOutput fetches a workflow output relation from the DFS.
func (m *Musketeer) ReadOutput(name string) (*Relation, error) {
	return m.fs.ReadRelation(name)
}

// History returns the deployment's workflow-history store.
func (m *Musketeer) History() *core.History { return m.history }

// Calibration returns the deployment's feedback calibration state: the
// per-engine rates and per-operator-class selectivities learned from
// executed workflows, consulted by the cost model on every estimate. It
// lives on (and persists with) the history store.
func (m *Musketeer) Calibration() *Calibration { return m.history.Calibration() }

// EngineNames lists the registered back-ends.
func (m *Musketeer) EngineNames() []string {
	var names []string
	for n := range m.engines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Workflow is a compiled workflow bound to a deployment. A compiled
// workflow may be executed from several goroutines at once: the IR is
// optimized exactly once, executions never mutate the shared DAG, and each
// gets its own DFS session namespace.
type Workflow struct {
	m   *Musketeer
	dag *ir.DAG
	// Mode selects generated-code quality (default ModeOptimized).
	Mode PlanMode

	// tenant scopes every execution's DFS session under the named tenant's
	// namespace ("" = the deployment root; see BindTenant).
	tenant string

	optOnce sync.Once
	optN    int
	// compileWall is how long front-end translation took; traced
	// executions replay it as a "compile" span (compilation happens before
	// any per-run recorder exists).
	compileWall time.Duration
}

// newWorkflow wraps a freshly compiled DAG, recording the front-end
// translation time and the deployment's compile counter.
func (m *Musketeer) newWorkflow(dag *ir.DAG, compileStart time.Time) *Workflow {
	m.metrics.Counter("workflows_compiled_total").Add(1)
	return &Workflow{m: m, dag: dag, compileWall: time.Since(compileStart)}
}

// ErrUnknownFrontend is wrapped by Compile's error for a front-end name it
// does not know.
var ErrUnknownFrontend = errors.New("musketeer: unknown front-end")

// Compile translates src with the named front-end: hive, beer, pig or gas.
// gasCfg configures the GAS front-end and is ignored by the others; nil
// leaves its table names empty.
func (m *Musketeer) Compile(frontend, src string, cat Catalog, gasCfg *GASConfig) (*Workflow, error) {
	switch frontend {
	case "hive":
		return m.CompileHive(src, cat)
	case "beer":
		return m.CompileBEER(src, cat)
	case "pig":
		return m.CompilePig(src, cat)
	case "gas":
		var cfg GASConfig
		if gasCfg != nil {
			cfg = *gasCfg
		}
		return m.CompileGAS(src, cat, cfg)
	}
	return nil, fmt.Errorf("%w %q (want hive, beer, pig or gas)", ErrUnknownFrontend, frontend)
}

// CompileHive translates a HiveQL-subset workflow.
func (m *Musketeer) CompileHive(src string, cat Catalog) (*Workflow, error) {
	start := time.Now()
	dag, err := hive.Parse(src, cat)
	if err != nil {
		return nil, err
	}
	return m.newWorkflow(dag, start), nil
}

// CompileBEER translates a BEER workflow.
func (m *Musketeer) CompileBEER(src string, cat Catalog) (*Workflow, error) {
	start := time.Now()
	dag, err := beer.Parse(src, cat)
	if err != nil {
		return nil, err
	}
	return m.newWorkflow(dag, start), nil
}

// CompileGAS translates a Gather-Apply-Scatter program.
func (m *Musketeer) CompileGAS(src string, cat Catalog, cfg GASConfig) (*Workflow, error) {
	start := time.Now()
	dag, err := gas.Parse(src, cat, cfg)
	if err != nil {
		return nil, err
	}
	return m.newWorkflow(dag, start), nil
}

// CompilePig translates a Pig Latin-subset workflow.
func (m *Musketeer) CompilePig(src string, cat Catalog) (*Workflow, error) {
	start := time.Now()
	dag, err := pig.Parse(src, cat)
	if err != nil {
		return nil, err
	}
	return m.newWorkflow(dag, start), nil
}

// CompileLindi finalizes a Lindi builder into a workflow.
func (m *Musketeer) CompileLindi(b *LindiBuilder) (*Workflow, error) {
	start := time.Now()
	dag, err := b.Build()
	if err != nil {
		return nil, err
	}
	return m.newWorkflow(dag, start), nil
}

// FromDAG wraps a hand-built IR DAG (validating it first).
func (m *Musketeer) FromDAG(dag *ir.DAG) (*Workflow, error) {
	start := time.Now()
	if err := dag.Validate(); err != nil {
		return nil, err
	}
	return m.newWorkflow(dag, start), nil
}

// DAG exposes the workflow's intermediate representation.
func (w *Workflow) DAG() *ir.DAG { return w.dag }

// BindTenant scopes the workflow's executions to the named tenant: inputs
// resolve from, and outputs publish to, the tenant's private DFS namespace
// instead of the deployment root. The name must be a valid namespace
// segment (dfs.ValidateName). Bind before the first execution.
func (w *Workflow) BindTenant(name string) error {
	if err := dfs.ValidateName(name); err != nil {
		return err
	}
	w.tenant = name
	return nil
}

// sessionFS is the DFS view the workflow's executions resolve against: the
// deployment root, or the bound tenant's namespace.
func (w *Workflow) sessionFS() *dfs.DFS {
	if w.tenant == "" {
		return w.m.fs
	}
	return w.m.fs.Namespace(dfs.TenantRoot + "/" + w.tenant)
}

// TenantFS returns a DFS view scoped to the named tenant's namespace, for
// staging inputs and reading outputs on a tenant's behalf (the serve API's
// storage plane). The name is validated first.
func (m *Musketeer) TenantFS(name string) (*dfs.DFS, error) {
	return m.fs.TenantView(name)
}

// Report is the workflow analyzer's full diagnostic report.
type Report = analysis.Report

// Check runs the multi-pass workflow analyzer against the deployment's
// registered engines and returns the full report — warnings included.
// Compilation already fails on error-severity diagnostics; Check is how
// callers (and the `musketeer check` subcommand) surface the rest: dead
// operators, suspicious loops, redundant shuffles.
func (w *Workflow) Check() *Report {
	return analysis.AnalyzeWithEngines(w.dag, w.standardEngines())
}

// Optimize applies the IR rewrite rules; returns the number of rewrites.
// The rules run once per workflow — repeated (or concurrent) calls return
// the first invocation's count without touching the DAG again.
func (w *Workflow) Optimize() int {
	w.optOnce.Do(func() { w.optN = core.Optimize(w.dag) })
	return w.optN
}

// estimator builds a fresh estimator against the staged inputs. When a
// chaos plan is installed, fragment scores include each engine's expected
// fault-recovery cost, so automatic mapping reacts to the fault rate.
func (w *Workflow) estimator(id *ir.Identity) (*core.Estimator, error) {
	est, err := core.NewEstimator(id, w.sessionFS(), w.m.cluster, w.m.history)
	if err != nil {
		return nil, err
	}
	return est.WithChaos(w.m.chaos), nil
}

// Estimator builds a fresh cost estimator over the workflow's staged inputs,
// the deployment's cluster, history and chaos plan — the one every plan of
// this workflow is priced with — for callers that build a partitioning of
// their own and execute it with Run. An estimator is not safe to share
// between goroutines.
func (w *Workflow) Estimator() (*Estimator, error) {
	return w.estimator(ir.Identify(w.dag))
}

// Plan partitions the workflow and picks back-ends automatically
// (paper §5.2): the cheapest feasible partitioning over all engines
// Musketeer generates code for.
func (w *Workflow) Plan() (*Partitioning, error) {
	return w.planTraced(nil, nil, w.standardEngines(), ir.Identify(w.dag))
}

// PlanFor partitions the workflow for one explicitly chosen back-end.
func (w *Workflow) PlanFor(engine string) (*Partitioning, error) {
	engs, err := w.planEngines(engine)
	if err != nil {
		return nil, err
	}
	return w.planTraced(nil, nil, engs, ir.Identify(w.dag))
}

// recordSearch publishes the partition search's work — candidate fragments
// scored versus memo-table hits — to the deployment metrics and, when
// tracing, the search span.
func (w *Workflow) recordSearch(est *core.Estimator, sp *obs.Span) {
	explored, hits := est.SearchStats()
	w.m.metrics.Counter("partition_candidates_explored_total").Add(explored)
	w.m.metrics.Counter("partition_memo_hits_total").Add(hits)
	sp.SetInt("candidates_explored", explored)
	sp.SetInt("memo_hits", hits)
}

// planTraced runs the partition search over the candidate engines under a
// "partition-search" span.
func (w *Workflow) planTraced(rec *obs.Recorder, parent *obs.Span, engs []*engines.Engine, id *ir.Identity) (*Partitioning, error) {
	sp := rec.StartSpan(parent, "partition-search", "pipeline")
	defer sp.End()
	est, err := w.estimator(id)
	if err != nil {
		return nil, err
	}
	part, err := core.AutoMap(w.dag, est, engs)
	if err != nil {
		return nil, err
	}
	sp.SetInt("jobs", int64(len(part.Jobs)))
	w.recordSearch(est, sp)
	return part, nil
}

// PlanUnmerged builds the per-operator (merging disabled) partitioning for
// a back-end — the paper's §6.5 ablation and profiling mode.
func (w *Workflow) PlanUnmerged(engine string) (*Partitioning, error) {
	engs, err := w.planEngines(engine)
	if err != nil {
		return nil, err
	}
	est, err := w.Estimator()
	if err != nil {
		return nil, err
	}
	return core.PerOperatorPartitioning(w.dag, est, engs[0])
}

func (w *Workflow) standardEngines() []*engines.Engine {
	var engs []*engines.Engine
	for _, e := range engines.StandardEngines() {
		if reg, ok := w.m.engines[e.Name()]; ok {
			engs = append(engs, reg)
		}
	}
	return engs
}

// Result reports one workflow execution.
type Result struct {
	// Makespan is the simulated end-to-end time (critical path).
	Makespan Seconds
	// SumJobTime is aggregate per-job time (resource-efficiency metric).
	SumJobTime Seconds
	// Jobs are the individual back-end job executions.
	Jobs []*engines.RunResult
	// OOM reports a memory-capacity blowout on some job.
	OOM bool
	// Partitioning is the plan that ran.
	Partitioning *Partitioning
	// Namespace is the execution's DFS session prefix; intermediates and
	// loop temporaries live under it. Workflow outputs are additionally
	// published to the deployment root for ReadOutput.
	Namespace string
	// Flight is the execution's span recorder — nil unless the deployment
	// was built WithTracing. Export with Flight.WriteChromeTrace.
	Flight *FlightRecorder
	// Accuracy compares the planner's predicted per-job costs and critical
	// path against what this execution measured.
	Accuracy *WorkflowAccuracy
	// RunID addresses this execution's digest in the deployment's run
	// registry (Runs, /debug/runs/<id>).
	RunID string
	// PlanCacheHit reports that the execution replayed a cached plan
	// instead of compiling, optimizing, and searching (see WithPlanCache).
	PlanCacheHit bool
}

// Run executes a previously computed partitioning with no cancellation
// deadline.
func (w *Workflow) Run(part *Partitioning) (*Result, error) {
	return w.RunCtx(context.Background(), part)
}

// RunCtx executes a previously computed partitioning inside a fresh
// execution session: a private DFS namespace holding the run's
// intermediates, outputs, and loop temporaries, so concurrent executions
// of the same (or different) workflows never collide. Inputs are linked
// into the session (metadata only, no data movement) and the workflow's
// sink relations are published back to the deployment root on success.
// Cancelling ctx aborts in-flight jobs and skips queued ones.
func (w *Workflow) RunCtx(ctx context.Context, part *Partitioning) (*Result, error) {
	rec := w.m.startRun()
	root := rec.StartSpan(nil, "workflow", "pipeline")
	defer root.End()
	return w.runSession(ctx, part, ir.Identify(w.dag), rec, root)
}

// workflowName labels an execution by its sink relations.
func (w *Workflow) workflowName() string {
	var sinks []string
	for _, s := range w.dag.Sinks() {
		sinks = append(sinks, s.Out)
	}
	sort.Strings(sinks)
	return strings.Join(sinks, ",")
}

// runSession executes a partitioning inside a fresh DFS session namespace
// beneath an (optional) workflow root span. Every execution — success or
// failure — leaves a digest in the deployment's run registry.
func (w *Workflow) runSession(ctx context.Context, part *Partitioning, id *ir.Identity, rec *obs.Recorder, root *obs.Span) (*Result, error) {
	base := w.sessionFS()
	ns := fmt.Sprintf("__run/%d", w.m.runSeq.Add(1))
	// nsFull is the namespace as seen from the deployment root; for tenant
	// sessions it carries the tenant prefix ("" tenant leaves it as ns, so
	// untenanted traces and digests are unchanged).
	nsFull := ns
	if p := base.Prefix(); p != "" {
		nsFull = p + "/" + ns
	}
	root.SetStr("namespace", nsFull)
	name := w.workflowName()
	start := time.Now()
	digest := func(status string, res *core.WorkflowResult, runErr error) string {
		d := obs.RunDigest{
			Workflow:  name,
			Namespace: nsFull,
			Tenant:    w.tenant,
			Start:     start,
			WallMS:    time.Since(start).Seconds() * 1e3,
			Status:    status,
			Phases:    obs.PhaseRates(rec),
		}
		if runErr != nil {
			d.Err = runErr.Error()
		}
		if res != nil {
			d.MakespanS = float64(res.Makespan)
			d.OOM = res.OOM
			if res.Accuracy != nil {
				d.PredictedS = res.Accuracy.PredictedMakespanS
				d.MakespanError = res.Accuracy.MakespanError
				d.Jobs = res.Accuracy.Jobs
			}
			for _, jr := range res.Jobs {
				d.Faults += jr.Failures
				d.RecoveryS += float64(jr.Recovery)
				d.Checkpoints += jr.Checkpoints
				d.DFSRetries += jr.DFSRetries
			}
		}
		return w.m.runs.Record(d, rec)
	}
	for _, op := range w.dag.Ops {
		if op.Type != ir.OpInput {
			continue
		}
		path := engines.InputPath(op)
		if err := base.Copy(path, ns+"/"+path); err != nil {
			err = fmt.Errorf("musketeer: staging input %q into session: %w", op.Out, err)
			w.m.metrics.Counter("workflows_failed_total").Add(1)
			digest("failed", nil, err)
			return nil, err
		}
	}
	r := &core.Runner{
		Ctx:     engines.RunContext{DFS: base.Namespace(ns), Cluster: w.m.cluster, Chaos: w.m.chaos},
		History: w.m.history,
		Mode:    w.Mode,
		Sched:   w.m.sched,
		Rec:     rec,
		Span:    root,
		Metrics: w.m.metrics,
	}
	res, err := r.ExecuteCtx(ctx, id, part)
	if err != nil {
		w.m.metrics.Counter("workflows_failed_total").Add(1)
		digest("failed", nil, err)
		return nil, err
	}
	for _, sink := range w.dag.Sinks() {
		if err := base.Copy(ns+"/"+sink.Out, sink.Out); err != nil {
			err = fmt.Errorf("musketeer: publishing output %q: %w", sink.Out, err)
			w.m.metrics.Counter("workflows_failed_total").Add(1)
			digest("failed", res, err)
			return nil, err
		}
	}
	w.m.metrics.Counter("workflows_completed_total").Add(1)
	runID := digest("ok", res, nil)
	return &Result{
		Makespan:     res.Makespan,
		SumJobTime:   res.SumJobTime,
		Jobs:         res.Jobs,
		OOM:          res.OOM,
		Partitioning: part,
		Namespace:    nsFull,
		Flight:       rec,
		Accuracy:     res.Accuracy,
		RunID:        runID,
	}, nil
}

// Execute optimizes, auto-plans and runs the workflow.
func (w *Workflow) Execute() (*Result, error) {
	return w.ExecuteCtx(context.Background())
}

// ExecuteCtx optimizes, auto-plans and runs the workflow under ctx.
func (w *Workflow) ExecuteCtx(ctx context.Context) (*Result, error) {
	return w.executeTraced(ctx, w.standardEngines())
}

// ExecuteOn optimizes, plans for one engine, and runs.
func (w *Workflow) ExecuteOn(engine string) (*Result, error) {
	return w.ExecuteOnCtx(context.Background(), engine)
}

// ExecuteOnCtx optimizes, plans for one engine, and runs under ctx.
func (w *Workflow) ExecuteOnCtx(ctx context.Context, engine string) (*Result, error) {
	engs, err := w.planEngines(engine)
	if err != nil {
		return nil, err
	}
	return w.executeTraced(ctx, engs)
}

// planEngines resolves a back-end name to a one-engine candidate set. It is
// the only place a name is resolved; "" names no engine (auto-mapping
// callers pass standardEngines instead).
func (w *Workflow) planEngines(engine string) ([]*engines.Engine, error) {
	eng, ok := w.m.engines[engine]
	if !ok {
		return nil, fmt.Errorf("musketeer: unknown engine %q", engine)
	}
	return []*engines.Engine{eng}, nil
}

// executeTraced is the full traced pipeline: compile (replayed from the
// front-end's measured translation time), optimize, partition-search, then
// the session run, over the given candidate engines.
//
// With a plan cache installed, the optimized DAG's canonical hash is
// checked first: a hit replays the cached partitioning and runs it under a
// bare workflow span — no compile, optimize, or partition-search spans, as
// those phases genuinely did not happen — while a miss runs the full
// pipeline and stores the freshly searched plan for the next submission.
//
// Entries are tagged with the calibration version read *after* the run:
// execution feedback (ObserveRun/ObserveSelectivity) bumps the version
// during every session, so a pre-run tag would be stale the moment the run
// finished and the cache would never hit. Tagging post-run — and
// re-tagging after each hit's run — pins the entry to "calibration has not
// changed since this plan last ran", which only foreign feedback (another
// workflow's run, a calibration load) breaks.
func (w *Workflow) executeTraced(ctx context.Context, engs []*engines.Engine) (*Result, error) {
	// The DAG is identified once per submission, after Optimize: the plan
	// cache, the estimator and the runner all key on that one Identity.
	var id *ir.Identity
	var cacheKey core.PlanID
	pc := w.m.planCache
	if pc != nil {
		// Optimize is deterministic and idempotent (optOnce), so hashing the
		// optimized DAG keys the cache on what the partition search actually
		// sees; recipes then replay onto optimized DAGs of later submissions.
		w.Optimize()
		id = ir.Identify(w.dag)
		cacheKey = core.PlanKeyOf(id, engs)
		calVersion := w.m.history.Calibration().Version()
		if part, ok := pc.Lookup(cacheKey, w.dag, calVersion, w.m.engines); ok {
			rec := w.m.startRun()
			root := rec.StartSpan(nil, "workflow", "pipeline")
			defer root.End()
			root.SetStr("plan_cache", "hit")
			res, err := w.runSession(ctx, part, id, rec, root)
			if res != nil {
				res.PlanCacheHit = true
			}
			if err == nil {
				pc.Touch(cacheKey, w.m.history.Calibration().Version())
			}
			return res, err
		}
	}
	rec := w.m.startRun()
	root := rec.StartSpan(nil, "workflow", "pipeline")
	defer root.End()
	// Compilation happened before this recorder existed; record it as a
	// zero-width structural span carrying the measured wall time.
	csp := rec.StartSpan(root, "compile", "pipeline")
	csp.SetFloat("wall_ms", w.compileWall.Seconds()*1e3)
	csp.End()
	osp := rec.StartSpan(root, "optimize", "pipeline")
	n := w.Optimize()
	osp.SetInt("rewrites", int64(n))
	osp.End()
	if id == nil {
		id = ir.Identify(w.dag)
	}
	part, err := w.planTraced(rec, root, engs, id)
	if err != nil {
		return nil, err
	}
	res, err := w.runSession(ctx, part, id, rec, root)
	if err == nil {
		pc.Store(cacheKey, w.dag, w.m.history.Calibration().Version(), part)
	}
	return res, err
}

// Explain renders the partitioning with the cost model's reasoning: per
// job, the estimated data volumes, iteration counts, the per-engine cost
// comparison that led to the choice and, once anything has been learned,
// what a first-run planner would have chosen instead.
func (w *Workflow) Explain(part *Partitioning) (string, error) {
	est, err := w.Estimator()
	if err != nil {
		return "", err
	}
	return core.Explain(part, est, w.standardEngines()), nil
}

// GeneratedCode renders the code Musketeer generates for every job of a
// partitioning, in the target engines' languages (paper §4.3).
func (w *Workflow) GeneratedCode(part *Partitioning) (string, error) {
	var b strings.Builder
	for i, job := range part.Jobs {
		plan, err := job.Engine.Plan(job.Frag, w.Mode)
		if err != nil {
			return "", err
		}
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(plan.Source())
	}
	return b.String(), nil
}
