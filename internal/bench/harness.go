// Package bench regenerates every table and figure of the paper's
// evaluation (§2 and §6). Each experiment stages a workload, runs it
// through the full Musketeer pipeline (front-end → IR → partitioning →
// code generation → simulated engines), and prints the same series the
// paper plots, alongside the paper's qualitative expectation.
//
// Makespans are simulated seconds from the engines' calibrated profiles;
// Fig 13 (partitioning runtime) is real wall-clock time of the partitioning
// algorithms. EXPERIMENTS.md records paper-vs-measured for every
// experiment.
package bench

import (
	"fmt"
	"io"
	"math"
	"strings"

	"musketeer/internal/chaos"
	"musketeer/internal/cluster"
	"musketeer/internal/core"
	"musketeer/internal/dfs"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
	"musketeer/internal/obs"
	"musketeer/internal/sched"
	"musketeer/internal/workloads"
)

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a free-form note (paper expectation, caveats).
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(w)
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment regenerates one paper table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Table, error)
}

// RunResult is one measured workflow execution.
type RunResult struct {
	Makespan   cluster.Seconds
	SumJobTime cluster.Seconds
	Jobs       int
	OOM        bool
	Failures   int
	Engines    []string
	// Checkpoints / Stragglers / DFSRetries aggregate the chaos plan's
	// injected faults across the run's jobs.
	Checkpoints int
	Stragglers  int
	DFSRetries  int
	// Accuracy is the execution's predicted-vs-measured makespan record.
	Accuracy *obs.WorkflowAccuracy
}

// secs renders a simulated duration for a table cell.
func secs(s cluster.Seconds) string {
	f := float64(s)
	switch {
	case math.IsInf(f, 1):
		return "inf"
	case f >= 100:
		return fmt.Sprintf("%.0fs", f)
	default:
		return fmt.Sprintf("%.1fs", f)
	}
}

// pct renders a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%+.0f%%", 100*x) }

// session stages a workload onto a fresh deployment.
type session struct {
	fs  *dfs.DFS
	c   *cluster.Cluster
	w   *workloads.Workload
	h   *core.History
	reg map[string]*engines.Engine
	// chaos, when set, injects the plan's faults into the run and adds the
	// expected-recovery term to the planner's fragment scores.
	chaos *chaos.Plan
	// sched, when set, replaces the default scheduler (chaos runs need a
	// retry budget and speculation); metrics, when set, collects counters.
	sched   *sched.Scheduler
	metrics *obs.Registry
}

func newSession(w *workloads.Workload, c *cluster.Cluster) (*session, error) {
	s := &session{fs: dfs.New(), c: c, w: w, h: core.NewHistory(), reg: engines.Registry()}
	if err := w.Stage(s.fs); err != nil {
		return nil, err
	}
	return s, nil
}

// execute runs the workload under the given partitioning strategy.
// strategy receives a fresh estimator and must return a partitioning.
func (s *session) execute(mode engines.PlanMode, strategy func(est *core.Estimator, dag *ir.DAG) (*core.Partitioning, error)) (*RunResult, error) {
	dag, err := s.w.Build()
	if err != nil {
		return nil, err
	}
	core.Optimize(dag)
	est, err := core.NewEstimator(ir.Identify(dag), s.fs, s.c, s.h)
	if err != nil {
		return nil, err
	}
	est.WithChaos(s.chaos)
	part, err := strategy(est, dag)
	if err != nil {
		return nil, err
	}
	r := &core.Runner{
		Ctx:     engines.RunContext{DFS: s.fs, Cluster: s.c, Chaos: s.chaos},
		History: s.h, Mode: mode,
		Sched: s.sched, Metrics: s.metrics,
	}
	res, err := r.Execute(ir.Identify(dag), part)
	if err != nil {
		return nil, err
	}
	out := &RunResult{
		Makespan: res.Makespan, SumJobTime: res.SumJobTime,
		Jobs: len(res.Jobs), OOM: res.OOM,
		Engines:  part.Engines(),
		Accuracy: res.Accuracy,
	}
	for _, jr := range res.Jobs {
		out.Failures += jr.Failures
		out.Checkpoints += jr.Checkpoints
		out.DFSRetries += jr.DFSRetries
		if jr.Straggler {
			out.Stragglers++
		}
	}
	return out, nil
}

// runOn executes the workload mapped entirely onto one engine.
func runOn(w *workloads.Workload, c *cluster.Cluster, engine string, mode engines.PlanMode) (*RunResult, error) {
	s, err := newSession(w, c)
	if err != nil {
		return nil, err
	}
	eng, ok := s.reg[engine]
	if !ok {
		return nil, fmt.Errorf("bench: unknown engine %q", engine)
	}
	return s.execute(mode, func(est *core.Estimator, dag *ir.DAG) (*core.Partitioning, error) {
		return core.MapTo(dag, est, eng)
	})
}

// runAuto executes the workload with automatic mapping over an engine set
// (nil = the seven standard engines).
func runAuto(w *workloads.Workload, c *cluster.Cluster, engineNames []string, mode engines.PlanMode, h *core.History) (*RunResult, error) {
	s, err := newSession(w, c)
	if err != nil {
		return nil, err
	}
	if h != nil {
		s.h = h
	}
	engs, err := s.resolve(engineNames)
	if err != nil {
		return nil, err
	}
	return s.execute(mode, func(est *core.Estimator, dag *ir.DAG) (*core.Partitioning, error) {
		return core.AutoMap(dag, est, engs)
	})
}

// runUnmerged executes with operator merging disabled (one job per
// operator) on one engine — the Fig 12 ablation.
func runUnmerged(w *workloads.Workload, c *cluster.Cluster, engine string, mode engines.PlanMode) (*RunResult, error) {
	s, err := newSession(w, c)
	if err != nil {
		return nil, err
	}
	eng := s.reg[engine]
	if eng == nil {
		return nil, fmt.Errorf("bench: unknown engine %q", engine)
	}
	return s.execute(mode, func(est *core.Estimator, dag *ir.DAG) (*core.Partitioning, error) {
		return core.PerOperatorPartitioning(dag, est, eng)
	})
}

// runCombo executes a hybrid workflow with the batch phase on one engine
// and every iterative (WHILE) fragment forced onto a graph engine — the
// fixed combinations of Fig 9.
func runCombo(w *workloads.Workload, c *cluster.Cluster, batch, graph string) (*RunResult, error) {
	s, err := newSession(w, c)
	if err != nil {
		return nil, err
	}
	be, ge := s.reg[batch], s.reg[graph]
	if be == nil || ge == nil {
		return nil, fmt.Errorf("bench: unknown engines %q/%q", batch, graph)
	}
	return s.execute(engines.ModeOptimized, func(est *core.Estimator, dag *ir.DAG) (*core.Partitioning, error) {
		// Let the mapper explore the pair; if it declines the graph
		// engine, force it onto the iterative fragment (the paper fixed
		// these combinations by hand).
		part, err := core.AutoMap(dag, est, []*engines.Engine{be, ge})
		if err != nil {
			return nil, err
		}
		usesGraph := false
		for _, j := range part.Jobs {
			if j.Engine == ge {
				usesGraph = true
			}
		}
		if !usesGraph {
			part, err = core.MapTo(dag, est, be)
			if err != nil {
				return nil, err
			}
			for i := range part.Jobs {
				if part.Jobs[i].Frag.While() != nil && ge.ValidFragment(part.Jobs[i].Frag) == nil {
					part.Jobs[i].Engine = ge
					part.Jobs[i].Cost = est.FragmentCost(part.Jobs[i].Frag, ge)
				}
			}
		}
		return part, nil
	})
}

func (s *session) resolve(names []string) ([]*engines.Engine, error) {
	if names == nil {
		return engines.StandardEngines(), nil
	}
	var engs []*engines.Engine
	for _, n := range names {
		e, ok := s.reg[n]
		if !ok {
			return nil, fmt.Errorf("bench: unknown engine %q", n)
		}
		engs = append(engs, e)
	}
	return engs, nil
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		Fig2aProject(), Fig2bJoin(),
		Fig3PageRankMotivation(),
		Fig7TPCH(),
		Fig8PageRank(), Fig8cEfficiency(),
		Fig9CrossCommunity(),
		Fig10NetflixOverhead(), Fig11PageRankOverhead(),
		Fig12aMerging(), Fig12bMerging(),
		Fig13Partitioning(),
		Fig14MappingQuality(),
		Fig16Heuristic(),
		Tab3Features(),
		ExtFaults(),
		Fig15SSSPKMeans(),
		Tab1Calibration(),
		Sec7StudentJoin(),
	}
}

// wholeFragment wraps all of a DAG's operators into one fragment.
func wholeFragment(dag *ir.DAG) (*ir.Fragment, error) {
	return ir.NewFragment(dag, dag.Ops)
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}
