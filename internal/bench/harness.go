// Package bench regenerates every table and figure of the paper's
// evaluation (§2 and §6). Each experiment stages a workload on a fresh
// musketeer deployment, runs it through musketeer.Workflow — the run path
// every user workflow takes (IR → optimize → partitioning → code
// generation → simulated engines) — and prints the same series the paper
// plots, alongside the paper's qualitative expectation.
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
	"slices"
	"strings"

	"musketeer"
	"musketeer/internal/cluster"
	"musketeer/internal/core"
	"musketeer/internal/engines"
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

// stage writes the workload's inputs into a fresh deployment and wraps the
// workload's DAG as a workflow generating code in mode.
func stage(m *musketeer.Musketeer, w *workloads.Workload, mode engines.PlanMode) (*musketeer.Workflow, error) {
	for path, rel := range w.Inputs {
		if err := m.WriteInput(path, rel); err != nil {
			return nil, fmt.Errorf("bench: stage %s: %w", w.Name, err)
		}
	}
	dag, err := w.Build()
	if err != nil {
		return nil, err
	}
	wf, err := m.FromDAG(dag)
	if err != nil {
		return nil, err
	}
	wf.Mode = mode
	return wf, nil
}

// runOn executes the workload mapped entirely onto one engine.
func runOn(w *workloads.Workload, engine string, mode engines.PlanMode, opts ...musketeer.Option) (*musketeer.Result, error) {
	wf, err := stage(musketeer.New(opts...), w, mode)
	if err != nil {
		return nil, err
	}
	return wf.ExecuteOn(engine)
}

// runAuto executes the workload with automatic mapping over the seven
// standard engines.
func runAuto(w *workloads.Workload, opts ...musketeer.Option) (*musketeer.Result, error) {
	wf, err := stage(musketeer.New(opts...), w, engines.ModeOptimized)
	if err != nil {
		return nil, err
	}
	return wf.Execute()
}

// runUnmerged executes with operator merging disabled (one job per
// operator) on one engine — the Fig 12 ablation, and the operator-by-
// operator profiling run of §6.7.
func runUnmerged(w *workloads.Workload, engine string, mode engines.PlanMode, opts ...musketeer.Option) (*musketeer.Result, error) {
	wf, err := stage(musketeer.New(opts...), w, mode)
	if err != nil {
		return nil, err
	}
	wf.Optimize()
	part, err := wf.PlanUnmerged(engine)
	if err != nil {
		return nil, err
	}
	return wf.Run(part)
}

// runCombo executes a hybrid workflow with the batch phase on one engine
// and every iterative (WHILE) fragment forced onto a graph engine — the
// fixed combinations of Fig 9.
func runCombo(w *workloads.Workload, batch, graph string, opts ...musketeer.Option) (*musketeer.Result, error) {
	reg := engines.Registry()
	be, ge := reg[batch], reg[graph]
	if be == nil || ge == nil {
		return nil, fmt.Errorf("bench: unknown engines %q/%q", batch, graph)
	}
	wf, err := stage(musketeer.New(opts...), w, engines.ModeOptimized)
	if err != nil {
		return nil, err
	}
	wf.Optimize()
	est, err := wf.Estimator()
	if err != nil {
		return nil, err
	}
	// Let the mapper explore the pair; if it declines the graph engine,
	// force it onto the iterative fragment (the paper fixed these
	// combinations by hand).
	part, err := core.AutoMap(wf.DAG(), est, []*engines.Engine{be, ge})
	if err != nil {
		return nil, err
	}
	if !slices.Contains(part.Engines(), graph) {
		part, err = wf.PlanFor(batch)
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
	return wf.Run(part)
}

// faultCounts are the injected faults one execution recovered from,
// summed over its jobs.
type faultCounts struct {
	failures, checkpoints, stragglers, dfsRetries int
}

func faults(res *musketeer.Result) faultCounts {
	var f faultCounts
	for _, jr := range res.Jobs {
		f.failures += jr.Failures
		f.checkpoints += jr.Checkpoints
		f.dfsRetries += jr.DFSRetries
		if jr.Straggler {
			f.stragglers++
		}
	}
	return f
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

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}
