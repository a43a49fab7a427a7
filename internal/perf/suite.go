package perf

import (
	"context"
	"fmt"
	"io"
	"math"
)

// SuiteResult holds, per workload, the timed run's and the traced pass's
// reports.
type SuiteResult struct {
	Timed, Traced map[string]*Report
}

// Suite runs every workload timed and then traced, and prints every
// end-to-end and per-layer metric by name with its unit, one column per
// workload. It returns an error when any operation failed or any output
// differed from its reference.
func Suite(ctx context.Context, o Options, w io.Writer) (*SuiteResult, error) {
	res := &SuiteResult{Timed: map[string]*Report{}, Traced: map[string]*Report{}}
	failed := 0
	if o.Log == nil {
		o.Log = io.Discard
	}
	for _, name := range Workloads {
		for _, traced := range []bool{false, true} {
			ro := o
			ro.Workload, ro.Trace = name, traced
			if traced && o.TraceOut != "" {
				ro.TraceOut = fmt.Sprintf("%s.%s.json", o.TraceOut, name)
			} else {
				ro.TraceOut = ""
			}
			fmt.Fprintf(o.Log, "mkperf: %s (traced=%v) …\n", name, traced)
			rep, err := Run(ctx, ro)
			if err != nil {
				return nil, err
			}
			failed += rep.Failed
			if traced {
				res.Traced[name] = rep
			} else {
				res.Timed[name] = rep
			}
		}
	}
	printTable(w, "End-to-end (tracing off)", EndToEnd, res.Timed)
	fmt.Fprintf(w, "%-36s %-6s", "latency samples", "count")
	for _, name := range Workloads {
		fmt.Fprintf(w, " %18d", res.Timed[name].Samples)
	}
	fmt.Fprintf(w, "\n%-36s %-6s", "failed / attempted", "count")
	for _, name := range Workloads {
		fmt.Fprintf(w, " %18s", fmt.Sprintf("%d/%d", res.Timed[name].Failed, res.Timed[name].Attempted))
	}
	fmt.Fprintln(w)
	printTable(w, "Per-layer (traced pass)", PerLayer, res.Traced)
	if failed > 0 {
		return res, fmt.Errorf("%d operations failed or differed from their reference", failed)
	}
	return res, nil
}

func printTable(w io.Writer, title string, defs []MetricDef, reports map[string]*Report) {
	fmt.Fprintf(w, "\n%s\n%-36s %-6s", title, "metric", "unit")
	for _, name := range Workloads {
		fmt.Fprintf(w, " %18s", name)
	}
	fmt.Fprintln(w)
	for _, d := range defs {
		fmt.Fprintf(w, "%-36s %-6s", d.Name, d.Unit)
		for _, name := range Workloads {
			fmt.Fprintf(w, " %18.6g", reports[name].Metrics[d.Name])
		}
		fmt.Fprintln(w)
	}
}

// worse is by how much b is worse than a, as a share of a, for a metric
// whose better direction is given.
func worse(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// Agree runs the suite's timed runs twice and prints, per workload and
// end-to-end metric, both values, their relative difference and the bound.
// It returns an error when any difference exceeds its bound in either
// direction: two runs of the same code have no better and worse side.
func Agree(ctx context.Context, o Options, w io.Writer) error {
	if o.Log == nil {
		o.Log = io.Discard
	}
	var runs [2]map[string]*Report
	for i := range runs {
		runs[i] = map[string]*Report{}
		for _, name := range Workloads {
			ro := o
			ro.Workload, ro.TraceOut = name, ""
			fmt.Fprintf(o.Log, "mkperf: agree run %d: %s …\n", i+1, name)
			rep, err := Run(ctx, ro)
			if err != nil {
				return err
			}
			if !rep.Correct() {
				return fmt.Errorf("%s: %d of %d operations failed or differed from their reference", name, rep.Failed, rep.Attempted)
			}
			runs[i][name] = rep
		}
	}
	fmt.Fprintf(w, "%-18s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	over := 0
	for _, name := range Workloads {
		for _, d := range EndToEnd {
			a, b := runs[0][name].Metrics[d.Name], runs[1][name].Metrics[d.Name]
			diff := math.Abs(worse(a, b, d.Better))
			mark := ""
			if diff > d.Bound {
				mark = "  EXCEEDS"
				over++
			}
			fmt.Fprintf(w, "%-18s %-20s %14.6g %14.6g %8.2f%% %6.1f%%%s\n", name, d.Name, a, b, 100*diff, 100*d.Bound, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d end-to-end metrics differ between two runs of the same code by more than their bound", over)
	}
	return nil
}

// CheckDeterminism generates and runs every workload twice with the same
// seed and compares what must not depend on timing: input digests, the
// arrival schedule, operator and job counts exactly, and sim_makespan_s
// within its bound (README "Known blind spots" says why not exactly).
func CheckDeterminism(ctx context.Context, o Options, w io.Writer) error {
	bad := 0
	check := func(name, what string, a, b any, same bool) {
		verdict := "same"
		if !same {
			verdict = "DIFFERS"
			bad++
		}
		fmt.Fprintf(w, "%-18s %-26s %-8s %v | %v\n", name, what, verdict, a, b)
	}
	short := func(s string) string { return s[:min(len(s), 12)] }
	var simBound float64
	for _, d := range EndToEnd {
		if d.Name == "sim_makespan_s" {
			simBound = d.Bound
		}
	}
	for _, name := range Workloads {
		var timed, traced [2]*Report
		for i := range timed {
			ro := o
			ro.Workload, ro.TraceOut = name, ""
			var err error
			if timed[i], err = Run(ctx, ro); err != nil {
				return err
			}
			ro.Trace = true
			if traced[i], err = Run(ctx, ro); err != nil {
				return err
			}
		}
		check(name, "input digest", short(timed[0].InputDigest), short(timed[1].InputDigest), timed[0].InputDigest == timed[1].InputDigest)
		check(name, "arrival schedule", short(timed[0].ScheduleDigest), short(timed[1].ScheduleDigest), timed[0].ScheduleDigest == timed[1].ScheduleDigest)
		for _, m := range []string{"ir.ops_after_optimize", "engines.jobs_per_workflow"} {
			if name == "serve_open" && m == "engines.jobs_per_workflow" {
				continue // a mean over the traced window's hit/miss mix, not a count
			}
			a, b := traced[0].Metrics[m], traced[1].Metrics[m]
			check(name, m, a, b, a == b)
		}
		a, b := timed[0].Metrics["sim_makespan_s"], timed[1].Metrics["sim_makespan_s"]
		check(name, "sim_makespan_s", a, b, math.Abs(a-b) <= simBound*a)
	}
	if bad > 0 {
		return fmt.Errorf("%d values that must repeat for one seed did not", bad)
	}
	return nil
}
