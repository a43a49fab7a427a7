// Command mkbench regenerates the paper's evaluation tables and figures
// (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	mkbench            # run every experiment
//	mkbench -run fig7  # run one experiment by ID
//	mkbench -list      # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"musketeer/internal/bench"
)

func main() {
	runID := flag.String("run", "", "run only the experiment with this ID (e.g. fig7)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	accuracy := flag.Bool("accuracy", false, "run the estimator-accuracy benchmark (predicted vs simulated makespan per workflow)")
	accuracyJSON := flag.String("accuracy-json", "", "write the accuracy benchmark report to this JSON file (e.g. BENCH_accuracy.json)")
	accuracyRounds := flag.Int("rounds", 3, "accuracy: learning rounds sharing one history/calibration store (1 = no learning)")
	accuracyCases := flag.String("accuracy-cases", "", "accuracy: comma-separated case-name substrings to run (empty = all)")
	chaosBench := flag.Bool("chaos", false, "run the chaos benchmark (makespan inflation vs fault rate per engine)")
	chaosSeed := flag.Int64("chaos-seed", 7, "seed for the chaos benchmark's fault plans")
	chaosJSON := flag.String("chaos-json", "", "write the chaos benchmark report to this JSON file (e.g. BENCH_chaos.json)")
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	if *accuracy || *accuracyJSON != "" {
		var filter []string
		if *accuracyCases != "" {
			filter = strings.Split(*accuracyCases, ",")
		}
		rep, err := bench.RunAccuracy(*accuracyRounds, filter)
		if err != nil {
			fmt.Fprintln(os.Stderr, "accuracy:", err)
			os.Exit(1)
		}
		for _, r := range rep.Rounds {
			fmt.Printf("accuracy round %d/%d: mean |makespan error| %.1f%%\n",
				r.Round, len(rep.Rounds), 100*r.Summary.MeanAbsMakespanError)
		}
		for _, w := range rep.Workflows {
			fmt.Printf("accuracy %-22s %s\n", w.Workflow, w)
		}
		s := rep.Summary
		fmt.Printf("accuracy summary (final round): %d workflows, %d jobs, mean makespan error %+.0f%%, mean |makespan error| %.0f%%, worst %.0f%%\n",
			s.Workflows, s.Jobs, 100*s.MeanMakespanError, 100*s.MeanAbsMakespanError, 100*s.WorstAbsMakespanError)
		if l := rep.Learning; l != nil {
			for _, f := range l.Flips {
				fmt.Printf("accuracy engine flip: %s %s: %s (%.1fs) -> %s (%.1fs) at round %d\n",
					f.Workflow, f.Job, f.From, f.BeforeActualS, f.To, f.AfterActualS, f.Round)
			}
		}
		if *accuracyJSON != "" {
			if err := bench.WriteAccuracyJSON(*accuracyJSON, rep); err != nil {
				fmt.Fprintln(os.Stderr, "accuracy:", err)
				os.Exit(1)
			}
		}
		return
	}

	if *chaosBench || *chaosJSON != "" {
		rep, err := bench.RunChaos(*chaosSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(1)
		}
		for _, r := range rep.Runs {
			fmt.Printf("chaos %-8s %-12s %5.0f faults/h  %8.1fs  %+6.1f%%  (%df %dckpt %dstrag %ddfs %dretry %dspec)\n",
				r.Engine, r.Mechanism, r.FaultsPerHr, r.MakespanS, r.InflationPct,
				r.Failures, r.Checkpoints, r.Stragglers, r.DFSRetries, r.JobRetries, r.Speculated)
		}
		if *chaosJSON != "" {
			if err := bench.WriteChaosJSON(*chaosJSON, rep); err != nil {
				fmt.Fprintln(os.Stderr, "chaos:", err)
				os.Exit(1)
			}
		}
		return
	}

	exps := bench.All()
	if *runID != "" {
		e, err := bench.ByID(*runID)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		exps = []bench.Experiment{e}
	}
	for _, e := range exps {
		start := time.Now()
		table, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		table.Fprint(os.Stdout)
		fmt.Printf("   (%s generated in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
