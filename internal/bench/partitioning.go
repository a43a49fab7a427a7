package bench

import (
	"fmt"
	"time"

	"musketeer/internal/cluster"
	"musketeer/internal/core"
	"musketeer/internal/dfs"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
	"musketeer/internal/workloads"
)

// exhaustiveBudget caps each exhaustive-search run; the paper lets it run
// for hundreds of seconds at 17-18 operators, which would make the bench
// suite unusable, so runs that exceed the budget report ">budget".
const exhaustiveBudget = 3 * time.Second

// Fig13Partitioning regenerates Figure 13: real wall-clock runtime of the
// exhaustive search and the dynamic-programming heuristic on growing
// prefixes of the 18-operator extended NetFlix workflow.
func Fig13Partitioning() Experiment {
	return Experiment{
		ID:    "fig13",
		Title: "DAG partitioning runtime: exhaustive vs dynamic heuristic",
		Run: func() (*Table, error) {
			t := &Table{
				ID:      "fig13",
				Title:   "Partitioning algorithm runtime (real wall clock)",
				Columns: []string{"operators", "exhaustive", "dynamic"},
			}
			c := cluster.EC2(100)
			engs := engines.StandardEngines()
			for _, n := range []int{2, 4, 6, 8, 10, 12, 13, 14, 16, 18} {
				w := workloads.NetflixExtended(n)
				fs := dfs.New()
				if err := w.Stage(fs); err != nil {
					return nil, err
				}
				dag, err := w.Build()
				if err != nil {
					return nil, err
				}
				est, err := core.NewEstimator(ir.Identify(dag), fs, c, nil)
				if err != nil {
					return nil, err
				}

				start := time.Now()
				_, exErr := core.PartitionExhaustive(dag, est, engs, exhaustiveBudget)
				exDur := time.Since(start)
				exCell := fmt.Sprintf("%.3fms", float64(exDur.Microseconds())/1000)
				if exDur >= exhaustiveBudget {
					exCell = fmt.Sprintf(">%s (budget)", exhaustiveBudget)
				}
				if exErr != nil {
					exCell = "error"
				}

				start = time.Now()
				if _, err := core.PartitionDynamic(dag, est, engs); err != nil {
					return nil, err
				}
				dynDur := time.Since(start)
				t.AddRow(itoa(n), exCell, fmt.Sprintf("%.3fms", float64(dynDur.Microseconds())/1000))
			}
			t.Note("paper Fig13: exhaustive under 1s up to 13 operators, exponential beyond; dynamic heuristic under 10ms even at 18 operators")
			return t, nil
		},
	}
}
