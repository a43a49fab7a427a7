// Fault tolerance (paper Table 3): the same PageRank workflow executed
// under increasing worker-failure rates on back-ends with different
// recovery mechanisms — Hadoop re-runs failed tasks, Spark recomputes RDD
// lineage, Naiad rolls back to checkpoints. Results are identical in every
// run; only the recovery cost differs.
package main

import (
	"fmt"
	"log"

	"musketeer"
	"musketeer/internal/workloads"
)

func main() {
	w := workloads.PageRank(workloads.Orkut(), 5)
	fmt.Println("5-iteration PageRank (Orkut) on 100 EC2 nodes under worker failures")
	fmt.Printf("%-12s %-22s %-22s %-22s\n", "MTBF", "naiad (checkpoint)", "spark (lineage)", "hadoop (task retry)")

	for _, mtbf := range []float64{0, 300, 60, 15} {
		label := "none"
		if mtbf > 0 {
			label = fmt.Sprintf("%.0fs", mtbf)
		}
		row := fmt.Sprintf("%-12s", label)
		for _, engine := range []string{"naiad", "spark", "hadoop"} {
			opts := []musketeer.Option{musketeer.EC2(100)}
			if mtbf > 0 {
				opts = append(opts, musketeer.WithChaos(&musketeer.ChaosPlan{MTBFSeconds: mtbf, Seed: 17}))
			}
			m := musketeer.New(opts...)
			for path, rel := range w.Inputs {
				check(m.WriteInput(path, rel))
			}
			dag, err := w.Build()
			check(err)
			wf, err := m.FromDAG(dag)
			check(err)
			res, err := wf.ExecuteOn(engine)
			check(err)
			failures := 0
			for _, job := range res.Jobs {
				failures += job.Failures
			}
			cell := fmt.Sprintf("%v", res.Makespan)
			if failures > 0 {
				cell += fmt.Sprintf(" (%d failures)", failures)
			}
			row += fmt.Sprintf(" %-22s", cell)
		}
		fmt.Println(row)
	}
	fmt.Println("\ncheckpointing and task retry degrade gracefully; driver-looped")
	fmt.Println("MapReduce pays per-iteration overheads with or without failures.")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
