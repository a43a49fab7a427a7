package bench

import (
	"fmt"

	"musketeer"
	"musketeer/internal/chaos"
	"musketeer/internal/engines"
	"musketeer/internal/workloads"
)

// Tab3Features regenerates the paper's Table 3 for the supported engines:
// a feature matrix of processing paradigm, deployment unit, native
// iteration, fault tolerance, and implementation language, derived from the
// engines' actual metadata (nothing hand-copied).
func Tab3Features() Experiment {
	return Experiment{
		ID:    "tab3",
		Title: "Back-end feature matrix (paper Table 3, supported systems)",
		Run: func() (*Table, error) {
			t := &Table{
				ID:      "tab3",
				Title:   "Engine features (derived from engine metadata)",
				Columns: []string{"system", "paradigm", "unit", "iteration", "fault-tolerance", "language"},
			}
			all := append(engines.StandardEngines(), engines.XStream())
			for _, e := range all {
				p := e.Profile()
				unit := "cluster"
				if p.SingleMachine {
					unit = "machine"
				}
				iter := "driver-looped"
				if p.NativeIteration {
					iter = "native"
				}
				t.AddRow(e.Name(), e.Paradigm().String(), unit, iter,
					e.FaultTolerance().String(), e.Language())
			}
			t.Note("paper Table 3: the seven bold rows; xstream added here as the §3 extensibility demonstration")
			return t, nil
		},
	}
}

// ExtFaults is an extension experiment grounded in Table 3's fault-
// tolerance column (not a paper figure): the same PageRank workflow under
// increasing failure rates, comparing recovery mechanisms. Task-level retry
// and checkpointing degrade gracefully; driver-looped Hadoop pays per-job
// anyway; a from-scratch restart on long single-machine jobs is
// catastrophic.
func ExtFaults() Experiment {
	return Experiment{
		ID:    "ext-faults",
		Title: "Extension: failure injection vs recovery mechanism (Table 3)",
		Run: func() (*Table, error) {
			t := &Table{
				ID:      "ext-faults",
				Title:   "5-iteration PageRank (Orkut) under worker failures, EC2-100",
				Columns: []string{"MTBF", "naiad(checkpoint)", "spark(lineage)", "hadoop(task-retry)"},
			}
			w := workloads.PageRank(workloads.Orkut(), 5)
			for _, mtbf := range []float64{0, 600, 120, 30} {
				label := "none"
				if mtbf > 0 {
					label = fmt.Sprintf("%.0fs", mtbf)
				}
				cells := []string{label}
				for _, eng := range []string{"naiad", "spark", "hadoop"} {
					plan := &chaos.Plan{MTBFSeconds: mtbf, Seed: 11}
					r, err := runOn(w, eng, engines.ModeOptimized, musketeer.EC2(100), musketeer.WithChaos(plan))
					if err != nil {
						return nil, err
					}
					cell := secs(r.Makespan)
					if n := faults(r).failures; n > 0 {
						cell += fmt.Sprintf(" (%df)", n)
					}
					cells = append(cells, cell)
				}
				t.AddRow(cells...)
			}
			t.Note("extension (no paper counterpart): recovery cost per mechanism under injected failures; results are unchanged by failures (verified by tests)")
			return t, nil
		},
	}
}
