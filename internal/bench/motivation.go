package bench

import (
	"strconv"

	"musketeer"
	"musketeer/internal/engines"
	"musketeer/internal/workloads"
)

// Fig2aProject regenerates Figure 2a: PROJECT makespan vs. input size on
// the 7-node local cluster for Hive(→Hadoop), hand-coded Hadoop, Spark,
// Metis and Lindi(→Naiad).
func Fig2aProject() Experiment {
	return Experiment{
		ID:    "fig2a",
		Title: "PROJECT micro-benchmark: makespan vs input size (local cluster)",
		Run: func() (*Table, error) {
			t := &Table{
				ID:      "fig2a",
				Title:   "PROJECT makespan (simulated seconds)",
				Columns: []string{"input", "hive", "hadoop", "spark", "metis", "lindi"},
			}
			c := musketeer.LocalCluster(7)
			sizes := []struct {
				label string
				bytes int64
			}{
				{"128MB", 128e6}, {"512MB", 512e6}, {"2GB", 2e9}, {"8GB", 8e9}, {"32GB", 32e9},
			}
			for _, sz := range sizes {
				w := workloads.ProjectMicro(sz.bytes)
				// Hive generates the Hadoop job; hand-coded baselines for
				// the low-level APIs; Lindi is stock Naiad with a single
				// reader thread per machine.
				hive, err := runOn(w, "hadoop", engines.ModeOptimized, c)
				if err != nil {
					return nil, err
				}
				hadoop, err := runOn(w, "hadoop", engines.ModeHand, c)
				if err != nil {
					return nil, err
				}
				spark, err := runOn(w, "spark", engines.ModeHand, c)
				if err != nil {
					return nil, err
				}
				metis, err := runOn(w, "metis", engines.ModeHand, c)
				if err != nil {
					return nil, err
				}
				lindi, err := runOn(w, "naiad-lindi", engines.ModeHand, c)
				if err != nil {
					return nil, err
				}
				t.AddRow(sz.label, secs(hive.Makespan), secs(hadoop.Makespan),
					secs(spark.Makespan), secs(metis.Makespan), secs(lindi.Makespan))
			}
			t.Note("paper: Metis best ≤~2GB; Hadoop best at 32GB; Spark worse than Hadoop (eager RDD load, no reuse); Lindi worst (single reader thread/machine)")
			return t, nil
		},
	}
}

// Fig2bJoin regenerates Figure 2b: JOIN makespan for the asymmetric
// (LiveJournal V⋈E) and symmetric (39M⋈39M uniform) cases.
func Fig2bJoin() Experiment {
	return Experiment{
		ID:    "fig2b",
		Title: "JOIN micro-benchmark: asymmetric vs symmetric (local cluster)",
		Run: func() (*Table, error) {
			t := &Table{
				ID:      "fig2b",
				Title:   "JOIN makespan (simulated seconds)",
				Columns: []string{"case", "serial-c", "hadoop", "spark", "metis", "lindi"},
			}
			c := musketeer.LocalCluster(7)
			for _, wcase := range []*workloads.Workload{
				workloads.JoinMicroAsymmetric(),
				workloads.JoinMicroSymmetric(),
			} {
				cells := []string{wcase.Name}
				for _, eng := range []string{"serial", "hadoop", "spark", "metis", "naiad-lindi"} {
					r, err := runOn(wcase, eng, engines.ModeHand, c)
					if err != nil {
						return nil, err
					}
					cells = append(cells, secs(r.Makespan))
				}
				t.AddRow(cells...)
			}
			t.Note("paper: serial C wins the small asymmetric join (distributed overheads unamortized); Hadoop wins the 1.5B-row symmetric join; Lindi suffers from single-threaded writes")
			return t, nil
		},
	}
}

// Fig3PageRankMotivation regenerates Figure 3: five-iteration PageRank on
// the Orkut and Twitter graphs across systems and cluster scales.
func Fig3PageRankMotivation() Experiment {
	return Experiment{
		ID:    "fig3",
		Title: "PageRank motivation: makespan per system at 1/16/100 nodes",
		Run: func() (*Table, error) {
			t := &Table{
				ID:      "fig3",
				Title:   "5-iteration PageRank makespan (simulated seconds, EC2)",
				Columns: []string{"graph", "system", "nodes", "makespan"},
			}
			configs := []struct {
				engine string
				nodes  int
			}{
				{"hadoop", 100}, {"spark", 100}, {"naiad", 100},
				{"naiad", 16}, {"powergraph", 16},
				{"graphchi", 1}, {"metis", 1},
			}
			for _, g := range []*workloads.Graph{workloads.Orkut(), workloads.Twitter()} {
				w := workloads.PageRank(g, 5)
				for _, cfg := range configs {
					r, err := runOn(w, cfg.engine, engines.ModeHand, musketeer.EC2(cfg.nodes))
					if err != nil {
						return nil, err
					}
					t.AddRow(g.Name, cfg.engine, itoa(cfg.nodes), secs(r.Makespan))
				}
			}
			t.Note("paper Fig3: GraphLINQ/Naiad fastest at 100 nodes; PowerGraph best at 16 (vertex-cut sharding); GraphChi competitive from one machine on the small graph; Hadoop worst (per-iteration jobs)")
			return t, nil
		},
	}
}

func itoa(n int) string { return strconv.Itoa(n) }
