package bench

import (
	"fmt"

	"musketeer"
	"musketeer/internal/cluster"
	"musketeer/internal/engines"
	"musketeer/internal/workloads"
)

// Fig7TPCH regenerates Figure 7: TPC-H query 17 makespan vs scale factor
// for Hive on its native Hadoop back-end, the same Hive workflow mapped by
// Musketeer to Naiad, the Lindi workflow on stock Naiad, and Musketeer's
// generated Naiad code for the Lindi workflow.
func Fig7TPCH() Experiment {
	return Experiment{
		ID:    "fig7",
		Title: "TPC-H Q17: legacy workflow speedup via re-mapping (EC2-100)",
		Run: func() (*Table, error) {
			t := &Table{
				ID:      "fig7",
				Title:   "TPC-H Q17 makespan (simulated seconds, 100-node EC2)",
				Columns: []string{"SF", "hive(hadoop)", "musketeer→naiad", "lindi(naiad)", "musketeer(lindi)→naiad"},
			}
			c := musketeer.EC2(100)
			for _, sf := range []int{10, 40, 70, 100} {
				hiveW := workloads.TPCHQ17(sf)
				lindiW := workloads.TPCHQ17Lindi(sf)
				hiveNative, err := runOn(hiveW, "hadoop", engines.ModeHand, c)
				if err != nil {
					return nil, err
				}
				muskNaiad, err := runOn(hiveW, "naiad", engines.ModeOptimized, c)
				if err != nil {
					return nil, err
				}
				lindiNative, err := runOn(lindiW, "naiad-lindi", engines.ModeHand, c)
				if err != nil {
					return nil, err
				}
				muskFromLindi, err := runOn(lindiW, "naiad", engines.ModeOptimized, c)
				if err != nil {
					return nil, err
				}
				t.AddRow(itoa(sf), secs(hiveNative.Makespan), secs(muskNaiad.Makespan),
					secs(lindiNative.Makespan), secs(muskFromLindi.Makespan))
			}
			t.Note("paper: Hive needs 3 Hadoop jobs (restrictive MR paradigm); Musketeer→Naiad runs it as one job, ~2x faster; Lindi's non-associative GROUP BY collapses to one machine, Musketeer's improved operator is up to 9x faster at SF100")
			return t, nil
		},
	}
}

// Fig8PageRank regenerates Figures 8a/8b: Musketeer's best mapping vs
// hand-written baselines for PageRank at 100/16/1 nodes.
func Fig8PageRank() Experiment {
	return Experiment{
		ID:    "fig8",
		Title: "PageRank: Musketeer's mapping vs hand-written baselines",
		Run: func() (*Table, error) {
			t := &Table{
				ID:      "fig8",
				Title:   "5-iteration PageRank makespan (simulated seconds, EC2)",
				Columns: []string{"graph", "nodes", "best-baseline", "baseline-sys", "musketeer", "musketeer-sys", "overhead"},
			}
			baselines := map[int][]string{
				100: {"hadoop", "spark", "naiad"},
				16:  {"naiad", "powergraph", "spark"},
				1:   {"graphchi", "metis", "serial"},
			}
			for _, g := range []*workloads.Graph{workloads.Orkut(), workloads.Twitter()} {
				w := workloads.PageRank(g, 5)
				for _, nodes := range []int{100, 16, 1} {
					c := musketeer.EC2(nodes)
					bestName := ""
					best := cluster.Seconds(0)
					for _, eng := range baselines[nodes] {
						r, err := runOn(w, eng, engines.ModeHand, c)
						if err != nil {
							return nil, err
						}
						if bestName == "" || r.Makespan < best {
							bestName, best = eng, r.Makespan
						}
					}
					auto, err := runAuto(w, c)
					if err != nil {
						return nil, err
					}
					over := (float64(auto.Makespan) - float64(best)) / float64(best)
					t.AddRow(g.Name, itoa(nodes), secs(best), bestName,
						secs(auto.Makespan), join(auto.Partitioning.Engines()), pct(over))
				}
			}
			t.Note("paper Fig8: at each scale Musketeer's mapping is almost as good as the best-in-class baseline (GraphChi at 1 node, Naiad/PowerGraph at 16, Naiad at 100)")
			return t, nil
		},
	}
}

// Fig8cEfficiency regenerates Figure 8c: resource efficiency of PageRank
// on the Twitter graph — the best single-node execution's aggregate time
// normalized by each configuration's aggregate time.
func Fig8cEfficiency() Experiment {
	return Experiment{
		ID:    "fig8c",
		Title: "PageRank Twitter: resource efficiency",
		Run: func() (*Table, error) {
			t := &Table{
				ID:      "fig8c",
				Title:   "Resource efficiency (best single-node aggregate / config aggregate)",
				Columns: []string{"nodes", "system", "makespan", "aggregate", "efficiency"},
			}
			w := workloads.PageRank(workloads.Twitter(), 5)
			// Best single-node execution: the most efficient baseline.
			bestSingle := cluster.Seconds(0)
			for _, eng := range []string{"graphchi", "metis", "serial"} {
				r, err := runOn(w, eng, engines.ModeHand, musketeer.EC2(1))
				if err != nil {
					return nil, err
				}
				if bestSingle == 0 || r.Makespan < bestSingle {
					bestSingle = r.Makespan
				}
			}
			configs := []struct {
				nodes  int
				engine string
				mode   engines.PlanMode
			}{
				{100, "naiad", engines.ModeHand},
				{100, "spark", engines.ModeHand},
				{16, "powergraph", engines.ModeHand},
				{16, "naiad", engines.ModeHand},
				{1, "graphchi", engines.ModeHand},
			}
			for _, cfg := range configs {
				r, err := runOn(w, cfg.engine, cfg.mode, musketeer.EC2(cfg.nodes))
				if err != nil {
					return nil, err
				}
				agg := float64(r.Makespan) * float64(cfg.nodes)
				eff := float64(bestSingle) / agg
				if eff > 1 {
					eff = 1
				}
				t.AddRow(itoa(cfg.nodes), cfg.engine, secs(r.Makespan),
					secs(cluster.Seconds(agg)), fmt.Sprintf("%.0f%%", 100*eff))
				// Musketeer's choice at this scale.
				auto, err := runAuto(w, musketeer.EC2(cfg.nodes))
				if err != nil {
					return nil, err
				}
				aggA := float64(auto.Makespan) * float64(cfg.nodes)
				effA := float64(bestSingle) / aggA
				if effA > 1 {
					effA = 1
				}
				t.AddRow(itoa(cfg.nodes), "musketeer("+join(auto.Partitioning.Engines())+")", secs(auto.Makespan),
					secs(cluster.Seconds(aggA)), fmt.Sprintf("%.0f%%", 100*effA))
			}
			t.Note("paper Fig8c: distributed scales trade efficiency for speed; Musketeer's efficiency tracks the best stand-alone implementation at every scale")
			return t, nil
		},
	}
}

// Fig9CrossCommunity regenerates Figure 9: the hybrid cross-community
// PageRank under single back-ends and Musketeer-explored combinations.
func Fig9CrossCommunity() Experiment {
	return Experiment{
		ID:    "fig9",
		Title: "Cross-community PageRank: combining back-ends (local cluster)",
		Run: func() (*Table, error) {
			t := &Table{
				ID:      "fig9",
				Title:   "Cross-community PageRank makespan (simulated seconds)",
				Columns: []string{"mapping", "engines-used", "jobs", "makespan"},
			}
			lj := workloads.LiveJournal()
			web := workloads.WebCommunity()
			w := workloads.CrossCommunityPageRank(lj, web, 5)
			c := musketeer.LocalCluster(7)
			singles := []struct {
				label  string
				engine string
			}{
				{"hadoop only", "hadoop"},
				{"spark only", "spark"},
				{"lindi only", "naiad-lindi"},
			}
			for _, cs := range singles {
				r, err := runOn(w, cs.engine, engines.ModeOptimized, c)
				if err != nil {
					return nil, err
				}
				t.AddRow(cs.label, join(r.Partitioning.Engines()), itoa(len(r.Jobs)), secs(r.Makespan))
			}
			combos := []struct {
				label        string
				batch, graph string
			}{
				{"hadoop + powergraph", "hadoop", "powergraph"},
				{"hadoop + graphchi", "hadoop", "graphchi"},
				{"spark + powergraph", "spark", "powergraph"},
			}
			for _, cs := range combos {
				r, err := runCombo(w, cs.batch, cs.graph, c)
				if err != nil {
					return nil, err
				}
				t.AddRow(cs.label, join(r.Partitioning.Engines()), itoa(len(r.Jobs)), secs(r.Makespan))
			}
			r, err := runOn(w, "naiad", engines.ModeOptimized, c)
			if err != nil {
				return nil, err
			}
			t.AddRow("lindi + graphlinq (naiad)", join(r.Partitioning.Engines()), itoa(len(r.Jobs)), secs(r.Makespan))
			auto, err := runAuto(w, c)
			if err != nil {
				return nil, err
			}
			t.AddRow("musketeer auto", join(auto.Partitioning.Engines()), itoa(len(auto.Jobs)), secs(auto.Makespan))
			t.Note("paper Fig9: combinations beat single general-purpose systems — the batch intersection suits Hadoop/Spark, the iterative PageRank suits graph engines; Lindi+GraphLINQ (both on Naiad) wins by avoiding cross-system I/O")
			return t, nil
		},
	}
}

// Fig10NetflixOverhead regenerates Figure 10: generated-code overhead over
// hand-optimized baselines for the NetFlix workflow.
func Fig10NetflixOverhead() Experiment {
	return Experiment{
		ID:    "fig10",
		Title: "NetFlix workflow: Musketeer vs hand-optimized code (EC2-100)",
		Run: func() (*Table, error) {
			t := &Table{
				ID:      "fig10",
				Title:   "NetFlix recommendation makespan (simulated seconds)",
				Columns: []string{"movies", "system", "hand", "musketeer", "overhead"},
			}
			c := musketeer.EC2(100)
			for _, limit := range []int64{15, 30, 60} {
				w := workloads.Netflix(limit)
				label := itoa(int(limit * 17000 / 60)) // physical 60 movies ≙ full 17k catalogue
				for _, eng := range []string{"hadoop", "spark", "naiad"} {
					hand, err := runOn(w, eng, engines.ModeHand, c)
					if err != nil {
						return nil, err
					}
					musk, err := runOn(w, eng, engines.ModeOptimized, c)
					if err != nil {
						return nil, err
					}
					over := (float64(musk.Makespan) - float64(hand.Makespan)) / float64(hand.Makespan)
					t.AddRow(label, eng, secs(hand.Makespan), secs(musk.Makespan), pct(over))
				}
			}
			t.Note("paper Fig10: overhead virtually non-existent for Naiad, <30%% for Spark and Hadoop even as input grows (Spark's residue: simple type inference causes an extra pass)")
			return t, nil
		},
	}
}

// Fig11PageRankOverhead regenerates Figure 11: generated-code overhead for
// PageRank on the Twitter graph per compatible back-end.
func Fig11PageRankOverhead() Experiment {
	return Experiment{
		ID:    "fig11",
		Title: "PageRank Twitter: generated-code overhead per back-end",
		Run: func() (*Table, error) {
			t := &Table{
				ID:      "fig11",
				Title:   "PageRank generated-code overhead vs hand-optimized",
				Columns: []string{"system", "nodes", "hand", "musketeer", "overhead"},
			}
			w := workloads.PageRank(workloads.Twitter(), 5)
			configs := []struct {
				engine string
				nodes  int
			}{
				{"hadoop", 100}, {"spark", 100}, {"naiad", 100},
				{"powergraph", 16}, {"graphchi", 1},
			}
			for _, cfg := range configs {
				c := musketeer.EC2(cfg.nodes)
				hand, err := runOn(w, cfg.engine, engines.ModeHand, c)
				if err != nil {
					return nil, err
				}
				musk, err := runOn(w, cfg.engine, engines.ModeOptimized, c)
				if err != nil {
					return nil, err
				}
				over := (float64(musk.Makespan) - float64(hand.Makespan)) / float64(hand.Makespan)
				t.AddRow(cfg.engine, itoa(cfg.nodes), secs(hand.Makespan), secs(musk.Makespan), pct(over))
			}
			t.Note("paper Fig11: average overhead below 30%% for every compatible back-end")
			return t, nil
		},
	}
}

// Fig12aMerging regenerates Figure 12a: operator merging on/off for the
// top-shopper workflow.
func Fig12aMerging() Experiment {
	return Experiment{
		ID:    "fig12a",
		Title: "top-shopper: operator merging and shared scans (EC2-100)",
		Run: func() (*Table, error) {
			t := &Table{
				ID:      "fig12a",
				Title:   "top-shopper makespan, merging off vs on (hadoop)",
				Columns: []string{"users", "merging-off", "merging-on", "speedup"},
			}
			c := musketeer.EC2(100)
			for _, users := range []int64{10_000_000, 40_000_000, 70_000_000, 100_000_000} {
				w := workloads.TopShopper(users)
				off, err := runUnmerged(w, "hadoop", engines.ModeOptimized, c)
				if err != nil {
					return nil, err
				}
				on, err := runOn(w, "hadoop", engines.ModeOptimized, c)
				if err != nil {
					return nil, err
				}
				t.AddRow(itoa(int(users/1_000_000))+"M", secs(off.Makespan), secs(on.Makespan),
					fmt.Sprintf("%.1fx", float64(off.Makespan)/float64(on.Makespan)))
			}
			t.Note("paper Fig12: a one-off ~25-50s reduction from avoided per-job overheads plus a linear shared-scan benefit; overall 2-5x")
			return t, nil
		},
	}
}

// Fig12bMerging regenerates Figure 12b: merging on/off for the hybrid
// cross-community PageRank.
func Fig12bMerging() Experiment {
	return Experiment{
		ID:    "fig12b",
		Title: "cross-community PageRank: operator merging (local cluster)",
		Run: func() (*Table, error) {
			t := &Table{
				ID:      "fig12b",
				Title:   "cross-community PageRank, merging off vs on (naiad)",
				Columns: []string{"graphs", "merging-off", "merging-on", "speedup"},
			}
			c := musketeer.LocalCluster(7)
			lj := workloads.LiveJournal()
			web := workloads.WebCommunity()
			w := workloads.CrossCommunityPageRank(lj, web, 5)
			off, err := runUnmerged(w, "naiad", engines.ModeOptimized, c)
			if err != nil {
				return nil, err
			}
			on, err := runOn(w, "naiad", engines.ModeOptimized, c)
			if err != nil {
				return nil, err
			}
			t.AddRow("lj+web", secs(off.Makespan), secs(on.Makespan),
				fmt.Sprintf("%.1fx", float64(off.Makespan)/float64(on.Makespan)))
			t.Note("paper Fig12b: the same merging benefit on the hybrid workflow")
			return t, nil
		},
	}
}

func join(xs []string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += "+"
		}
		out += x
	}
	return out
}
