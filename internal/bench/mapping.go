package bench

import (
	"fmt"
	"strings"

	"musketeer"
	"musketeer/internal/cluster"
	"musketeer/internal/core"
	"musketeer/internal/engines"
	"musketeer/internal/workloads"
)

// mappingConfig is one of the 33 configurations of §6.7: a workflow at a
// particular input size on a particular cluster.
type mappingConfig struct {
	label string
	w     *workloads.Workload
	c     musketeer.Option
}

// fig14Configs builds the 33 configurations (6 workflow families, varied
// input sizes and cluster scales).
func fig14Configs() []mappingConfig {
	var cfgs []mappingConfig
	add := func(label string, w *workloads.Workload, c musketeer.Option) {
		cfgs = append(cfgs, mappingConfig{label: label, w: w, c: c})
	}
	ec100, ec16, ec1, local := musketeer.EC2(100), musketeer.EC2(16), musketeer.EC2(1), musketeer.LocalCluster(7)

	for _, sf := range []int{10, 50, 100} {
		add(fmt.Sprintf("tpch-sf%d/ec100", sf), workloads.TPCHQ17(sf), ec100)
	}
	add("tpch-sf10/local", workloads.TPCHQ17(10), local)

	for _, users := range []int64{10, 50, 100} {
		add(fmt.Sprintf("topshop-%dM/ec100", users), workloads.TopShopper(users*1_000_000), ec100)
	}
	add("topshop-10M/local", workloads.TopShopper(10_000_000), local)

	for _, lim := range []int64{15, 30, 60} {
		add(fmt.Sprintf("netflix-%d/ec100", lim), workloads.Netflix(lim), ec100)
	}
	add("netflix-15/local", workloads.Netflix(15), local)

	for _, g := range []struct {
		name  string
		graph func() *workloads.Graph
	}{{"lj", workloads.LiveJournal}, {"orkut", workloads.Orkut}, {"twitter", workloads.Twitter}} {
		add("pagerank-"+g.name+"/ec100", workloads.PageRank(g.graph(), 5), ec100)
		add("pagerank-"+g.name+"/ec16", workloads.PageRank(g.graph(), 5), ec16)
	}
	add("pagerank-lj/ec1", workloads.PageRank(workloads.LiveJournal(), 5), ec1)
	add("pagerank-orkut/ec1", workloads.PageRank(workloads.Orkut(), 5), ec1)

	add("sssp-lj/ec16", workloads.SSSP(workloads.LiveJournal(), 5), ec16)
	add("sssp-lj/ec100", workloads.SSSP(workloads.LiveJournal(), 5), ec100)
	add("sssp-twitter/ec100", workloads.SSSP(workloads.Twitter(), 5), ec100)
	add("sssp-twitter/ec16", workloads.SSSP(workloads.Twitter(), 5), ec16)

	add("kmeans-10M/ec100", workloads.KMeans(10_000_000, 100, 5), ec100)
	add("kmeans-100M/ec100", workloads.KMeans(100_000_000, 100, 5), ec100)

	lj, web := workloads.LiveJournal(), workloads.WebCommunity()
	add("crosscomm/local", workloads.CrossCommunityPageRank(lj, web, 5), local)

	for _, size := range []struct {
		label string
		bytes int64
	}{{"512MB", 512e6}, {"8GB", 8e9}, {"32GB", 32e9}} {
		add("project-"+size.label+"/local", workloads.ProjectMicro(size.bytes), local)
	}
	add("join-asym/local", workloads.JoinMicroAsymmetric(), local)
	add("join-sym/local", workloads.JoinMicroSymmetric(), local)
	add("join-sym/ec100", workloads.JoinMicroSymmetric(), ec100)
	return cfgs
}

// mappingQuality classifies a makespan against the best observed option:
// within 10% is "good", within 30% "reasonable", else "poor" (§6.7).
func mappingQuality(m, best cluster.Seconds) string {
	r := float64(m) / float64(best)
	switch {
	case r <= 1.10:
		return "good"
	case r <= 1.30:
		return "reasonable"
	default:
		return "poor"
	}
}

// Fig14MappingQuality regenerates Figure 14: the quality of Musketeer's
// automated back-end choices with no / partial / full workflow history,
// against the decision-tree baseline, over the 33 configurations.
func Fig14MappingQuality() Experiment {
	return Experiment{
		ID:    "fig14",
		Title: "Automated mapping quality: history vs decision tree (33 configs)",
		Run:   runFig14,
	}
}

func runFig14() (*Table, error) {
	strategies := []string{"no-history", "partial-history", "full-history", "decision-tree"}
	counts := map[string]map[string]int{}
	missed := map[string][]string{}
	for _, s := range strategies {
		counts[s] = map[string]int{}
	}
	configs := fig14Configs()
	for _, cfg := range configs {
		res, best, err := evaluateMappingConfig(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.label, err)
		}
		for _, s := range strategies {
			r := res[s]
			q := mappingQuality(r.Makespan, best)
			counts[s][q]++
			// The decision tree misses nearly everywhere by design; its list
			// would be the configuration list.
			if q != "good" && s != "decision-tree" {
				missed[s] = append(missed[s], fmt.Sprintf("%s on %s %s vs best %s (%.2fx)",
					cfg.label, join(r.Partitioning.Engines()), secs(r.Makespan), secs(best), float64(r.Makespan)/float64(best)))
			}
		}
	}
	t := &Table{
		ID:      "fig14",
		Title:   fmt.Sprintf("Automated mapping quality over %d configurations", len(configs)),
		Columns: []string{"strategy", "good(≤10%)", "reasonable(≤30%)", "poor"},
	}
	total := len(configs)
	for _, s := range strategies {
		g, r, p := counts[s]["good"], counts[s]["reasonable"], counts[s]["poor"]
		t.AddRow(s,
			fmt.Sprintf("%d (%.0f%%)", g, 100*float64(g)/float64(total)),
			fmt.Sprintf("%d (%.0f%%)", r, 100*float64(r)/float64(total)),
			fmt.Sprintf("%d (%.0f%%)", p, 100*float64(p)/float64(total)))
	}
	t.Note("paper Fig14: ~50%% good with no knowledge, >80%% good with partial history, always good/optimal with full (per-operator) history; the decision tree yields many poor choices")
	for _, s := range strategies {
		if len(missed[s]) > 0 {
			t.Note("%s not good: %s", s, strings.Join(missed[s], "; "))
		}
	}
	return t, nil
}

// evaluateMappingConfig measures every single-engine option (ground truth)
// plus the four mapping strategies, returning their runs by strategy name
// and the best makespan observed over all of them.
func evaluateMappingConfig(cfg mappingConfig) (map[string]*musketeer.Result, cluster.Seconds, error) {
	out := map[string]*musketeer.Result{}
	best := core.Infeasible

	// Ground truth: each engine on its own.
	for _, eng := range engines.StandardEngines() {
		r, err := runOn(cfg.w, eng.Name(), engines.ModeOptimized, cfg.c)
		if err != nil {
			continue // engine cannot run this workflow (e.g. GAS-only)
		}
		if r.Makespan < best {
			best = r.Makespan
		}
	}

	record := func(name string, r *musketeer.Result, err error) error {
		if err != nil {
			return err
		}
		out[name] = r
		if r.Makespan < best {
			best = r.Makespan
		}
		return nil
	}

	// No history.
	h := musketeer.WithHistory(core.NewHistory())
	r1, err := runAuto(cfg.w, cfg.c, h)
	if err := record("no-history", r1, err); err != nil {
		return nil, 0, err
	}
	// Partial history: the first run's fragment-boundary observations.
	r2, err := runAuto(cfg.w, cfg.c, h)
	if err := record("partial-history", r2, err); err != nil {
		return nil, 0, err
	}
	// Full history: profile operator by operator on naiad first (§6.7),
	// then map.
	hFull := musketeer.WithHistory(core.NewHistory())
	if _, err := runUnmerged(cfg.w, "naiad", engines.ModeOptimized, cfg.c, hFull); err != nil {
		return nil, 0, err
	}
	r3, err := runAuto(cfg.w, cfg.c, hFull)
	if err := record("full-history", r3, err); err != nil {
		return nil, 0, err
	}
	// Decision tree.
	r4, err := runDecisionTree(cfg)
	if err := record("decision-tree", r4, err); err != nil {
		return nil, 0, err
	}
	return out, best, nil
}

// runDecisionTree executes the workflow under the decision-tree baseline.
func runDecisionTree(cfg mappingConfig) (*musketeer.Result, error) {
	wf, err := stage(musketeer.New(cfg.c), cfg.w, engines.ModeOptimized)
	if err != nil {
		return nil, err
	}
	wf.Optimize()
	est, err := wf.Estimator()
	if err != nil {
		return nil, err
	}
	part, err := core.DecisionTreePartition(wf.DAG(), est, engines.Registry())
	if err != nil {
		return nil, err
	}
	return wf.Run(part)
}
