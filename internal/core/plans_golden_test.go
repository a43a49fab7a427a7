package core

// Golden plans: the partition search's chosen jobs, engines and cost bits
// for a fixed set of workflows, recorded before the search was indexed and
// required byte for byte ever since — a refactor of the search that changes
// which plan wins, or one bit of one cost, fails here. Regenerate with
//
//	go test ./internal/core -run TestPlansGolden -update

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"musketeer/internal/chaos"
	"musketeer/internal/cluster"
	"musketeer/internal/dfs"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
	"musketeer/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plans/*.golden from the current partition search")

type planCase struct {
	name string
	dag  *ir.DAG
	fs   *dfs.DFS
}

func stagedPlanCase(t *testing.T, name string, w *workloads.Workload) planCase {
	t.Helper()
	fs := dfs.New()
	if err := w.Stage(fs); err != nil {
		t.Fatal(err)
	}
	dag, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	return planCase{name: name, dag: dag, fs: fs}
}

func planCases(t *testing.T) []planCase {
	t.Helper()
	var cases []planCase
	for n := 2; n <= 18; n++ {
		cases = append(cases, stagedPlanCase(t, fmt.Sprintf("netflix-ext-%02d", n), workloads.NetflixExtended(n)))
	}
	lj := workloads.LiveJournal()
	cases = append(cases,
		stagedPlanCase(t, "pagerank", workloads.PageRank(lj, 5)),
		stagedPlanCase(t, "tpch-q17", workloads.TPCHQ17(10)),
		stagedPlanCase(t, "cross-community", workloads.CrossCommunityPageRank(lj, workloads.WebCommunity(), 5)),
	)
	d, fs := fig16DAG(t)
	cases = append(cases, planCase{name: "fig16", dag: d, fs: fs})
	for seed := int64(300); seed < 330; seed++ {
		rw, err := genRandomWorkflow(seed)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, planCase{name: fmt.Sprintf("random-%d", seed), dag: rw.dag, fs: rw.fs})
	}
	return cases
}

// renderPlan is Partitioning.String plus every cost as its float64 bits, so
// a last-bit drift that %v rounds away still shows.
func renderPlan(p *Partitioning, err error) string {
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	var b strings.Builder
	b.WriteString(p.String())
	b.WriteString("bits:")
	for _, j := range p.Jobs {
		fmt.Fprintf(&b, " %016x", math.Float64bits(float64(j.Cost)))
	}
	fmt.Fprintf(&b, " total %016x exhaustive=%v\n", math.Float64bits(float64(p.Cost)), p.Exhaustive)
	return b.String()
}

func TestPlansGolden(t *testing.T) {
	c := cluster.EC2(100)
	configs := []struct {
		name  string
		engs  []*engines.Engine
		tweak func(*Estimator)
	}{
		{"all engines", engines.StandardEngines(), nil},
		{"hadoop only", []*engines.Engine{engines.Hadoop()}, nil},
		// The estimator term that reads a fragment's shape beyond its sizes:
		// the recovery term (compute-operator depth).
		{"all engines, chaos", engines.StandardEngines(), func(e *Estimator) {
			e.WithChaos(&chaos.Plan{Seed: 1, MTBFSeconds: 600})
		}},
	}
	searches := []struct {
		name string
		run  func(*ir.DAG, *Estimator, []*engines.Engine) (*Partitioning, error)
	}{
		{"Partition", Partition},
		{"PartitionDynamic", PartitionDynamic},
		{"PartitionDynamicMulti/4", func(d *ir.DAG, e *Estimator, engs []*engines.Engine) (*Partitioning, error) {
			return PartitionDynamicMulti(d, e, engs, 4)
		}},
	}
	for _, pc := range planCases(t) {
		var got bytes.Buffer
		for _, cfg := range configs {
			for _, s := range searches {
				// A fresh estimator per search: no plan may depend on what an
				// earlier search left in the memo.
				est, err := NewEstimator(ir.Identify(pc.dag), pc.fs, c, nil)
				if err != nil {
					t.Fatalf("%s: %v", pc.name, err)
				}
				if cfg.tweak != nil {
					cfg.tweak(est)
				}
				fmt.Fprintf(&got, "== %s / %s ==\n", cfg.name, s.name)
				got.WriteString(renderPlan(s.run(pc.dag, est, cfg.engs)))
			}
		}
		path := filepath.Join("testdata", "plans", pc.name+".golden")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run `go test ./internal/core -run TestPlansGolden -update` to create it)", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: plan differs from %s\n--- got ---\n%s--- want ---\n%s", pc.name, path, got.Bytes(), want)
		}
	}
}
