package core

import (
	"fmt"
	"math/rand"
	"testing"

	"musketeer/internal/analysis"
	"musketeer/internal/cluster"
	"musketeer/internal/dfs"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
	"musketeer/internal/workloads"
)

// randomWorkflow generates a small random-but-valid workflow: a few input
// tables and a chain/dag of schema-compatible operators. It exercises the
// whole pipeline the way testing/quick exercises a function: every seed is
// a new workflow.
type randomWorkflow struct {
	dag *ir.DAG
	fs  *dfs.DFS
}

func genRandomWorkflow(seed int64) (*randomWorkflow, error) {
	r := rand.New(rand.NewSource(seed))
	dag := ir.NewDAG()
	fs := dfs.New()

	// 2-3 input tables with (k:int, a:int, b:int) style schemas.
	nInputs := 2 + r.Intn(2)
	var avail []*ir.Op // ops whose output schema is (k,a,b) int columns
	schema := relation.NewSchema("k:int", "a:int", "b:int")
	for i := 0; i < nInputs; i++ {
		name := fmt.Sprintf("t%d", i)
		rel := relation.New(name, schema)
		rows := 20 + r.Intn(40)
		for j := 0; j < rows; j++ {
			rel.MustAppend(relation.Row{
				relation.Int(int64(r.Intn(8))),
				relation.Int(int64(r.Intn(100))),
				relation.Int(int64(r.Intn(100))),
			})
		}
		rel.LogicalBytes = rel.PhysicalBytes() * int64(1+r.Intn(100_000))
		if err := fs.WriteRelation("in/"+name, rel); err != nil {
			return nil, err
		}
		avail = append(avail, dag.AddInput(name, "in/"+name, schema))
	}

	// Operators that preserve the (k,a,b) shape, so any op can feed any
	// other and unions/joins stay compatible.
	nOps := 2 + r.Intn(6)
	for i := 0; i < nOps; i++ {
		in := avail[r.Intn(len(avail))]
		out := fmt.Sprintf("o%d", i)
		var op *ir.Op
		switch r.Intn(9) {
		case 0: // selective filter
			op = dag.Add(ir.OpSelect, out, ir.Params{
				Pred: ir.Cmp(ir.ColRef("a"), ir.CmpLt, ir.LitOp(relation.Int(int64(r.Intn(100))))),
			}, in)
		case 1: // identity-shape projection (may reorder a/b)
			cols := []string{"k", "a", "b"}
			if r.Intn(2) == 0 {
				cols = []string{"k", "b", "a"}
			}
			op = dag.Add(ir.OpProject, out, ir.Params{Columns: cols, As: []string{"k", "a", "b"}}, in)
		case 2: // column algebra in place
			ops := []ir.ArithOp{ir.ArithAdd, ir.ArithSub, ir.ArithMul}
			op = dag.Add(ir.OpArith, out, ir.Params{
				Dst: "a", ALeft: ir.ColRef("a"), ARght: ir.LitOp(relation.Int(int64(1 + r.Intn(5)))),
				AOp: ops[r.Intn(len(ops))],
			}, in)
		case 3: // distinct
			op = dag.Add(ir.OpDistinct, out, ir.Params{}, in)
		case 4: // aggregation back to (k,a,b) via renamed sums
			op = dag.Add(ir.OpAgg, out+"_g", ir.Params{
				GroupBy: []string{"k"},
				Aggs: []ir.AggSpec{
					{Func: ir.AggSum, Col: "a", As: "a"},
					{Func: ir.AggSum, Col: "b", As: "b"},
				},
			}, in)
			op = dag.Add(ir.OpProject, out, ir.Params{Columns: []string{"k", "a", "b"}}, op)
		case 5: // union with another available relation
			other := avail[r.Intn(len(avail))]
			if other == in {
				op = dag.Add(ir.OpDistinct, out, ir.Params{}, in)
			} else {
				op = dag.Add(ir.OpUnion, out, ir.Params{}, in, other)
			}
		case 7: // sort (order-independent fingerprints keep equality checks valid)
			op = dag.Add(ir.OpSort, out, ir.Params{SortBy: []string{"k", "a"}, Desc: r.Intn(2) == 0}, in)
		case 8: // deterministic top-N: sort fully, then limit
			srt := dag.Add(ir.OpSort, out+"_s", ir.Params{SortBy: []string{"k", "a", "b"}}, in)
			op = dag.Add(ir.OpLimit, out, ir.Params{Limit: 1 + r.Intn(20)}, srt)
		default: // join on k, then project back to shape
			other := avail[r.Intn(len(avail))]
			if other == in {
				op = dag.Add(ir.OpDistinct, out, ir.Params{}, in)
			} else {
				j := dag.Add(ir.OpJoin, out+"_j", ir.Params{
					LeftCols: []string{"k"}, RightCols: []string{"k"},
				}, in, other)
				op = dag.Add(ir.OpProject, out, ir.Params{Columns: []string{"k", "a", "r_a"}, As: []string{"k", "a", "b"}}, j)
			}
		}
		avail = append(avail, op)
	}
	if err := analysis.Analyze(dag).Err(); err != nil {
		return nil, fmt.Errorf("seed %d: invalid generated DAG: %w", seed, err)
	}
	return &randomWorkflow{dag: dag, fs: fs}, nil
}

// cloneFS re-stages the workflow inputs onto a fresh filesystem.
func (rw *randomWorkflow) cloneFS(t *testing.T) *dfs.DFS {
	t.Helper()
	fs := dfs.New()
	for _, path := range rw.dag.InputNames() {
		rel, err := rw.fs.ReadRelation(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteRelation(path, rel); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// TestRandomWorkflowsCrossEngineEquality is the decoupling property the
// whole system rests on: for random workflows, every back-end that can run
// the workflow produces identical results — regardless of how the
// partitioner split it into jobs.
func TestRandomWorkflowsCrossEngineEquality(t *testing.T) {
	c := cluster.Local(7)
	engineNames := []string{"naiad", "spark", "serial", "hadoop", "metis"}
	reg := engines.Registry()
	for seed := int64(0); seed < 25; seed++ {
		rw, err := genRandomWorkflow(seed)
		if err != nil {
			t.Fatal(err)
		}
		sinks := rw.dag.Sinks()
		fingerprints := map[string]string{}
		for _, name := range engineNames {
			fs := rw.cloneFS(t)
			est, err := NewEstimator(ir.Identify(rw.dag), fs, c, nil)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			part, err := PartitionDynamic(rw.dag, est, []*engines.Engine{reg[name]})
			if err != nil {
				t.Fatalf("seed %d on %s: %v", seed, name, err)
			}
			runner := &Runner{Ctx: engines.RunContext{DFS: fs, Cluster: c}, Mode: engines.ModeOptimized}
			if _, err := runner.Execute(ir.Identify(rw.dag), part); err != nil {
				t.Fatalf("seed %d on %s: %v", seed, name, err)
			}
			var combined string
			for _, sink := range sinks {
				out, err := fs.ReadRelation(sink.Out)
				if err != nil {
					t.Fatalf("seed %d on %s: sink %s: %v", seed, name, sink.Out, err)
				}
				combined += sink.Out + ":" + out.Fingerprint() + "\n"
			}
			fingerprints[name] = combined
		}
		ref := fingerprints[engineNames[0]]
		for _, name := range engineNames[1:] {
			if fingerprints[name] != ref {
				t.Errorf("seed %d: %s results differ from %s", seed, name, engineNames[0])
			}
		}
	}
}

// TestRandomWorkflowsExhaustiveAtLeastAsGood asserts the partitioners'
// dominance relation on random workflows: the exhaustive search never
// returns a costlier partitioning than the single-order DP heuristic, and
// the multi-order heuristic never beats the exhaustive optimum.
func TestRandomWorkflowsExhaustiveAtLeastAsGood(t *testing.T) {
	c := cluster.EC2(16)
	engs := engines.StandardEngines()
	for seed := int64(100); seed < 120; seed++ {
		rw, err := genRandomWorkflow(seed)
		if err != nil {
			t.Fatal(err)
		}
		est, err := NewEstimator(ir.Identify(rw.dag), rw.fs, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := PartitionDynamic(rw.dag, est, engs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		exh, err := PartitionExhaustive(rw.dag, est, engs, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		const eps = 1.0000001
		if float64(exh.Cost) > float64(dyn.Cost)*eps {
			t.Errorf("seed %d: exhaustive %v worse than dynamic %v\nexh:\n%s\ndyn:\n%s",
				seed, exh.Cost, dyn.Cost, exh, dyn)
		}
		multi, err := PartitionDynamicMulti(rw.dag, est, engs, 6)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if float64(multi.Cost)*eps < float64(exh.Cost) {
			t.Errorf("seed %d: multi-order heuristic %v beats exhaustive optimum %v",
				seed, multi.Cost, exh.Cost)
		}
		if multi.Cost > dyn.Cost {
			t.Errorf("seed %d: multi-order %v worse than single order %v", seed, multi.Cost, dyn.Cost)
		}
	}
}

// TestRandomWorkflowsOptimizePreservesResults runs the optimizer over
// random workflows and checks results are unchanged and the optimized DAG
// still analyzes clean: the runner does not re-analyze what it runs, so
// this test and TestOptimizeKeepsWorkloadsAnalyzable stand in for that.
func TestRandomWorkflowsOptimizePreservesResults(t *testing.T) {
	c := cluster.Local(7)
	for seed := int64(200); seed < 230; seed++ {
		rw, err := genRandomWorkflow(seed)
		if err != nil {
			t.Fatal(err)
		}
		run := func(dag *ir.DAG) map[string]string {
			fs := rw.cloneFS(t)
			est, err := NewEstimator(ir.Identify(dag), fs, c, nil)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			part, err := PartitionDynamic(dag, est, []*engines.Engine{engines.Naiad()})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			runner := &Runner{Ctx: engines.RunContext{DFS: fs, Cluster: c}, Mode: engines.ModeOptimized}
			if _, err := runner.Execute(ir.Identify(dag), part); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			out := map[string]string{}
			for _, sink := range dag.Sinks() {
				rel, err := fs.ReadRelation(sink.Out)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				out[sink.Out] = rel.Fingerprint()
			}
			return out
		}
		before := run(rw.dag)
		optimized := rw.dag.Clone()
		Optimize(optimized)
		if err := analysis.Analyze(optimized).Err(); err != nil {
			t.Fatalf("seed %d: optimizer broke the DAG: %v", seed, err)
		}
		after := run(optimized)
		// Sink names survive optimization (rewrites swap Out names to keep
		// the final operator's name stable).
		for name, fp := range before {
			if after[name] != fp {
				t.Errorf("seed %d: optimizer changed result %q", seed, name)
			}
		}
	}
}

// TestOptimizeKeepsWorkloadsAnalyzable: Optimize, applied to a clone of
// every DAG the workloads build, leaves it free of analyzer errors — a
// workflow is analyzed once, at compile, and Optimize is the only thing
// that rewrites it afterwards. Plan-cache replay needs no such test: it
// builds fragments over the DAG and writes nothing to it.
func TestOptimizeKeepsWorkloadsAnalyzable(t *testing.T) {
	g := workloads.GenerateGraph("g", 100, 400, 20, 1)
	h := workloads.GenerateGraph("h", 100, 400, 20, 2)
	ws := []*workloads.Workload{
		workloads.PageRank(g, 3),
		workloads.SSSP(g, 3),
		workloads.ConnectedComponents(g, 3),
		workloads.CrossCommunityPageRank(g, h, 3),
		workloads.TriangleCount(g),
		workloads.KMeans(1_000_000, 4, 3),
		workloads.ProjectMicro(1 << 20),
		workloads.JoinMicroAsymmetric(),
		workloads.JoinMicroAsymmetricStaged(),
		workloads.JoinMicroSymmetric(),
		workloads.Netflix(100),
		workloads.TopShopper(1000),
		workloads.TPCHQ17(1),
		workloads.TPCHQ17Lindi(1),
	}
	for n := 2; n <= 18; n++ {
		ws = append(ws, workloads.NetflixExtended(n))
	}
	for _, w := range ws {
		d, err := w.Build()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := analysis.Analyze(d).Err(); err != nil {
			t.Fatalf("%s: built DAG does not analyze: %v", w.Name, err)
		}
		optimized := d.Clone()
		Optimize(optimized)
		if err := analysis.Analyze(optimized).Err(); err != nil {
			t.Errorf("%s: optimizer broke the DAG: %v", w.Name, err)
		}
	}
}
