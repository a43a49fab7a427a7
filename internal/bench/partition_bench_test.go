package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"musketeer/internal/allocgate"
	"musketeer/internal/analysis"
	"musketeer/internal/cluster"
	"musketeer/internal/core"
	"musketeer/internal/dfs"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
	"musketeer/internal/workloads"
)

// kernels are this package's gated benchmarks: each times the body its entry
// sets up, and TestKernelAllocationsHoldBaseline holds the same bodies'
// allocations to BENCH_kernels.json. A body builds a fresh estimator, so the
// fragment-cost cache is cold and every search is a full one.
var kernels = allocgate.Table{
	"BenchmarkPartitionExhaustive/ops=8":  exhaustive(8),
	"BenchmarkPartitionExhaustive/ops=12": exhaustive(12),
	"BenchmarkPartitionExhaustive/ops=16": exhaustive(16),
	"BenchmarkPartitionDynamic/ops=18":    func(tb testing.TB) func(testing.TB) { return dynamic(netflix(tb, 18)) },
	"BenchmarkPartitionDynamic/ops=40":    func(tb testing.TB) func(testing.TB) { return dynamic(randomWorkflow40(tb)) },
}

// raceBuild is set by race_test.go when the race detector is compiled in.
var raceBuild bool

func TestKernelAllocationsHoldBaseline(t *testing.T) {
	if raceBuild {
		t.Skip("allocation baseline; the race runtime allocates on its own")
	}
	kernels.Check(t, "../../BENCH_kernels.json")
}

// BenchmarkPartitionExhaustive measures the exhaustive search on growing
// prefixes of the extended NetFlix workflow.
func BenchmarkPartitionExhaustive(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("ops=%d", n), kernels.Bench)
	}
}

func exhaustive(n int) func(testing.TB) func(testing.TB) {
	return func(tb testing.TB) func(testing.TB) {
		dag, fs := netflix(tb, n)
		return search(dag, fs, func(est *core.Estimator, engs []*engines.Engine) error {
			_, err := core.PartitionExhaustive(dag, est, engs, 0)
			return err
		})
	}
}

// netflix stages the extended NetFlix workflow of n operators.
func netflix(tb testing.TB, n int) (*ir.DAG, *dfs.DFS) {
	w := workloads.NetflixExtended(n)
	fs := dfs.New()
	if err := w.Stage(fs); err != nil {
		tb.Fatal(err)
	}
	dag, err := w.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return dag, fs
}

// search runs one partition search of dag over a cold estimator.
func search(dag *ir.DAG, fs *dfs.DFS, partition func(*core.Estimator, []*engines.Engine) error) func(testing.TB) {
	id, c, engs := ir.Identify(dag), cluster.EC2(100), engines.StandardEngines()
	return func(tb testing.TB) {
		est, err := core.NewEstimator(id, fs, c, nil)
		if err != nil {
			tb.Fatal(err)
		}
		if err := partition(est, engs); err != nil {
			tb.Fatal(err)
		}
	}
}

// randomWorkflow40 builds a seeded random DAG of 40 compute operators over
// three (k,a,b) tables, in the style of core's genRandomWorkflow: every
// operator keeps the shape, so any result can feed any later operator.
func randomWorkflow40(tb testing.TB) (*ir.DAG, *dfs.DFS) {
	tb.Helper()
	r := rand.New(rand.NewSource(40))
	schema := relation.NewSchema("k:int", "a:int", "b:int")
	dag, fs := ir.NewDAG(), dfs.New()
	var avail []*ir.Op
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("t%d", i)
		rel := relation.New(name, schema)
		for j := 0; j < 30; j++ {
			rel.MustAppend(relation.Row{relation.Int(int64(r.Intn(8))), relation.Int(int64(r.Intn(100))), relation.Int(int64(r.Intn(100)))})
		}
		rel.LogicalBytes = int64(1+r.Intn(50)) * 1e9
		if err := fs.WriteRelation("in/"+name, rel); err != nil {
			tb.Fatal(err)
		}
		avail = append(avail, dag.AddInput(name, "in/"+name, schema))
	}
	for n := 0; n < 40; {
		in, other := avail[r.Intn(len(avail))], avail[r.Intn(len(avail))]
		out := fmt.Sprintf("o%d", n)
		var op *ir.Op
		switch k := r.Intn(6); {
		case k == 0:
			op = dag.Add(ir.OpSelect, out, ir.Params{Pred: ir.Cmp(ir.ColRef("a"), ir.CmpLt, ir.LitOp(relation.Int(int64(r.Intn(100)))))}, in)
		case k == 1:
			op = dag.Add(ir.OpArith, out, ir.Params{Dst: "a", ALeft: ir.ColRef("a"), ARght: ir.LitOp(relation.Int(2)), AOp: ir.ArithMul}, in)
		case k == 2:
			op = dag.Add(ir.OpDistinct, out, ir.Params{}, in)
		case k == 3 && n < 39:
			agg := dag.Add(ir.OpAgg, out+"_g", ir.Params{GroupBy: []string{"k"}, Aggs: []ir.AggSpec{
				{Func: ir.AggSum, Col: "a", As: "a"}, {Func: ir.AggSum, Col: "b", As: "b"}}}, in)
			op = dag.Add(ir.OpProject, out, ir.Params{Columns: []string{"k", "a", "b"}}, agg)
			n++
		case k == 4 && other != in:
			op = dag.Add(ir.OpUnion, out, ir.Params{}, in, other)
		case k == 5 && other != in && n < 39:
			j := dag.Add(ir.OpJoin, out+"_j", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"k"}}, in, other)
			op = dag.Add(ir.OpProject, out, ir.Params{Columns: []string{"k", "a", "r_a"}, As: []string{"k", "a", "b"}}, j)
			n++
		default:
			op = dag.Add(ir.OpSort, out, ir.Params{SortBy: []string{"k", "a"}}, in)
		}
		n++
		avail = append(avail, op)
	}
	if err := analysis.Analyze(dag).Err(); err != nil {
		tb.Fatal(err)
	}
	return dag, fs
}

// BenchmarkPartitionDynamic measures the §5.1.2 DP heuristic on the two
// shapes Partition hands it: the 18-operator extended NetFlix pipeline and a
// 40-operator random DAG.
func BenchmarkPartitionDynamic(b *testing.B) {
	b.Run("ops=18", kernels.Bench)
	b.Run("ops=40", kernels.Bench)
}

func dynamic(dag *ir.DAG, fs *dfs.DFS) func(testing.TB) {
	return search(dag, fs, func(est *core.Estimator, engs []*engines.Engine) error {
		_, err := core.PartitionDynamic(dag, est, engs)
		return err
	})
}
