package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"musketeer/internal/cluster"
	"musketeer/internal/core"
	"musketeer/internal/dfs"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
	"musketeer/internal/workloads"
)

// BenchmarkPartitionExhaustive measures the exhaustive search on growing
// prefixes of the extended NetFlix workflow. A fresh estimator per iteration
// keeps the fragment-cost cache cold, so the numbers reflect a full search,
// not cache replay.
func BenchmarkPartitionExhaustive(b *testing.B) {
	c := cluster.EC2(100)
	engs := engines.StandardEngines()
	for _, n := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			w := workloads.NetflixExtended(n)
			fs := dfs.New()
			if err := w.Stage(fs); err != nil {
				b.Fatal(err)
			}
			dag, err := w.Build()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				est, err := core.NewEstimator(ir.Identify(dag), fs, c, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := core.PartitionExhaustive(dag, est, engs, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// randomWorkflow40 builds a seeded random DAG of 40 compute operators over
// three (k,a,b) tables, in the style of core's genRandomWorkflow: every
// operator keeps the shape, so any result can feed any later operator.
func randomWorkflow40(b *testing.B) (*ir.DAG, *dfs.DFS) {
	b.Helper()
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
			b.Fatal(err)
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
	if err := dag.Validate(); err != nil {
		b.Fatal(err)
	}
	return dag, fs
}

// BenchmarkPartitionDynamic measures the §5.1.2 DP heuristic, cold estimator
// per iteration, on the two shapes Partition hands it: the 18-operator
// extended NetFlix pipeline and a 40-operator random DAG.
func BenchmarkPartitionDynamic(b *testing.B) {
	c := cluster.EC2(100)
	engs := engines.StandardEngines()
	netflix := workloads.NetflixExtended(18)
	netflixFS := dfs.New()
	if err := netflix.Stage(netflixFS); err != nil {
		b.Fatal(err)
	}
	netflixDAG, err := netflix.Build()
	if err != nil {
		b.Fatal(err)
	}
	randomDAG, randomFS := randomWorkflow40(b)
	for _, bc := range []struct {
		ops int
		dag *ir.DAG
		fs  *dfs.DFS
	}{{18, netflixDAG, netflixFS}, {40, randomDAG, randomFS}} {
		b.Run(fmt.Sprintf("ops=%d", bc.ops), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				est, err := core.NewEstimator(ir.Identify(bc.dag), bc.fs, c, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := core.PartitionDynamic(bc.dag, est, engs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
