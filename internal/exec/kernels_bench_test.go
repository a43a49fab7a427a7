package exec

import (
	"fmt"
	"testing"

	"musketeer/internal/allocgate"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// Micro-benchmarks for the shared operator kernels (the per-row machinery
// every simulated engine executes) and the streaming pipelines. Run with:
//
//	go test -bench='Kernel|SortRows|Stream' ./internal/exec -benchmem
//
// Each benchmark times the body its kernels entry sets up; ns/op is a
// record, and TestKernelAllocationsHoldBaseline gates the same bodies'
// allocations against BENCH_kernels.json.
var kernels = allocgate.Table{
	"BenchmarkKernelSelect": func(testing.TB) func(testing.TB) {
		return opBody(ir.OpSelect, ir.Params{
			Pred: ir.Cmp(ir.ColRef("v"), ir.CmpLt, ir.LitOp(relation.Int(10000))),
		}, benchRelation(20000, 64))
	},
	"BenchmarkKernelProject": func(testing.TB) func(testing.TB) {
		return opBody(ir.OpProject, ir.Params{Columns: []string{"k", "w"}}, benchRelation(20000, 64))
	},
	"BenchmarkKernelHashJoin": func(testing.TB) func(testing.TB) {
		return opBody(ir.OpJoin, ir.Params{LeftCols: []string{"k"}, RightCols: []string{"k"}}, benchRelation(20000, 256), benchRelation(2000, 256))
	},
	"BenchmarkKernelJoinFanout": joinFanout,
	"BenchmarkKernelWhileJoin":  whileJoin,
	"BenchmarkKernelAgg": func(testing.TB) func(testing.TB) {
		return opBody(ir.OpAgg, ir.Params{
			GroupBy: []string{"k"},
			Aggs: []ir.AggSpec{
				{Func: ir.AggSum, Col: "v", As: "s"},
				{Func: ir.AggMax, Col: "w", As: "hi"},
			},
		}, benchRelation(20000, 128))
	},
	"BenchmarkKernelDistinct": func(testing.TB) func(testing.TB) {
		return opBody(ir.OpDistinct, ir.Params{}, benchRelation(20000, 5000))
	},
	"BenchmarkKernelArith": func(testing.TB) func(testing.TB) {
		return opBody(ir.OpArith, ir.Params{
			Dst: "w", ALeft: ir.ColRef("w"), ARght: ir.LitOp(relation.Float(0.85)), AOp: ir.ArithMul,
		}, benchRelation(20000, 64))
	},
	"BenchmarkSortRows/serial":             sortRows,
	"BenchmarkStreamFusedChain":            streamChain(RunOptions{Keep: func(op *ir.Op) bool { return op.Out == "by_k" }}),
	"BenchmarkStreamMaterializedChain":     streamChain(RunOptions{Keep: keepAll}),
	"BenchmarkStreamScanFile/streamed":     scanFile(true),
	"BenchmarkStreamScanFile/materialized": scanFile(false),
	"BenchmarkStreamPushFile/streamed":     pushFile(pushStreamed),
	"BenchmarkStreamPushFile/materialized": pushFile(pushMaterialized),
	"BenchmarkStreamRoundTrip/tsv":         roundTrip(relation.CodecTSV),
	"BenchmarkStreamRoundTrip/columnar":    roundTrip(relation.CodecColumnar),
}

func TestKernelAllocationsHoldBaseline(t *testing.T) {
	if raceBuild {
		t.Skip("allocation baseline; the race runtime allocates on its own")
	}
	kernels.Check(t, "../../BENCH_kernels.json")
}

func BenchmarkKernelSelect(b *testing.B)     { kernels.Bench(b) }
func BenchmarkKernelProject(b *testing.B)    { kernels.Bench(b) }
func BenchmarkKernelHashJoin(b *testing.B)   { kernels.Bench(b) }
func BenchmarkKernelJoinFanout(b *testing.B) { kernels.Bench(b) }
func BenchmarkKernelWhileJoin(b *testing.B)  { kernels.Bench(b) }
func BenchmarkKernelAgg(b *testing.B)        { kernels.Bench(b) }
func BenchmarkKernelDistinct(b *testing.B)   { kernels.Bench(b) }
func BenchmarkKernelArith(b *testing.B)      { kernels.Bench(b) }

func benchRelation(rows, keys int) *relation.Relation {
	rel := relation.New("b", relation.NewSchema("k:int", "v:int", "w:float"))
	for i := 0; i < rows; i++ {
		rel.MustAppend(relation.Row{
			relation.Int(int64(i % keys)),
			relation.Int(int64(i)),
			relation.Float(float64(i) * 0.5),
		})
	}
	return rel
}

// opBody evaluates one operator of the given type over inputs.
func opBody(typ ir.OpType, params ir.Params, inputs ...*relation.Relation) func(testing.TB) {
	d := ir.NewDAG()
	ops := make([]*ir.Op, len(inputs))
	for i, in := range inputs {
		ops[i] = d.AddInput(fmt.Sprintf("in%d", i), "in", in.Schema)
	}
	op := d.Add(typ, "out", params, ops...)
	return func(tb testing.TB) {
		if _, err := EvalOp(op, inputs); err != nil {
			tb.Fatal(err)
		}
	}
}

// fanoutOps is the PageRank / NetFlix inner loop: a JOIN whose every probe
// row meets sixteen build rows, an ARITH over the joined rows and a grouped
// SUM — one three-member pipeline, only the aggregate kept.
func fanoutOps(tb testing.TB) []*ir.Op {
	tb.Helper()
	d := ir.NewDAG()
	src := d.AddInput("src", "in/src", relation.NewSchema("k:int", "v:int", "w:float"))
	dim := d.AddInput("dim", "in/dim", relation.NewSchema("k:int", "dst:int", "deg:int"))
	j := d.Add(ir.OpJoin, "joined", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"k"}}, src, dim)
	a := d.Add(ir.OpArith, "shared", ir.Params{Dst: "w", ALeft: ir.ColRef("w"), ARght: ir.ColRef("deg"), AOp: ir.ArithDiv}, j)
	d.Add(ir.OpAgg, "bydst", ir.Params{GroupBy: []string{"dst"}, Aggs: []ir.AggSpec{{Func: ir.AggSum, Col: "w", As: "rank"}}}, a)
	if err := d.Validate(); err != nil {
		tb.Fatal(err)
	}
	ops, err := d.TopoSort()
	if err != nil {
		tb.Fatal(err)
	}
	return ops
}

// fanoutInputs returns rows probe rows over 256 keys and a build side with
// sixteen rows per key, spread over 1024 destinations.
func fanoutInputs(rows int) (src, dim *relation.Relation) {
	dim = relation.New("dim", relation.NewSchema("k:int", "dst:int", "deg:int"))
	for i := 0; i < 256*16; i++ {
		dim.MustAppend(relation.Row{relation.Int(int64(i / 16)), relation.Int(int64(i * 7 % 1024)), relation.Int(16)})
	}
	return benchRelation(rows, 256), dim
}

// joinFanout runs the fan-out pipeline over 20 000 probe rows.
func joinFanout(tb testing.TB) func(testing.TB) {
	ops := fanoutOps(tb)
	src, dim := fanoutInputs(20000)
	return func(tb testing.TB) {
		env := Env{"in/src": src, "in/dim": dim}
		if err := RunOps(ops, env, NewTrace(), RunOptions{Keep: func(op *ir.Op) bool { return op.Out == "bydst" }}); err != nil {
			tb.Fatal(err)
		}
		if out := env["bydst"]; out == nil || out.NumRows() != 1024 {
			tb.Fatal("fan-out pipeline produced the wrong groups")
		}
	}
}

// whileJoin is a native PageRank loop: five iterations of an 800-row carried
// rank relation probing a 12 800-row edge relation the loop never rebinds
// (sixteen out-edges per vertex), dividing by degree, summing per destination
// and damping.
func whileJoin(tb testing.TB) func(testing.TB) {
	ranks := relation.New("ranks", relation.NewSchema("vertex:int", "rank:float"))
	for i := 0; i < 800; i++ {
		ranks.MustAppend(relation.Row{relation.Int(int64(i)), relation.Float(1)})
	}
	edges := relation.New("edges", relation.NewSchema("src:int", "dst:int", "degree:int"))
	for i := 0; i < 800*16; i++ {
		edges.MustAppend(relation.Row{relation.Int(int64(i / 16)), relation.Int(int64(i * 7 % 800)), relation.Int(16)})
	}
	d := ir.NewDAG()
	inRanks, inEdges := d.AddInput("ranks", "in/ranks", ranks.Schema), d.AddInput("edges", "in/edges", edges.Schema)
	body := ir.NewDAG()
	bRanks, bEdges := body.AddInput("ranks", "", ranks.Schema), body.AddInput("edges", "", edges.Schema)
	j := body.Add(ir.OpJoin, "sent", ir.Params{LeftCols: []string{"vertex"}, RightCols: []string{"src"}}, bRanks, bEdges)
	sh := body.Add(ir.OpArith, "shared", ir.Params{Dst: "rank", ALeft: ir.ColRef("rank"), ARght: ir.ColRef("degree"), AOp: ir.ArithDiv}, j)
	g := body.Add(ir.OpAgg, "gathered", ir.Params{GroupBy: []string{"dst"}, Aggs: []ir.AggSpec{{Func: ir.AggSum, Col: "rank", As: "rank"}}}, sh)
	m := body.Add(ir.OpArith, "damped", ir.Params{Dst: "rank", ALeft: ir.ColRef("rank"), ARght: ir.LitOp(relation.Float(0.85)), AOp: ir.ArithMul}, g)
	body.Add(ir.OpProject, "new_ranks", ir.Params{Columns: []string{"dst", "rank"}, As: []string{"vertex", "rank"}}, m)
	d.Add(ir.OpWhile, "final_ranks", ir.Params{Body: body, MaxIter: 5, Carried: map[string]string{"ranks": "new_ranks"}}, inRanks, inEdges)
	ops, err := d.TopoSort()
	if err != nil {
		tb.Fatal(err)
	}
	return func(tb testing.TB) {
		env := Env{"ranks": ranks, "edges": edges}
		if err := RunOps(ops, env, NewTrace(), RunOptions{}); err != nil {
			tb.Fatal(err)
		}
		if got := env["final_ranks"]; got == nil || got.NumRows() != 800 {
			tb.Fatal("the loop produced the wrong ranks")
		}
	}
}
