package exec

import (
	"testing"

	"musketeer/internal/dfs"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// BenchmarkStream* pit one three-member pipeline against three one-member
// pipelines (Keep = every operator, so SELECT and PROJECT materialize) on
// the same SELECT→PROJECT→AGG chain. The B/op column is the interesting
// one: the fused path must not materialize the SELECT and PROJECT
// intermediates. TestKernelAllocationsHoldBaseline gates allocs and bytes.

func BenchmarkStreamFusedChain(b *testing.B)        { kernels.Bench(b) }
func BenchmarkStreamMaterializedChain(b *testing.B) { kernels.Bench(b) }

func streamBenchOps(tb testing.TB) []*ir.Op {
	tb.Helper()
	d := ir.NewDAG()
	in := d.AddInput("events", "in/events", relation.NewSchema("k:int", "v:int", "w:float"))
	sel := d.Add(ir.OpSelect, "hot", ir.Params{Pred: ir.Cmp(ir.ColRef("v"), ir.CmpGt, ir.LitOp(relation.Int(2)))}, in)
	proj := d.Add(ir.OpProject, "slim", ir.Params{Columns: []string{"k", "v"}}, sel)
	d.Add(ir.OpAgg, "by_k", ir.Params{GroupBy: []string{"k"}, Aggs: []ir.AggSpec{{Func: ir.AggSum, Col: "v", As: "total"}}}, proj)
	if err := d.Validate(); err != nil {
		tb.Fatal(err)
	}
	ops, err := d.TopoSort()
	if err != nil {
		tb.Fatal(err)
	}
	return ops
}

// streamChain runs the chain over 100k rows with opts.
func streamChain(opts RunOptions) func(testing.TB) func(testing.TB) {
	return func(tb testing.TB) func(testing.TB) {
		ops := streamBenchOps(tb)
		input := benchRelation(100_000, 64)
		return func(tb testing.TB) {
			env := Env{"in/events": input}
			if err := RunOps(ops, env, NewTrace(), opts); err != nil {
				tb.Fatal(err)
			}
			if out := env["by_k"]; out == nil || out.NumRows() == 0 {
				tb.Fatal("chain produced no output")
			}
		}
	}
}

// BenchmarkStreamScanFile runs the same SELECT→PROJECT→AGG job over a 100k-row
// DFS file two ways: "streamed" opens the file and lets the pipeline's scan
// decode it batch by batch (what an engine job does); "materialized" reads it
// whole into a relation first (what every job did before inputs became
// sources). B/op is the point: the streamed run never holds the decoded
// relation.
func BenchmarkStreamScanFile(b *testing.B) {
	b.Run("streamed", kernels.Bench)
	b.Run("materialized", kernels.Bench)
}

func scanFile(streamed bool) func(testing.TB) func(testing.TB) {
	return func(tb testing.TB) func(testing.TB) {
		ops := streamBenchOps(tb)
		input := benchRelation(100_000, 64)
		input.Name = "events"
		fs := stage(tb, 0, input)
		opts := RunOptions{Keep: func(op *ir.Op) bool { return op.Out == "by_k" }}
		return func(tb testing.TB) {
			var env Env
			if streamed {
				env, _, _ = runSourced(tb, ops, fs, opts)
			} else {
				env, _ = runBound(tb, ops, fs, opts)
			}
			if out := env["by_k"]; out == nil || out.NumRows() == 0 {
				tb.Fatal("job produced no output")
			}
		}
	}
}

// BenchmarkStreamRoundTrip is a job boundary, as engines.Run crosses it: the
// ×16 fan-out JOIN → ARITH job of BenchmarkStreamPushFile streams its 320k
// output rows into a writer, the writer is committed to a DFS, and a second
// job opens the file and scans it through a SELECT → AGG pipeline.
func BenchmarkStreamRoundTrip(b *testing.B) {
	b.Run("columnar", kernels.Bench)
}

func roundTrip(tb testing.TB) func(testing.TB) {
	first := pushOps(tb)
	src, dim := fanoutInputs(20000)
	d := ir.NewDAG()
	in := d.AddInput("shared", "shared", relation.NewSchema("k:int", "v:int", "w:float", "dst:int", "deg:int"))
	hot := d.Add(ir.OpSelect, "hot", ir.Params{Pred: ir.Cmp(ir.ColRef("v"), ir.CmpGt, ir.LitOp(relation.Int(2)))}, in)
	d.Add(ir.OpAgg, "bydst", ir.Params{GroupBy: []string{"dst"}, Aggs: []ir.AggSpec{{Func: ir.AggSum, Col: "w", As: "rank"}}}, hot)
	if err := d.Validate(); err != nil {
		tb.Fatal(err)
	}
	second, err := d.TopoSort()
	if err != nil {
		tb.Fatal(err)
	}
	fs := dfs.New()
	return func(tb testing.TB) {
		w := newWriter()
		if err := RunOps(first, Env{"in/src": src, "in/dim": dim}, NewTrace(), RunOptions{Sinks: map[string]*relation.Writer{"shared": w}}); err != nil {
			tb.Fatal(err)
		}
		if st, err := fs.Commit("shared", w); err != nil || st.Rows != 320000 {
			tb.Fatalf("first job wrote %d rows, %v", st.Rows, err)
		}
		env := Env{}
		opts := RunOptions{SkipInputs: true, Sources: map[string]*relation.Encoded{"shared": mustOpen(tb, fs, "shared")}}
		if err := RunOps(second, env, NewTrace(), opts); err != nil {
			tb.Fatal(err)
		}
		if out := env["bydst"]; out == nil || out.NumRows() != 1024 {
			tb.Fatal("second job produced the wrong groups")
		}
	}
}
