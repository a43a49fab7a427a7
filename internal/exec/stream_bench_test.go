package exec

import (
	"testing"

	"musketeer/internal/dfs"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// BenchmarkStream* pit one three-member pipeline against three one-member
// pipelines (Keep = every operator, so SELECT and PROJECT materialize) on
// the same SELECT→PROJECT→AGG chain. The B/op column is
// the interesting one: the fused path must not materialize the SELECT and
// PROJECT intermediates. mkbenchgate gates time, allocs, and bytes.

func streamBenchOps(b *testing.B) []*ir.Op {
	b.Helper()
	d := ir.NewDAG()
	in := d.AddInput("events", "in/events", relation.NewSchema("k:int", "v:int", "w:float"))
	sel := d.Add(ir.OpSelect, "hot", ir.Params{Pred: ir.Cmp(ir.ColRef("v"), ir.CmpGt, ir.LitOp(relation.Int(2)))}, in)
	proj := d.Add(ir.OpProject, "slim", ir.Params{Columns: []string{"k", "v"}}, sel)
	d.Add(ir.OpAgg, "by_k", ir.Params{GroupBy: []string{"k"}, Aggs: []ir.AggSpec{{Func: ir.AggSum, Col: "v", As: "total"}}}, proj)
	if err := d.Validate(); err != nil {
		b.Fatal(err)
	}
	ops, err := d.TopoSort()
	if err != nil {
		b.Fatal(err)
	}
	return ops
}

func benchStreamChain(b *testing.B, opts RunOptions) {
	ops := streamBenchOps(b)
	input := benchRelation(100_000, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := Env{"in/events": input}
		if err := RunOps(ops, env, NewTrace(), opts); err != nil {
			b.Fatal(err)
		}
		if out := env["by_k"]; out == nil || out.NumRows() == 0 {
			b.Fatal("chain produced no output")
		}
	}
}

func BenchmarkStreamFusedChain(b *testing.B) {
	benchStreamChain(b, RunOptions{Keep: func(op *ir.Op) bool { return op.Out == "by_k" }})
}

func BenchmarkStreamMaterializedChain(b *testing.B) {
	benchStreamChain(b, RunOptions{Keep: keepAll})
}

// BenchmarkStreamScanFile runs the same SELECT→PROJECT→AGG job over a 100k-row
// DFS file two ways: "streamed" opens the file and lets the pipeline's scan
// decode it batch by batch (what an engine job does); "materialized" reads it
// whole into a relation first (what every job did before inputs became
// sources). Time is dominated by TSV parsing either way; B/op is the point —
// the streamed run never holds the decoded relation.
func BenchmarkStreamScanFile(b *testing.B) {
	ops := streamBenchOps(b)
	input := benchRelation(100_000, 64)
	input.Name = "events"
	fs := stage(b, 0, relation.CodecTSV, input)
	opts := RunOptions{Keep: func(op *ir.Op) bool { return op.Out == "by_k" }}
	for _, c := range []struct {
		name string
		run  func(testing.TB, []*ir.Op, *dfs.DFS, RunOptions) Env
	}{
		{"streamed", func(t testing.TB, ops []*ir.Op, fs *dfs.DFS, opts RunOptions) Env {
			env, _, _ := runSourced(t, ops, fs, opts)
			return env
		}},
		{"materialized", func(t testing.TB, ops []*ir.Op, fs *dfs.DFS, opts RunOptions) Env {
			env, _ := runBound(t, ops, fs, opts)
			return env
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out := c.run(b, ops, fs, opts)["by_k"]; out == nil || out.NumRows() == 0 {
					b.Fatal("job produced no output")
				}
			}
		})
	}
}

// BenchmarkStreamRoundTrip is a job boundary: the ×16 fan-out JOIN → ARITH job
// of BenchmarkStreamPushFile streams its 320k output rows into a writer, the
// writer is committed to a DFS, and a second job opens the file and scans it
// through a SELECT → AGG pipeline. "tsv" renders every number to text and
// parses it back; "columnar" is what engines.Run does between jobs.
func BenchmarkStreamRoundTrip(b *testing.B) {
	first := pushOps(b)
	src, dim := fanoutInputs(20000)
	d := ir.NewDAG()
	in := d.AddInput("shared", "shared", relation.NewSchema("k:int", "v:int", "w:float", "dst:int", "deg:int"))
	hot := d.Add(ir.OpSelect, "hot", ir.Params{Pred: ir.Cmp(ir.ColRef("v"), ir.CmpGt, ir.LitOp(relation.Int(2)))}, in)
	d.Add(ir.OpAgg, "bydst", ir.Params{GroupBy: []string{"dst"}, Aggs: []ir.AggSpec{{Func: ir.AggSum, Col: "w", As: "rank"}}}, hot)
	if err := d.Validate(); err != nil {
		b.Fatal(err)
	}
	second, err := d.TopoSort()
	if err != nil {
		b.Fatal(err)
	}
	for _, codec := range []relation.Codec{relation.CodecTSV, relation.CodecColumnar} {
		b.Run(codec.String(), func(b *testing.B) {
			fs := dfs.New()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := newWriter(codec)
				if err := RunOps(first, Env{"in/src": src, "in/dim": dim}, NewTrace(), RunOptions{Sinks: map[string]*relation.Writer{"shared": w}}); err != nil {
					b.Fatal(err)
				}
				if st, err := fs.Commit("shared", w); err != nil || st.Rows != 320000 {
					b.Fatalf("first job wrote %d rows, %v", st.Rows, err)
				}
				env := Env{}
				opts := RunOptions{SkipInputs: true, Sources: map[string]*relation.Encoded{"shared": mustOpen(b, fs, "shared")}}
				if err := RunOps(second, env, NewTrace(), opts); err != nil {
					b.Fatal(err)
				}
				if out := env["bydst"]; out == nil || out.NumRows() != 1024 {
					b.Fatal("second job produced the wrong groups")
				}
			}
		})
	}
}
