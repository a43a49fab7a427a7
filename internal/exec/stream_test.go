package exec

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// The pipeline-length equivalence suite: every fusable chain shape must
// produce byte-identical kept relations and a bit-identical trace whether it
// runs as one long pipeline (interior members streamed through and metered
// by taps) or operator-at-a-time (Keep = every operator, so each pipeline is
// one member long and every intermediate materializes), at adversarially
// tiny batch sizes (1–3 rows, so every stage boundary and arena-reuse path
// is crossed many times) and with chunk-parallel pipelines forced on.

// keepAll is the operator-at-a-time side of every comparison.
func keepAll(*ir.Op) bool { return true }

func streamRelation(rows int) *relation.Relation {
	rel := relation.New("src", relation.NewSchema("k:int", "v:int", "s:string", "f:float"))
	words := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < rows; i++ {
		rel.MustAppend(relation.Row{
			relation.Int(int64(i % 7)),
			relation.Int(int64(i)),
			relation.Str(words[i%len(words)]),
			relation.Float(float64(i) * 1.5),
		})
	}
	rel.LogicalBytes = rel.PhysicalBytes() * 50
	return rel
}

func streamBuildSide(rows int) *relation.Relation {
	rel := relation.New("dim", relation.NewSchema("k:int", "label:string"))
	for i := 0; i < rows; i++ {
		rel.MustAppend(relation.Row{relation.Int(int64(i)), relation.Str(fmt.Sprintf("label-%d", i))})
	}
	rel.LogicalBytes = rel.PhysicalBytes() * 10
	return rel
}

// chainCase builds one DAG shape. keep names the relations a consumer
// outside the chain reads (always includes the sink).
type chainCase struct {
	name  string
	build func(d *ir.DAG) // add ops to a DAG that has inputs src(+dim)
	keep  []string
}

func pred(col string, op ir.CmpOp, v int64) *ir.Pred {
	return ir.Cmp(ir.ColRef(col), op, ir.LitOp(relation.Int(v)))
}

func streamCases() []chainCase {
	return []chainCase{
		{
			name: "select-project",
			build: func(d *ir.DAG) {
				in := d.ByOut("src")
				s := d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("v", ir.CmpGt, 3)}, in)
				d.Add(ir.OpProject, "slim", ir.Params{Columns: []string{"k", "v"}}, s)
			},
			keep: []string{"slim"},
		},
		{
			name: "select-arith",
			build: func(d *ir.DAG) {
				in := d.ByOut("src")
				s := d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("k", ir.CmpLt, 5)}, in)
				d.Add(ir.OpArith, "scaled", ir.Params{Dst: "f", ALeft: ir.ColRef("f"), ARght: ir.LitOp(relation.Float(0.85)), AOp: ir.ArithMul}, s)
			},
			keep: []string{"scaled"},
		},
		{
			name: "arith-new-column-chain",
			build: func(d *ir.DAG) {
				in := d.ByOut("src")
				a := d.Add(ir.OpArith, "plus", ir.Params{Dst: "v2", ALeft: ir.ColRef("v"), ARght: ir.LitOp(relation.Int(10)), AOp: ir.ArithAdd}, in)
				d.Add(ir.OpArith, "twice", ir.Params{Dst: "v2", ALeft: ir.ColRef("v2"), ARght: ir.LitOp(relation.Int(2)), AOp: ir.ArithMul}, a)
			},
			keep: []string{"twice"},
		},
		{
			name: "multi-select-project",
			build: func(d *ir.DAG) {
				in := d.ByOut("src")
				s1 := d.Add(ir.OpSelect, "s1", ir.Params{Pred: pred("v", ir.CmpGt, 1)}, in)
				s2 := d.Add(ir.OpSelect, "s2", ir.Params{Pred: pred("k", ir.CmpLt, 6)}, s1)
				d.Add(ir.OpProject, "slim", ir.Params{Columns: []string{"s", "v"}}, s2)
			},
			keep: []string{"slim"},
		},
		{
			name: "project-agg",
			build: func(d *ir.DAG) {
				in := d.ByOut("src")
				p := d.Add(ir.OpProject, "slim", ir.Params{Columns: []string{"k", "v"}}, in)
				d.Add(ir.OpAgg, "sums", ir.Params{GroupBy: []string{"k"}, Aggs: []ir.AggSpec{{Func: ir.AggSum, Col: "v", As: "total"}}}, p)
			},
			keep: []string{"sums"},
		},
		{
			name: "select-project-agg",
			build: func(d *ir.DAG) {
				in := d.ByOut("src")
				s := d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("v", ir.CmpGt, 2)}, in)
				p := d.Add(ir.OpProject, "slim", ir.Params{Columns: []string{"s", "f"}}, s)
				d.Add(ir.OpAgg, "stats", ir.Params{GroupBy: []string{"s"}, Aggs: []ir.AggSpec{{Func: ir.AggMax, Col: "f", As: "hi"}}}, p)
			},
			keep: []string{"stats"},
		},
		{
			name: "global-agg-terminal",
			build: func(d *ir.DAG) {
				in := d.ByOut("src")
				s := d.Add(ir.OpSelect, "none", ir.Params{Pred: pred("v", ir.CmpLt, -1)}, in)
				d.Add(ir.OpAgg, "count", ir.Params{Aggs: []ir.AggSpec{{Func: ir.AggCount, Col: "v", As: "n"}}}, s)
			},
			keep: []string{"count"},
		},
		{
			name: "join-select",
			build: func(d *ir.DAG) {
				in, dim := d.ByOut("src"), d.ByOut("dim")
				j := d.Add(ir.OpJoin, "joined", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"k"}}, in, dim)
				d.Add(ir.OpSelect, "hotjoin", ir.Params{Pred: pred("v", ir.CmpGt, 4)}, j)
			},
			keep: []string{"hotjoin"},
		},
		{
			name: "select-join-agg",
			build: func(d *ir.DAG) {
				in, dim := d.ByOut("src"), d.ByOut("dim")
				s := d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("v", ir.CmpGt, 1)}, in)
				j := d.Add(ir.OpJoin, "joined", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"k"}}, s, dim)
				d.Add(ir.OpAgg, "bylabel", ir.Params{GroupBy: []string{"label"}, Aggs: []ir.AggSpec{{Func: ir.AggSum, Col: "v", As: "total"}}}, j)
			},
			keep: []string{"bylabel"},
		},
		{
			name: "kept-intermediate-breaks-chain",
			build: func(d *ir.DAG) {
				in := d.ByOut("src")
				s := d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("v", ir.CmpGt, 3)}, in)
				d.Add(ir.OpProject, "slim", ir.Params{Columns: []string{"k", "v"}}, s)
			},
			keep: []string{"hot", "slim"},
		},
	}
}

func buildStreamDAG(t *testing.T, c chainCase, src, dim *relation.Relation) []*ir.Op {
	t.Helper()
	d := ir.NewDAG()
	d.AddInput("src", "in/src", src.Schema)
	d.AddInput("dim", "in/dim", dim.Schema)
	c.build(d)
	if err := d.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	ops, err := d.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

func runStream(t *testing.T, ops []*ir.Op, src, dim *relation.Relation, opts RunOptions) (Env, *Trace) {
	t.Helper()
	env := Env{"src": src, "dim": dim}
	trace := NewTrace()
	if err := RunOps(ops, env, trace, opts); err != nil {
		t.Fatalf("RunOps: %v", err)
	}
	return env, trace
}

func sameRelation(t *testing.T, name string, want, got *relation.Relation) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: missing from fused env", name)
	}
	// Width invariant: whatever widths either evaluation cached in the kept
	// relation are the exact rendering lengths.
	for _, rel := range []*relation.Relation{want, got} {
		if err := relation.CheckWidths(rel); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if want.Schema.String() != got.Schema.String() {
		t.Fatalf("%s: schema %s vs %s", name, want.Schema, got.Schema)
	}
	if want.LogicalBytes != got.LogicalBytes {
		t.Errorf("%s: LogicalBytes %d vs %d", name, want.LogicalBytes, got.LogicalBytes)
	}
	if !bytes.Equal(want.EncodeBytesOpts(relation.CodecOptions{}), got.EncodeBytesOpts(relation.CodecOptions{})) {
		t.Fatalf("%s: rows differ\nwant:\n%s\ngot:\n%s", name,
			want.EncodeBytesOpts(relation.CodecOptions{}), got.EncodeBytesOpts(relation.CodecOptions{}))
	}
}

func sameTrace(t *testing.T, want, got *Trace) {
	t.Helper()
	if !reflect.DeepEqual(want.OutBytes, got.OutBytes) {
		t.Errorf("OutBytes: %v vs %v", want.OutBytes, got.OutBytes)
	}
	if !reflect.DeepEqual(want.OutRows, got.OutRows) {
		t.Errorf("OutRows: %v vs %v", want.OutRows, got.OutRows)
	}
	if !reflect.DeepEqual(want.ProcBytes, got.ProcBytes) {
		t.Errorf("ProcBytes: %v vs %v", want.ProcBytes, got.ProcBytes)
	}
	if !reflect.DeepEqual(want.InBytes, got.InBytes) {
		t.Errorf("InBytes: %v vs %v", want.InBytes, got.InBytes)
	}
}

// TestStreamingMatchesMaterialized drives every fused shape at batch sizes
// 1, 2, 3 and the default, and demands bit-identical kept outputs and
// traces against the Keep-all evaluation.
func TestStreamingMatchesMaterialized(t *testing.T) {
	src := streamRelation(97) // prime, so tiny batches end ragged
	dim := streamBuildSide(7)
	for _, c := range streamCases() {
		for _, batch := range []int{1, 2, 3, 0} {
			t.Run(fmt.Sprintf("%s/batch%d", c.name, batch), func(t *testing.T) {
				ops := buildStreamDAG(t, c, src, dim)
				keep := map[string]bool{}
				for _, k := range c.keep {
					keep[k] = true
				}
				wantEnv, wantTrace := runStream(t, ops, src, dim, RunOptions{Keep: keepAll})
				gotEnv, gotTrace := runStream(t, ops, src, dim, RunOptions{
					Keep:      func(op *ir.Op) bool { return keep[op.Out] },
					BatchRows: batch,
				})
				for _, k := range c.keep {
					sameRelation(t, k, wantEnv[k], gotEnv[k])
				}
				sameTrace(t, wantTrace, gotTrace)
			})
		}
	}
}

// TestStreamingMatchesMaterializedParallel forces the chunk-parallel fused
// path (ParallelThreshold = 1) and re-checks every shape.
func TestStreamingMatchesMaterializedParallel(t *testing.T) {
	old := ParallelThreshold
	ParallelThreshold = 1
	defer func() { ParallelThreshold = old }()
	src := streamRelation(97)
	dim := streamBuildSide(7)
	for _, c := range streamCases() {
		t.Run(c.name, func(t *testing.T) {
			ops := buildStreamDAG(t, c, src, dim)
			keep := map[string]bool{}
			for _, k := range c.keep {
				keep[k] = true
			}
			wantEnv, wantTrace := runStream(t, ops, src, dim, RunOptions{Keep: keepAll})
			gotEnv, gotTrace := runStream(t, ops, src, dim, RunOptions{
				Keep:      func(op *ir.Op) bool { return keep[op.Out] },
				BatchRows: 3,
			})
			for _, k := range c.keep {
				sameRelation(t, k, wantEnv[k], gotEnv[k])
			}
			sameTrace(t, wantTrace, gotTrace)
		})
	}
}

// TestStreamingWhileBodyTinyBatches runs an iterative WHILE whose body is a
// fusable chain at batch size 1 and compares against the Keep-all run, whose
// body materializes every operator.
func TestStreamingWhileBodyTinyBatches(t *testing.T) {
	src := streamRelation(31)
	dim := streamBuildSide(7)
	build := func() []*ir.Op {
		d := ir.NewDAG()
		in := d.AddInput("src", "in/src", src.Schema)
		body := ir.NewDAG()
		bin := body.AddInput("src", "in/src", src.Schema)
		a := body.Add(ir.OpArith, "bumped", ir.Params{Dst: "v", ALeft: ir.ColRef("v"), ARght: ir.LitOp(relation.Int(1)), AOp: ir.ArithAdd}, bin)
		body.Add(ir.OpProject, "next", ir.Params{Columns: []string{"k", "v", "s", "f"}}, a)
		d.Add(ir.OpWhile, "looped", ir.Params{
			Body:    body,
			MaxIter: 4,
			Carried: map[string]string{"src": "next"},
		}, in)
		ops, err := d.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		return ops
	}
	wantEnv, wantTrace := runStream(t, build(), src, dim, RunOptions{Keep: keepAll})
	gotEnv, gotTrace := runStream(t, build(), src, dim, RunOptions{BatchRows: 1})
	sameRelation(t, "looped", wantEnv["looped"], gotEnv["looped"])
	sameTrace(t, wantTrace, gotTrace)
	if wantTrace.Iterations[gotOpID(t, build(), "looped")] != 4 {
		t.Errorf("iterations = %v", wantTrace.Iterations)
	}
}

func gotOpID(t *testing.T, ops []*ir.Op, out string) int {
	t.Helper()
	for _, op := range ops {
		if op.Out == out {
			return op.ID
		}
	}
	t.Fatalf("op %q not found", out)
	return -1
}

// TestOneMemberPipelines covers the shapes that only exist since every
// SELECT/PROJECT/ARITH/JOIN/AGG runs as a pipeline: an AGG that heads its
// own pipeline (behind a breaker), the empty-input empty-GROUP-BY case
// through that path, and a JOIN whose build side is the relation it probes.
// Each is checked against the oracle, single-range and chunked.
func TestOneMemberPipelines(t *testing.T) {
	src := streamRelation(97)
	empty := relation.New("src", src.Schema)
	for _, in := range []*relation.Relation{src, empty} {
		for _, threshold := range []int{ParallelThreshold, 1} {
			d := ir.NewDAG()
			s := d.AddInput("src", "in/src", in.Schema)
			dist := d.Add(ir.OpDistinct, "dist", ir.Params{}, s)
			d.Add(ir.OpAgg, "total", ir.Params{Aggs: []ir.AggSpec{
				{Func: ir.AggCount, As: "n"}, {Func: ir.AggSum, Col: "v", As: "sum"}, {Func: ir.AggMax, Col: "f", As: "hi"},
			}}, dist)
			d.Add(ir.OpAgg, "by_k", ir.Params{GroupBy: []string{"k"}, Aggs: []ir.AggSpec{{Func: ir.AggAvg, Col: "v", As: "avg"}}}, dist)
			d.Add(ir.OpJoin, "self", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"v"}}, s, s)
			if err := d.Validate(); err != nil {
				t.Fatal(err)
			}
			ops, err := d.TopoSort()
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleRun(ops, map[string]*relation.Relation{"src": in})
			if err != nil {
				t.Fatal(err)
			}
			withThreshold(t, threshold, func() {
				env, trace := runStream(t, ops, in, in, RunOptions{BatchRows: 5})
				for _, name := range []string{"total", "by_k", "self"} {
					if got := env[name]; got.Fingerprint() != want[name].Fingerprint() {
						t.Errorf("%d rows, threshold %d: %s = %v, want %v", len(in.Rows), threshold, name, got.Rows, want[name].Rows)
					}
					if op := d.ByOut(name); trace.OutRows[op.ID] != len(want[name].Rows) {
						t.Errorf("%s: traced %d rows, want %d", name, trace.OutRows[op.ID], len(want[name].Rows))
					}
				}
				if n := len(env["total"].Rows); n != 1 {
					t.Errorf("global aggregate over %d rows: %d output rows, want 1", len(in.Rows), n)
				}
			})
		}
	}
}

// TestLoneSelectSharesInputRows: a one-member SELECT pipeline passes its
// input's rows through by reference, so concurrent chunk-parallel runs over
// one input must neither write to those rows (-race) nor copy them.
func TestLoneSelectSharesInputRows(t *testing.T) {
	src := streamRelation(97)
	d := ir.NewDAG()
	in := d.AddInput("src", "in/src", src.Schema)
	d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("v", ir.CmpGe, 40)}, in)
	ops, err := d.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	withThreshold(t, 8, func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				env := Env{"src": src}
				if err := RunOps(ops, env, NewTrace(), RunOptions{BatchRows: 3}); err != nil {
					t.Error(err)
					return
				}
				hot := env["hot"]
				if len(hot.Rows) != 57 || &hot.Rows[0][0] != &src.Rows[40][0] {
					t.Errorf("hot: %d rows, first aliases the input: %v", len(hot.Rows), len(hot.Rows) > 0 && &hot.Rows[0][0] == &src.Rows[40][0])
				}
			}()
		}
		wg.Wait()
	})
	if err := relation.CheckWidths(src); err != nil {
		t.Error(err)
	}
}
