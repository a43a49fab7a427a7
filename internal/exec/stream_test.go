package exec

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
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
			// Every iteration probes the outer dim, a build side the loop
			// never rebinds: its join table is built once per WHILE.
			name: "while-invariant-join",
			build: func(d *ir.DAG) {
				in, dim := d.ByOut("src"), d.ByOut("dim")
				body := ir.NewDAG()
				bin, bdim := body.AddInput("src", "in/src", in.Params.Schema), body.AddInput("dim", "in/dim", dim.Params.Schema)
				a := body.Add(ir.OpArith, "bumped", ir.Params{Dst: "v", ALeft: ir.ColRef("v"), ARght: ir.LitOp(relation.Int(1)), AOp: ir.ArithAdd}, bin)
				j := body.Add(ir.OpJoin, "labelled", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"k"}}, a, bdim)
				body.Add(ir.OpProject, "next", ir.Params{Columns: []string{"k", "v", "s", "f"}}, j)
				d.Add(ir.OpWhile, "looped", ir.Params{Body: body, MaxIter: 3, Carried: map[string]string{"src": "next"}}, in, dim)
			},
			keep: []string{"looped"},
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
	if !bytes.Equal(want.EncodeBytes(), got.EncodeBytes()) {
		t.Fatalf("%s: rows differ\nwant:\n%s\ngot:\n%s", name, want.EncodeBytes(), got.EncodeBytes())
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

// raceBuild is set by race_test.go when the race detector is compiled in.
var raceBuild bool

// TestWhileBuildsInvariantJoinOnce: a WHILE whose body probes a 20 000-row
// outer relation every iteration indexes it once, so five more iterations
// cost less than a quarter of what building its join table allocates.
func TestWhileBuildsInvariantJoinOnce(t *testing.T) {
	if raceBuild {
		t.Skip("allocation bound; the race runtime allocates on its own")
	}
	edges := relation.New("edges", relation.NewSchema("src:int", "w:int"))
	for i := 0; i < 20000; i++ {
		edges.MustAppend(relation.Row{relation.Int(int64(i)), relation.Int(int64(i % 9))})
	}
	ranks := relation.New("ranks", relation.NewSchema("vertex:int", "rank:float"))
	for i := 0; i < 100; i++ {
		ranks.MustAppend(relation.Row{relation.Int(int64(i * 7)), relation.Float(1)})
	}
	loop := func(iters int) []*ir.Op {
		d := ir.NewDAG()
		inRanks, inEdges := d.AddInput("ranks", "in/ranks", ranks.Schema), d.AddInput("edges", "in/edges", edges.Schema)
		body := ir.NewDAG()
		bRanks, bEdges := body.AddInput("ranks", "", ranks.Schema), body.AddInput("edges", "", edges.Schema)
		j := body.Add(ir.OpJoin, "sent", ir.Params{LeftCols: []string{"vertex"}, RightCols: []string{"src"}}, bRanks, bEdges)
		body.Add(ir.OpProject, "next", ir.Params{Columns: []string{"vertex", "rank"}}, j)
		d.Add(ir.OpWhile, "final", ir.Params{Body: body, MaxIter: iters, Carried: map[string]string{"ranks": "next"}}, inRanks, inEdges)
		ops, err := d.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		return ops
	}
	// The least of three measurements, each after a warm-up run: a
	// background allocation only ever adds.
	allocated := func(f func()) int64 {
		f()
		least := int64(0)
		for trial := 0; trial < 3; trial++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			if n := int64(after.TotalAlloc - before.TotalAlloc); trial == 0 || n < least {
				least = n
			}
		}
		return least
	}
	run := func(iters int) func() {
		ops := loop(iters)
		return func() {
			env := Env{"ranks": ranks, "edges": edges}
			if err := RunOps(ops, env, NewTrace(), RunOptions{}); err != nil {
				t.Fatal(err)
			}
			if env["final"].NumRows() != 100 {
				t.Fatalf("%d ranks out of the loop, want 100", env["final"].NumRows())
			}
		}
	}
	table := allocated(func() {
		if _, err := buildJoinTable(edges.Reader(0, len(edges.Rows), relation.DefaultBatchRows, false), len(edges.Rows), []int{0}, []int{1}, false); err != nil {
			t.Fatal(err)
		}
	})
	once, six := allocated(run(1)), allocated(run(6))
	t.Logf("join table %d bytes; the loop allocates %d bytes over 1 iteration, %d over 6", table, once, six)
	if six-once >= table/4 {
		t.Errorf("five more iterations allocate %d bytes, a join table %d: the loop rebuilds its invariant join table", six-once, table)
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
// own pipeline (behind SORT, which ends the one before), the empty-input
// empty-GROUP-BY case
// through that path, and a JOIN whose build side is the relation it probes.
// Each is checked against the oracle, single-range and chunked.
func TestOneMemberPipelines(t *testing.T) {
	src := streamRelation(97)
	empty := relation.New("src", src.Schema)
	for _, in := range []*relation.Relation{src, empty} {
		for _, threshold := range []int{ParallelThreshold, 1} {
			d := ir.NewDAG()
			s := d.AddInput("src", "in/src", in.Schema)
			sorted := d.Add(ir.OpSort, "sorted", ir.Params{SortBy: []string{"v"}}, s)
			d.Add(ir.OpAgg, "total", ir.Params{Aggs: []ir.AggSpec{
				{Func: ir.AggCount, As: "n"}, {Func: ir.AggSum, Col: "v", As: "sum"}, {Func: ir.AggMax, Col: "f", As: "hi"},
			}}, sorted)
			d.Add(ir.OpAgg, "by_k", ir.Params{GroupBy: []string{"k"}, Aggs: []ir.AggSpec{{Func: ir.AggAvg, Col: "v", As: "avg"}}}, sorted)
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

// TestLimitAcrossTheSplit: LIMIT keeps the first n rows in range order
// whether its pipeline runs as one range or two halves, at any batch size: n
// inside the first half, n ending inside the second, n past the input, and an
// empty input — over the bound rows and behind a constructing stage.
func TestLimitAcrossTheSplit(t *testing.T) {
	src := streamRelation(97) // two halves of 49 and 48 rows from threshold 1
	for _, in := range []*relation.Relation{src, relation.New("src", src.Schema)} {
		for _, n := range []int{10, 70, 500} {
			d := ir.NewDAG()
			s := d.AddInput("src", "in/src", in.Schema)
			d.Add(ir.OpLimit, "first", ir.Params{Limit: n}, s)
			half := d.Add(ir.OpArith, "half", ir.Params{Dst: "h", ALeft: ir.ColRef("v"), ARght: ir.LitOp(relation.Int(2)), AOp: ir.ArithDiv}, s)
			d.Add(ir.OpLimit, "first_half", ir.Params{Limit: n}, half)
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
			for _, threshold := range []int{ParallelThreshold, 1} {
				for _, batch := range []int{1, 5, 0} {
					withThreshold(t, threshold, func() {
						env, _ := runStream(t, ops, in, in, RunOptions{BatchRows: batch})
						for _, name := range []string{"first", "first_half"} {
							if got, want := rowsText(env[name].Rows), rowsText(want[name].Rows); got != want {
								t.Errorf("%d rows, LIMIT %d, threshold %d, batch %d: %s = %s, want %s", len(in.Rows), n, threshold, batch, name, got, want)
							}
						}
					})
				}
			}
		}
	}
}

// TestLoneSelectSharesInputRows: a one-member SELECT pipeline passes its
// input's rows through by reference, and so does a UNION of a file with it,
// so concurrent chunk-parallel runs over one input must neither write to those
// rows (-race) nor copy them.
func TestLoneSelectSharesInputRows(t *testing.T) {
	src := streamRelation(97)
	file := streamRelation(5)
	file.Name = "file"
	fs := stage(t, 0, file)
	d := ir.NewDAG()
	in := d.AddInput("src", "in/src", src.Schema)
	d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("v", ir.CmpGe, 40)}, in)
	d.Add(ir.OpUnion, "both", ir.Params{}, d.AddInput("file", "in/file", file.Schema), in)
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
				opts := RunOptions{BatchRows: 3, SkipInputs: true, Sources: map[string]*relation.Encoded{"file": mustOpen(t, fs, "file")}}
				if err := RunOps(ops, env, NewTrace(), opts); err != nil {
					t.Error(err)
					return
				}
				hot := env["hot"]
				if len(hot.Rows) != 57 || &hot.Rows[0][0] != &src.Rows[40][0] {
					t.Errorf("hot: %d rows, first aliases the input: %v", len(hot.Rows), len(hot.Rows) > 0 && &hot.Rows[0][0] == &src.Rows[40][0])
				}
				if both := env["both"]; len(both.Rows) != 102 || &both.Rows[101][0] != &src.Rows[96][0] {
					t.Errorf("both: %d rows, or the input's last row is copied", len(both.Rows))
				}
			}()
		}
		wg.Wait()
	})
	if err := relation.CheckWidths(src); err != nil {
		t.Error(err)
	}
}

// rowsText renders rows in order, one line each, widths and all other cached
// state left out — what "the same rows in the same order" means.
func rowsText(rows []relation.Row) string {
	var b bytes.Buffer
	for _, row := range rows {
		for _, v := range row {
			b.WriteString(v.String())
			b.WriteByte('\t')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestJoinProbeWindows pins the resumable probe: a JOIN emits an upstream
// batch's matches in windows of at most BatchRows rows, and whatever the
// window size the rows, their order, every group's first appearance and the
// trace are those of the oracle and of the Keep-all run. The build side
// gives key 0 a 5 000-row run (one probe row fans out across thousands of
// windows), key 1 five rows (nine hot probe rows in a row straddle every
// window boundary at sizes 2, 3 and 7) and key 2 one; probe keys 9 match
// nothing, so at small batch sizes whole upstream batches yield no window
// before the last hot row does. The JOIN runs as the last member (fresh
// arenas: every window's rows must survive the next) and as an interior one
// feeding ARITH → AGG, single-range and chunk-parallel over the shared table.
func TestJoinProbeWindows(t *testing.T) {
	dim := relation.New("dim", relation.NewSchema("k:int", "label:string", "w:int"))
	for i := 0; i < 5006; i++ {
		k := 0
		if i >= 5000 {
			k = 1 + (i-5000)/5
		}
		dim.MustAppend(relation.Row{relation.Int(int64(k)), relation.Str(fmt.Sprintf("l%d", i%13)), relation.Int(int64(i))})
	}
	dim.LogicalBytes = dim.PhysicalBytes() * 10
	srcOf := func(keys ...int64) *relation.Relation {
		rel := relation.New("src", relation.NewSchema("k:int", "v:int"))
		for i, k := range keys {
			rel.MustAppend(relation.Row{relation.Int(k), relation.Int(int64(i + 1))})
		}
		rel.LogicalBytes = rel.PhysicalBytes() * 50
		return rel
	}
	hot := []int64{1, 1, 1, 1, 1, 1, 1, 1, 1, 2}
	for i := 0; i < 20; i++ {
		hot = append(hot, 9)
	}
	hot = append(hot, 1, 9)
	cases := []chainCase{
		{
			name: "join-last",
			build: func(d *ir.DAG) {
				d.Add(ir.OpJoin, "joined", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"k"}}, d.ByOut("src"), d.ByOut("dim"))
			},
			keep: []string{"joined"},
		},
		{
			name: "join-arith-agg",
			build: func(d *ir.DAG) {
				j := d.Add(ir.OpJoin, "joined", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"k"}}, d.ByOut("src"), d.ByOut("dim"))
				a := d.Add(ir.OpArith, "weighed", ir.Params{Dst: "x", ALeft: ir.ColRef("w"), ARght: ir.ColRef("v"), AOp: ir.ArithMul}, j)
				d.Add(ir.OpAgg, "bylabel", ir.Params{GroupBy: []string{"label"}, Aggs: []ir.AggSpec{
					{Func: ir.AggSum, Col: "x", As: "sx"}, {Func: ir.AggCount, As: "n"}, {Func: ir.AggMin, Col: "w", As: "lo"},
					{Func: ir.AggMax, Col: "w", As: "hi"}, {Func: ir.AggAvg, Col: "v", As: "avg"},
				}}, a)
			},
			keep: []string{"bylabel"},
		},
	}
	for _, src := range []*relation.Relation{srcOf(0), srcOf(hot...), srcOf(append([]int64{0}, hot...)...)} {
		for _, c := range cases {
			ops := buildStreamDAG(t, c, src, dim)
			want, err := oracleRun(ops, map[string]*relation.Relation{"src": src, "dim": dim})
			if err != nil {
				t.Fatal(err)
			}
			_, wantTrace := runStream(t, ops, src, dim, RunOptions{Keep: keepAll})
			for _, batch := range []int{1, 2, 3, 7, 1024} {
				for _, threshold := range []int{ParallelThreshold, 1} {
					t.Run(fmt.Sprintf("%s/%drows/batch%d/threshold%d", c.name, len(src.Rows), batch, threshold), func(t *testing.T) {
						withThreshold(t, threshold, func() {
							env, trace := runStream(t, ops, src, dim, RunOptions{
								Keep:      func(op *ir.Op) bool { return op.Out == c.keep[0] },
								BatchRows: batch,
							})
							got := env[c.keep[0]]
							if rowsText(got.Rows) != rowsText(want[c.keep[0]].Rows) {
								t.Errorf("%s differs from the oracle: %d rows, want %d", c.keep[0], len(got.Rows), len(want[c.keep[0]].Rows))
							}
							if err := relation.CheckWidths(got); err != nil {
								t.Error(err)
							}
							sameTrace(t, wantTrace, trace)
						})
					})
				}
			}
		}
	}
}

// TestFanoutPipelineAllocsTrackBatchesNotRows: behind a ×16 fan-out JOIN the
// ARITH stage and the AGG sink see sixteen times the scan's rows, but their
// arenas are cut for one window and reused, and groups live in slabs — so the
// objects a run allocates follow the stage count and the slab count, and
// doubling the input adds next to none.
func TestFanoutPipelineAllocsTrackBatchesNotRows(t *testing.T) {
	ops := fanoutOps(t)
	keep := func(op *ir.Op) bool { return op.Out == "bydst" }
	var allocs [2]float64
	for i, rows := range []int{1000, 2000} {
		src, dim := fanoutInputs(rows)
		allocs[i] = testing.AllocsPerRun(5, func() { runStream(t, ops, src, dim, RunOptions{Keep: keep}) })
	}
	t.Logf("allocs per run: %v at 1000 rows, %v at 2000", allocs[0], allocs[1])
	if allocs[1] > allocs[0]*1.25 {
		t.Errorf("doubling the input took allocations from %v to %v: they track rows, not batches and slabs", allocs[0], allocs[1])
	}
}

// TestSmallJoinAggAllocatesNoMoreThanBefore is the serve_open shape: 40 probe
// rows, 40 build rows, a handful of groups. Arenas and slabs are cut to what
// a run emits, not to BatchRows; 36 585 bytes is what the pre-window,
// map-bucket interpreter allocated for this exact run (318 objects), so one
// pre-allocated BatchRows arena (1024 rows × 6 values × 40 bytes) fails it
// sevenfold.
func TestSmallJoinAggAllocatesNoMoreThanBefore(t *testing.T) {
	src, dim := streamRelation(40), streamBuildSide(40)
	var c chainCase
	for _, sc := range streamCases() {
		if sc.name == "select-join-agg" {
			c = sc
		}
	}
	ops := buildStreamDAG(t, c, src, dim)
	keep := func(op *ir.Op) bool { return op.Out == c.keep[0] }
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		runStream(t, ops, src, dim, RunOptions{Keep: keep})
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("bytes per run: %v", bytes)
	if bytes > 36585 {
		t.Errorf("a 40-row JOIN → AGG run allocates %v bytes, more than the 36585 it took before", bytes)
	}
}

// TestDistinctKeepsBoundRowsByReference: a distinct table over a bound
// relation, read directly or through SELECTs, emits each key's first row
// itself — the input's cells, not a copy — single-range and in halves, and
// so does INTERSECT; over PROJECT's rows, which live in a recycled arena, it
// emits copies that hold their values.
func TestDistinctKeepsBoundRowsByReference(t *testing.T) {
	in := relation.New("in", relation.NewSchema("k:int", "v:int"))
	for i := 0; i < 3000; i++ {
		in.MustAppend(relation.Row{relation.Int(int64(i % 7)), relation.Int(int64(i % 3))})
	}
	d := ir.NewDAG()
	src := d.AddInput("in", "in/in", in.Schema)
	uniq := d.Add(ir.OpDistinct, "uniq", ir.Params{}, src)
	hot := d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("k", ir.CmpGe, 2)}, src)
	hotUniq := d.Add(ir.OpDistinct, "hot_uniq", ir.Params{}, hot)
	common := d.Add(ir.OpIntersect, "common", ir.Params{}, d.Add(ir.OpSelect, "odd", ir.Params{Pred: pred("v", ir.CmpNe, 0)}, src), src)
	swapped := d.Add(ir.OpProject, "swapped", ir.Params{Columns: []string{"v", "k"}}, src)
	copied := d.Add(ir.OpDistinct, "copied", ir.Params{}, swapped)
	ops, err := d.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	// firstRows lists the first row of each (k, v) key that keep passes.
	firstRows := func(keep func(relation.Row) bool) []relation.Row {
		seen := map[[2]int64]bool{}
		var rows []relation.Row
		for _, row := range in.Rows {
			key := [2]int64{row[0].I, row[1].I}
			if keep(row) && !seen[key] {
				seen[key] = true
				rows = append(rows, row)
			}
		}
		return rows
	}
	for _, threshold := range []int{ParallelThreshold, 1} {
		withThreshold(t, threshold, func() {
			env := Env{"in": in}
			if err := RunOps(ops, env, NewTrace(), RunOptions{BatchRows: 100, Keep: func(op *ir.Op) bool { return op != hot && op.Out != "odd" && op != swapped }}); err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				op   *ir.Op
				want []relation.Row
			}{
				{uniq, firstRows(func(relation.Row) bool { return true })},
				{hotUniq, firstRows(func(r relation.Row) bool { return r[0].I >= 2 })},
				{common, firstRows(func(r relation.Row) bool { return r[1].I != 0 })},
			} {
				got := env[c.op.Out]
				if len(got.Rows) != len(c.want) {
					t.Fatalf("threshold %d: %s has %d rows, want %d", threshold, c.op.Out, len(got.Rows), len(c.want))
				}
				for i, row := range got.Rows {
					if &row[0] != &c.want[i][0] {
						t.Errorf("threshold %d: %s row %d (%v) is a copy, not the input's row %v", threshold, c.op.Out, i, row, c.want[i])
					}
				}
			}
			// PROJECT's rows live in a recycled arena: each key's first one
			// must have been copied out before the arena was reused.
			for i, row := range env[copied.Out].Rows {
				if want := in.Rows[i]; row[0].I != want[1].I || row[1].I != want[0].I {
					t.Fatalf("threshold %d: copied row %d is %v, want %v swapped", threshold, i, row, want)
				}
			}
			if n := len(env[copied.Out].Rows); n != 21 {
				t.Errorf("threshold %d: %d distinct swapped rows, want 21", threshold, n)
			}
		})
	}
}
