package exec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"musketeer/internal/dfs"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// These tests run operator lists the way an engine job does — external
// inputs staged as DFS files, INPUT operators skipped — once with the files
// read whole and bound as relations, once with them opened and handed over as
// RunOptions.Sources, and demand the same rows in the same order, the same
// cached-width invariant and a bit-identical trace.

// stage commits rels from writers to a fresh DFS of the given block size, each
// under its relation name, as jobs commit their outputs.
func stage(t testing.TB, blockSize int, rels ...*relation.Relation) *dfs.DFS {
	t.Helper()
	fs := dfs.NewWithConfig(dfs.Config{BlockSize: blockSize})
	for _, rel := range rels {
		w := newWriter()
		w.Schema, w.LogicalBytes = rel.Schema, rel.LogicalBytes
		w.Append(rel.Rows)
		if _, err := fs.Commit(rel.Name, w); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// newWriter returns an empty writer, its schema unset, as an engine hands
// RunOps a sink.
func newWriter() *relation.Writer { return relation.NewColumnarWriter(relation.Schema{}) }

func mustOpen(t testing.TB, fs *dfs.DFS, path string) *relation.Encoded {
	t.Helper()
	enc, _, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// sameReadBack drains two opened files of one relation, written by different
// routes, and demands the same rows: every cell equal as a struct — its cached
// width included — widths that are true, the same schema and logical size,
// and the same meter reading once every row is out.
func sameReadBack(t testing.TB, got, want *relation.Encoded) {
	t.Helper()
	g, err := got.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	w, err := want.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if err := relation.CheckWidths(g); err != nil {
		t.Error(err)
	}
	if !g.Schema.Equal(w.Schema) || g.LogicalBytes != w.LogicalBytes || len(g.Rows) != len(w.Rows) || got.PhysicalBytes() != want.PhysicalBytes() {
		t.Fatalf("one file reads back %s, %d rows, logical %d, metered %d; the other %s, %d rows, logical %d, metered %d",
			g.Schema, len(g.Rows), g.LogicalBytes, got.PhysicalBytes(), w.Schema, len(w.Rows), w.LogicalBytes, want.PhysicalBytes())
	}
	for i := range w.Rows {
		for j, wv := range w.Rows[i] {
			if gv := g.Rows[i][j]; gv != wv && !(gv.Kind == relation.KindFloat && math.IsNaN(gv.F) && math.IsNaN(wv.F)) {
				t.Fatalf("row %d col %d: one file reads back %#v, the other %#v", i, j, gv, wv)
			}
		}
	}
}

// readsBackAsText drains an opened file of rel and demands what parsing rel's
// TSV yields: the same schema, logical size, rows and values, widths that are
// true, and a meter at the size of the parsed rows' text.
func readsBackAsText(t testing.TB, got *relation.Encoded, rel *relation.Relation) {
	t.Helper()
	g, err := got.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	w, err := relation.DecodeBytes(rel.Name, rel.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := relation.CheckWidths(g); err != nil {
		t.Error(err)
	}
	if !g.Schema.Equal(w.Schema) || g.LogicalBytes != w.LogicalBytes || len(g.Rows) != len(w.Rows) || got.PhysicalBytes() != w.PhysicalBytes() {
		t.Fatalf("the file reads back %s, %d rows, logical %d, metered %d; its text %s, %d rows, logical %d, size %d",
			g.Schema, len(g.Rows), g.LogicalBytes, got.PhysicalBytes(), w.Schema, len(w.Rows), w.LogicalBytes, w.PhysicalBytes())
	}
	for i := range w.Rows {
		for j, wv := range w.Rows[i] {
			if gv := g.Rows[i][j]; gv.Kind != wv.Kind || gv.String() != wv.String() {
				t.Fatalf("row %d col %d: the file reads back %v, its text %v", i, j, gv, wv)
			}
		}
	}
}

// runBound reads every file whole and binds it by name.
func runBound(t testing.TB, ops []*ir.Op, fs *dfs.DFS, opts RunOptions) (Env, *Trace) {
	t.Helper()
	env, trace := Env{}, NewTrace()
	for _, name := range fs.List() {
		rel, err := fs.ReadRelation(name)
		if err != nil {
			t.Fatal(err)
		}
		env[name] = rel
	}
	opts.SkipInputs = true
	if err := RunOps(ops, env, trace, opts); err != nil {
		t.Fatalf("bound run: %v", err)
	}
	return env, trace
}

// runSourced opens every file and hands it to RunOps undecoded.
func runSourced(t testing.TB, ops []*ir.Op, fs *dfs.DFS, opts RunOptions) (Env, *Trace, map[string]*relation.Encoded) {
	t.Helper()
	env, trace := Env{}, NewTrace()
	opts.Sources = map[string]*relation.Encoded{}
	for _, name := range fs.List() {
		src, _, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		opts.Sources[name] = src
	}
	opts.SkipInputs = true
	if err := RunOps(ops, env, trace, opts); err != nil {
		t.Fatalf("sourced run: %v", err)
	}
	return env, trace, opts.Sources
}

// sameRun compares what two runs kept for every non-INPUT operator, and
// their traces.
func sameRun(t *testing.T, ops []*ir.Op, want, got Env, wantTrace, gotTrace *Trace) {
	t.Helper()
	for _, op := range ops {
		if op.Type == ir.OpInput {
			continue
		}
		w, kept := want[op.Out]
		if g := got[op.Out]; kept != (g != nil) {
			t.Fatalf("%s: kept by one run only (bound: %v)", op, kept)
		} else if kept {
			sameRelation(t, op.Out, w, g)
		}
	}
	sameTrace(t, wantTrace, gotTrace)
}

// TestStreamedSourcesMatchBoundRelations is the differential over the oracle
// suite's generator: every seeded DAG, inputs staged on a DFS whose blocks
// cut row groups, at batch sizes 1, 2, 3 and the default, single-range and
// chunk-parallel. The files read back as their text parses, and the run over
// them opened keeps the relations, under the trace, of the run over them read
// whole.
func TestStreamedSourcesMatchBoundRelations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	streamedInputs := 0
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		a, b := genInputs(r)
		g := &dagGen{r: r, d: ir.NewDAG(), vals: map[string]*relation.Relation{"a": a, "b": b}}
		g.ops = []*ir.Op{g.d.AddInput("a", "in/a", a.Schema), g.d.AddInput("b", "in/b", b.Schema)}
		for tries, want := 0, 1+r.Intn(8); len(g.ops)-2 < want && tries < 100; tries++ {
			g.step()
		}
		ops, err := g.d.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		sinks := map[*ir.Op]bool{}
		for _, op := range g.d.Sinks() {
			sinks[op] = true
		}
		fs := stage(t, []int{7, 64, 0}[seed%3], a, b)
		for _, rel := range []*relation.Relation{a, b} {
			readsBackAsText(t, mustOpen(t, fs, rel.Name), rel)
		}
		for _, batch := range []int{1, 2, 3, 1024} {
			for _, threshold := range []int{ParallelThreshold, 1} {
				opts := RunOptions{Keep: func(op *ir.Op) bool { return sinks[op] }, BatchRows: batch}
				old := ParallelThreshold
				ParallelThreshold = threshold
				wantEnv, wantTrace := runBound(t, ops, fs, opts)
				gotEnv, gotTrace, _ := runSourced(t, ops, fs, opts)
				ParallelThreshold = old
				sameRun(t, ops, wantEnv, gotEnv, wantTrace, gotTrace)
				if t.Failed() {
					t.Fatalf("seed %d batch %d threshold %d\n%s", seed, batch, threshold, g.d)
				}
				for _, name := range []string{"a", "b"} {
					if gotEnv[name] == nil {
						streamedInputs++ // never materialized
					}
				}
			}
		}
	}
	if streamedInputs < 300 {
		t.Errorf("only %d inputs streamed over the whole suite: the generator no longer exercises the streamed scan", streamedInputs)
	}
}

// sourceCase is one directed shape over input "a" (and "b" when it joins).
type sourceCase struct {
	name     string
	build    func(d *ir.DAG, a, b *ir.Op)
	streams  bool // "a" is decoded by pipeline scans and join builds alone, never materialized
	bStreams bool // and so is "b"
}

func sourceCases() []sourceCase {
	sum := []ir.AggSpec{{Func: ir.AggSum, Col: "f", As: "total"}, {Func: ir.AggCount, As: "n"}}
	return []sourceCase{
		{"pure select", func(d *ir.DAG, a, b *ir.Op) {
			hot := d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("k", ir.CmpLt, 5)}, a)
			d.Add(ir.OpSelect, "hotter", ir.Params{Pred: pred("v", ir.CmpGt, 10)}, hot)
		}, true, false},
		{"select agg", func(d *ir.DAG, a, b *ir.Op) {
			hot := d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("k", ir.CmpLt, 5)}, a)
			d.Add(ir.OpAgg, "by_k", ir.Params{GroupBy: []string{"k"}, Aggs: sum}, hot)
		}, true, false},
		{"arith project", func(d *ir.DAG, a, b *ir.Op) {
			half := d.Add(ir.OpArith, "half", ir.Params{Dst: "h", ALeft: ir.ColRef("f"), ARght: ir.LitOp(relation.Float(2)), AOp: ir.ArithDiv}, a)
			d.Add(ir.OpProject, "slim", ir.Params{Columns: []string{"k", "h", "s"}}, half)
		}, true, false},
		{"probe of a join", func(d *ir.DAG, a, b *ir.Op) {
			d.Add(ir.OpJoin, "joined", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"bk"}}, a, b)
		}, true, true},
		{"two scans", func(d *ir.DAG, a, b *ir.Op) {
			hot := d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("k", ir.CmpLt, 5)}, a)
			d.Add(ir.OpAgg, "by_k", ir.Params{GroupBy: []string{"k"}, Aggs: sum}, hot)
			d.Add(ir.OpJoin, "joined", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"bk"}}, a, b)
		}, true, true},
		{"build of a join", func(d *ir.DAG, a, b *ir.Op) {
			d.Add(ir.OpJoin, "joined", ir.Params{LeftCols: []string{"bk"}, RightCols: []string{"k"}}, b, a)
		}, true, true},
		{"self join", func(d *ir.DAG, a, b *ir.Op) {
			d.Add(ir.OpJoin, "self", ir.Params{LeftCols: []string{"k", "v"}, RightCols: []string{"k", "v"}}, a, a)
		}, true, false},
		{"pipeline and breaker", func(d *ir.DAG, a, b *ir.Op) {
			hot := d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("k", ir.CmpLt, 5)}, a)
			d.Add(ir.OpAgg, "by_k", ir.Params{GroupBy: []string{"k"}, Aggs: sum}, hot)
			d.Add(ir.OpSort, "sorted", ir.Params{SortBy: []string{"v"}}, a)
		}, true, false},
		{"distinct", func(d *ir.DAG, a, b *ir.Op) {
			d.Add(ir.OpDistinct, "uniq", ir.Params{}, a)
		}, true, false},
		{"project distinct", func(d *ir.DAG, a, b *ir.Op) {
			slim := d.Add(ir.OpProject, "slim", ir.Params{Columns: []string{"k", "s"}}, a)
			d.Add(ir.OpDistinct, "uniq", ir.Params{}, slim)
		}, true, false},
		{"intersect", func(d *ir.DAG, a, b *ir.Op) {
			kv := d.Add(ir.OpProject, "kv", ir.Params{Columns: []string{"k", "v"}}, a)
			d.Add(ir.OpIntersect, "common", ir.Params{}, kv, b)
		}, true, true},
		{"difference", func(d *ir.DAG, a, b *ir.Op) {
			kv := d.Add(ir.OpProject, "kv", ir.Params{Columns: []string{"k", "v"}}, a)
			d.Add(ir.OpDifference, "only_b", ir.Params{}, b, kv)
			d.Add(ir.OpDifference, "only_a", ir.Params{}, kv, b)
		}, true, true},
		{"self intersect", func(d *ir.DAG, a, b *ir.Op) {
			d.Add(ir.OpIntersect, "same", ir.Params{}, a, a)
		}, true, false},
		{"select intersect", func(d *ir.DAG, a, b *ir.Op) {
			hot := d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("k", ir.CmpLt, 5)}, a)
			d.Add(ir.OpIntersect, "hot_again", ir.Params{}, hot, a)
		}, true, false},
		{"right of a join too", func(d *ir.DAG, a, b *ir.Op) {
			hot := d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("k", ir.CmpLt, 5)}, a)
			d.Add(ir.OpIntersect, "hot_again", ir.Params{}, hot, a)
			d.Add(ir.OpJoin, "joined", ir.Params{LeftCols: []string{"bk"}, RightCols: []string{"k"}}, b, a)
		}, true, true},
		{"breaker only", func(d *ir.DAG, a, b *ir.Op) {
			d.Add(ir.OpSort, "sorted", ir.Params{SortBy: []string{"f"}, Desc: true}, a)
		}, true, false},
		{"probe of a cross join", func(d *ir.DAG, a, b *ir.Op) {
			hot := d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("k", ir.CmpLt, 2)}, a)
			d.Add(ir.OpCrossJoin, "pairs", ir.Params{}, hot, b)
		}, true, true},
		{"union", func(d *ir.DAG, a, b *ir.Op) {
			kv := d.Add(ir.OpProject, "kv", ir.Params{Columns: []string{"k", "v"}}, a)
			d.Add(ir.OpUnion, "kv_b", ir.Params{}, kv, b)
			both := d.Add(ir.OpUnion, "b_kv", ir.Params{}, b, kv)
			d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("bk", ir.CmpLt, 5)}, both)
		}, true, true},
		{"self union", func(d *ir.DAG, a, b *ir.Op) {
			d.Add(ir.OpUnion, "twice", ir.Params{}, a, a)
			again := d.Add(ir.OpUnion, "again", ir.Params{}, a, a)
			d.Add(ir.OpDistinct, "uniq", ir.Params{}, again)
		}, true, false},
		{"limit", func(d *ir.DAG, a, b *ir.Op) {
			d.Add(ir.OpLimit, "first", ir.Params{Limit: 2600}, a)
			hot := d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("k", ir.CmpLt, 5)}, a)
			d.Add(ir.OpLimit, "first_hot", ir.Params{Limit: 9}, hot)
		}, true, false},
		{"udf", func(d *ir.DAG, a, b *ir.Op) {
			d.Add(ir.OpUDF, "halved", ir.Params{UDFName: "every_other"}, a, b)
		}, true, false},
		{"while", func(d *ir.DAG, a, b *ir.Op) {
			body := ir.NewDAG()
			bin := body.AddInput("a", "in/a", a.Params.Schema)
			bumped := body.Add(ir.OpArith, "bumped", ir.Params{Dst: "v", ALeft: ir.ColRef("v"), ARght: ir.LitOp(relation.Int(1)), AOp: ir.ArithAdd}, bin)
			d.Add(ir.OpWhile, "looped", ir.Params{Body: body, MaxIter: 3, Carried: map[string]string{"a": bumped.Out}}, a)
		}, false, false},
	}
}

// TestSourceShapes drives the directed shapes over a 5 000-row input — scaled
// and physical-only (`#logical 0`: every volume comes from the readers'
// meter), staged through WriteRelation as a user's table is and committed
// from a writer as a job's output is — and checks which of them stream, that
// a shared input is metered once, and that a pure-SELECT pipeline's rows
// outlive the batches they came from.
func TestSourceShapes(t *testing.T) {
	a := relation.New("a", relation.NewSchema("k:int", "v:int", "f:float", "s:string"))
	for i := 0; i < 5000; i++ {
		a.MustAppend(relation.Row{relation.Int(int64(i % 11)), relation.Int(int64(i % 97)),
			relation.Float(float64(i%64) / 4), relation.Str(fmt.Sprintf("w%d", i%5))})
	}
	b := relation.New("b", relation.NewSchema("bk:int", "w:int"))
	for i := 0; i < 9; i++ {
		b.MustAppend(relation.Row{relation.Int(int64(i)), relation.Int(int64(i * i))})
	}
	for _, variant := range []struct {
		name      string
		scale     int64
		committed bool // from a writer, not through WriteRelation
	}{{"scaled", 40, false}, {"physical-only", 0, false}, {"columnar", 40, true}, {"columnar-physical-only", 0, true}} {
		a.LogicalBytes, b.LogicalBytes = a.PhysicalBytes()*variant.scale, b.PhysicalBytes()*variant.scale
		var fs *dfs.DFS
		if variant.committed {
			fs = stage(t, 1<<10, a, b)
		} else {
			fs = dfs.NewWithConfig(dfs.Config{BlockSize: 1 << 10})
			for _, rel := range []*relation.Relation{a, b} {
				if err := fs.WriteRelation(rel.Name, rel); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, c := range sourceCases() {
			d := ir.NewDAG()
			c.build(d, d.AddInput("a", "in/a", a.Schema), d.AddInput("b", "in/b", b.Schema))
			if err := d.Validate(); err != nil {
				t.Fatal(err)
			}
			ops, err := d.TopoSort()
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range []int{3, 0} {
				for _, threshold := range []int{ParallelThreshold, 1} {
					t.Run(fmt.Sprintf("%s/%s/batch%d/threshold%d", variant.name, c.name, batch, threshold), func(t *testing.T) {
						withThreshold(t, threshold, func() {
							opts := RunOptions{BatchRows: batch} // Keep nil: only unit outputs materialize
							wantEnv, wantTrace := runBound(t, ops, fs, opts)
							gotEnv, gotTrace, srcs := runSourced(t, ops, fs, opts)
							sameRun(t, ops, wantEnv, gotEnv, wantTrace, gotTrace)
							if streamed := gotEnv["a"] == nil; streamed != c.streams {
								t.Errorf("input a streamed = %v, want %v", streamed, c.streams)
							}
							if streamed := gotEnv["b"] == nil; streamed != c.bStreams {
								t.Errorf("input b streamed = %v, want %v", streamed, c.bStreams)
							}
							// Metered once, however many consumers: the
							// meter holds one relation's worth of bytes.
							if got, want := srcs["a"].PhysicalBytes(), wantEnv["a"].PhysicalBytes(); got != want {
								t.Errorf("input a metered %d bytes, one decode is %d", got, want)
							}
						})
					})
				}
			}
		}
	}
}

// TestSourceErrorsFailTheRun: a stream that ends short of the rows its writer
// recorded fails the pipeline that streams it, and the up-front drain, naming
// the relation.
func TestSourceErrorsFailTheRun(t *testing.T) {
	sch := relation.NewSchema("k:int", "v:int")
	w := relation.NewColumnarWriter(sch)
	w.Append([]relation.Row{{relation.Int(1), relation.Int(2)}, {relation.Int(3), relation.Int(4)}})
	for _, c := range sourceCases()[:1] {
		for _, streams := range []bool{true, false} {
			d := ir.NewDAG()
			in := d.AddInput("a", "in/a", sch)
			if streams {
				c.build(d, in, nil)
			} else {
				d.Add(ir.OpJoin, "self", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"v"}}, in, in)
			}
			ops, _ := d.TopoSort()
			src, err := relation.Open("a", [][]byte{w.Bytes()}, 3)
			if err != nil {
				t.Fatal(err)
			}
			err = RunOps(ops, Env{}, NewTrace(), RunOptions{SkipInputs: true, Sources: map[string]*relation.Encoded{"a": src}})
			if err == nil || err.Error() != "relation a: stream ends short of the 3 rows its writer recorded" {
				t.Errorf("streams=%v: %v", streams, err)
			}
		}
	}
}
