package exec

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"musketeer/internal/dfs"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// TestStreamedSinksMatchMaterializedOutputs is the differential over the
// oracle suite's generator for the push side: every consumer-less operator of
// every seeded DAG gets a RunOptions.Sinks writer, at batch sizes 1, 2, 3 and
// the default, single-range and chunk-parallel, and what the writers hold —
// committed to DFSs of three block sizes — must be the file WriteRelation
// stores for the relation the Keep-all run materialized: the same bytes,
// blocks and Stat, under a bit-identical trace, decoding to the oracle's rows.
// The same run into columnar writers must be indistinguishable above the
// relation package: the same trace, a file that stats as the text one does
// but for its codec, and — re-opened — the cells of the text file's round
// trip as structs, cached widths included, under the same meter.
func TestStreamedSinksMatchMaterializedOutputs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	streamed, handed := 0, 0
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
		wantEnv, wantTrace := Env{"a": a, "b": b}, NewTrace()
		if err := RunOps(ops, wantEnv, wantTrace, RunOptions{Keep: keepAll}); err != nil {
			t.Fatalf("seed %d keep-all: %v\n%s", seed, err, g.d)
		}
		for _, batch := range []int{1, 2, 3, 1024} {
			for _, threshold := range []int{ParallelThreshold, 1} {
				sinks, colSinks := map[string]*relation.Writer{}, map[string]*relation.Writer{}
				for _, op := range g.d.Sinks() {
					if op.Type != ir.OpInput {
						sinks[op.Out], colSinks[op.Out] = newWriter(relation.CodecTSV), newWriter(relation.CodecColumnar)
					}
				}
				var env Env
				for _, to := range []map[string]*relation.Writer{colSinks, sinks} {
					trace := NewTrace()
					env = Env{"a": a, "b": b}
					withThreshold(t, threshold, func() {
						if err := RunOps(ops, env, trace, RunOptions{BatchRows: batch, Sinks: to}); err != nil {
							t.Fatalf("seed %d batch %d threshold %d: %v\n%s", seed, batch, threshold, err, g.d)
						}
					})
					if sameTrace(t, wantTrace, trace); t.Failed() {
						t.Fatalf("seed %d batch %d threshold %d: trace differs from keep-all\n%s", seed, batch, threshold, g.d)
					}
				}
				for name, w := range sinks {
					want := wantEnv[name]
					if got := w.Bytes(); !bytes.Equal(got, want.EncodeBytes()) || w.LogicalBytes != want.LogicalBytes {
						t.Fatalf("seed %d batch %d threshold %d: sink %s holds\n%s(logical %d), the materialized output is\n%s(logical %d)\n%s",
							seed, batch, threshold, name, got, w.LogicalBytes, want.EncodeBytes(), want.LogicalBytes, g.d)
					}
					if env[name] == nil {
						streamed++ // never materialized
					} else {
						handed++
					}
					for _, blockSize := range []int{7, 64, 0} {
						fs := dfs.NewWithConfig(dfs.Config{BlockSize: blockSize})
						if err := fs.WriteRelation("want", want); err != nil {
							t.Fatal(err)
						}
						st, err := fs.Commit("got", w)
						if err != nil {
							t.Fatal(err)
						}
						wantSt, _ := fs.Stat("want")
						wantBlocks, _ := fs.BlockCount("want")
						if blocks, _ := fs.BlockCount("got"); blocks != wantBlocks {
							t.Fatalf("seed %d sink %s block size %d: committed %d blocks, WriteRelation %d", seed, name, blockSize, blocks, wantBlocks)
						}
						if wantSt.Path = "got"; st != wantSt {
							t.Fatalf("seed %d sink %s: committed as %+v, WriteRelation's file is %+v", seed, name, st, wantSt)
						}
						back, err := fs.ReadRelation("got")
						if err != nil {
							t.Fatalf("seed %d sink %s block size %d: %v", seed, name, blockSize, err)
						}
						if err := relation.CheckWidths(back); err != nil {
							t.Fatal(err)
						}
						if back.Fingerprint() != g.vals[name].Fingerprint() || !back.Schema.Equal(g.vals[name].Schema) {
							t.Fatalf("seed %d sink %s: the committed file decodes to rows the oracle does not have\n%s", seed, name, g.d)
						}
						colSt, err := fs.Commit("col", colSinks[name])
						if wantSt.Path, wantSt.Codec = "col", relation.CodecColumnar; err != nil || colSt != wantSt {
							t.Fatalf("seed %d sink %s: committed columnar as %+v, want %+v (%v)", seed, name, colSt, wantSt, err)
						}
						sameReadBack(t, mustOpen(t, fs, "col"), mustOpen(t, fs, "got"))
						if t.Failed() {
							t.Fatalf("seed %d batch %d threshold %d sink %s block size %d\n%s", seed, batch, threshold, name, blockSize, g.d)
						}
					}
				}
			}
		}
	}
	if streamed < 300 || handed < 300 {
		t.Errorf("%d sinks streamed and %d were handed a relation over the whole suite: the generator no longer exercises both routes", streamed, handed)
	}
}

// TestSinkShapes pins which outputs stream: the rows tail of a pipeline that
// nothing else in the list reads. One that the next member, a later operator
// or a WHILE body reads, an AGG tail and a breaker's output are materialized
// and handed over whole; all of them hold the text the materialized output
// encodes to.
func TestSinkShapes(t *testing.T) {
	a := streamRelation(5000)
	a.LogicalBytes = a.PhysicalBytes() * 7
	sum := []ir.AggSpec{{Func: ir.AggSum, Col: "v", As: "total"}}
	for _, c := range []struct {
		name    string
		build   func(d *ir.DAG, a *ir.Op)
		sink    string
		streams bool
	}{
		{"pipeline tail", func(d *ir.DAG, a *ir.Op) {
			hot := d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("k", ir.CmpLt, 5)}, a)
			d.Add(ir.OpArith, "out", ir.Params{Dst: "h", ALeft: ir.ColRef("v"), ARght: ir.LitOp(relation.Float(3)), AOp: ir.ArithDiv}, hot)
		}, "out", true},
		{"pure select", func(d *ir.DAG, a *ir.Op) {
			d.Add(ir.OpSelect, "out", ir.Params{Pred: pred("k", ir.CmpLt, 5)}, a)
		}, "out", true},
		{"read by the next member", func(d *ir.DAG, a *ir.Op) {
			out := d.Add(ir.OpProject, "out", ir.Params{Columns: []string{"k", "v"}}, a)
			d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("k", ir.CmpLt, 5)}, out)
		}, "out", false},
		{"read by a later operator", func(d *ir.DAG, a *ir.Op) {
			out := d.Add(ir.OpProject, "out", ir.Params{Columns: []string{"k", "v"}}, a)
			d.Add(ir.OpDistinct, "uniq", ir.Params{}, out)
		}, "out", false},
		{"read by a loop body", func(d *ir.DAG, a *ir.Op) {
			out := d.Add(ir.OpProject, "out", ir.Params{Columns: []string{"k", "v"}}, a)
			body := ir.NewDAG()
			bin := body.AddInput("out", "out", relation.NewSchema("k:int", "v:int"))
			bumped := body.Add(ir.OpArith, "bumped", ir.Params{Dst: "v", ALeft: ir.ColRef("v"), ARght: ir.LitOp(relation.Int(1)), AOp: ir.ArithAdd}, bin)
			d.Add(ir.OpWhile, "looped", ir.Params{Body: body, MaxIter: 2, Carried: map[string]string{"out": bumped.Out}}, out)
		}, "out", false},
		{"agg tail", func(d *ir.DAG, a *ir.Op) {
			hot := d.Add(ir.OpSelect, "hot", ir.Params{Pred: pred("k", ir.CmpLt, 5)}, a)
			d.Add(ir.OpAgg, "out", ir.Params{GroupBy: []string{"k"}, Aggs: sum}, hot)
		}, "out", false},
		{"breaker", func(d *ir.DAG, a *ir.Op) {
			d.Add(ir.OpSort, "out", ir.Params{SortBy: []string{"v"}, Desc: true}, a)
		}, "out", false},
	} {
		d := ir.NewDAG()
		c.build(d, d.AddInput("src", "in/src", a.Schema))
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		ops, err := d.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		keep := func(op *ir.Op) bool { return op.Out == c.sink }
		for _, threshold := range []int{ParallelThreshold, 1} {
			withThreshold(t, threshold, func() {
				wantEnv, wantTrace := Env{"src": a}, NewTrace()
				if err := RunOps(ops, wantEnv, wantTrace, RunOptions{Keep: keep}); err != nil {
					t.Fatal(err)
				}
				w := relation.NewWriter(relation.Schema{})
				env, trace := Env{"src": a}, NewTrace()
				if err := RunOps(ops, env, trace, RunOptions{Keep: keep, Sinks: map[string]*relation.Writer{c.sink: w}}); err != nil {
					t.Fatal(err)
				}
				if streamed := env[c.sink] == nil; streamed != c.streams {
					t.Errorf("%s: streamed = %v, want %v", c.name, streamed, c.streams)
				}
				if want := wantEnv[c.sink]; !bytes.Equal(w.Bytes(), want.EncodeBytes()) || w.Rows() != len(want.Rows) || w.BodyBytes() != want.PhysicalBytes() {
					t.Errorf("%s: the sink does not hold the materialized output's text", c.name)
				}
				sameTrace(t, wantTrace, trace)
				// A sink is kept whether or not Keep names it.
				bare := relation.NewWriter(relation.Schema{})
				if err := RunOps(ops, Env{"src": a}, nil, RunOptions{Sinks: map[string]*relation.Writer{c.sink: bare}}); err != nil || !bytes.Equal(bare.Bytes(), w.Bytes()) {
					t.Errorf("%s without Keep, untraced: %v, or another text", c.name, err)
				}
			})
		}
	}
}

// pushOps is the fan-out job without its aggregation: a ×16 JOIN → ARITH
// pipeline whose output, sixteen rows per probe row, is the job's output.
func pushOps(tb testing.TB) []*ir.Op {
	ops := fanoutOps(tb)
	return ops[:len(ops)-1]
}

// pushStreamed runs the job into a sink and commits it; pushMaterialized
// keeps the output and writes the relation, which is what every job did
// before outputs became sinks.
func pushStreamed(tb testing.TB, ops []*ir.Op, src, dim *relation.Relation, fs *dfs.DFS) dfs.Stat {
	w := relation.NewWriter(relation.Schema{})
	if err := RunOps(ops, Env{"in/src": src, "in/dim": dim}, NewTrace(), RunOptions{Sinks: map[string]*relation.Writer{"shared": w}}); err != nil {
		tb.Fatal(err)
	}
	st, err := fs.Commit("shared", w)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

func pushMaterialized(tb testing.TB, ops []*ir.Op, src, dim *relation.Relation, fs *dfs.DFS) dfs.Stat {
	env := Env{"in/src": src, "in/dim": dim}
	if err := RunOps(ops, env, NewTrace(), RunOptions{Keep: func(op *ir.Op) bool { return op.Out == "shared" }}); err != nil {
		tb.Fatal(err)
	}
	if err := fs.WriteRelation("shared", env["shared"]); err != nil {
		tb.Fatal(err)
	}
	st, _ := fs.Stat("shared")
	return st
}

// TestStreamedPushAllocsTrackBytesWritten: a pipeline that ends in a sink
// holds its output as text only — the writer's segments, then the file — so
// what a run allocates grows with the bytes it writes, a few times over, and
// not with 40 bytes per value of every output row, which is what holding the
// rows costs (and what the materialized route is shown to pay).
func TestStreamedPushAllocsTrackBytesWritten(t *testing.T) {
	ops := pushOps(t)
	perRun := func(push func(testing.TB, []*ir.Op, *relation.Relation, *relation.Relation, *dfs.DFS) dfs.Stat, rows int) (alloc, written float64) {
		src, dim := fanoutInputs(rows)
		fs := dfs.New()
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			written = float64(push(t, ops, src, dim, fs).PhysicalBytes)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs, written
	}
	a1, w1 := perRun(pushStreamed, 1000)
	a2, w2 := perRun(pushStreamed, 2000)
	m1, _ := perRun(pushMaterialized, 1000)
	m2, _ := perRun(pushMaterialized, 2000)
	t.Logf("streamed: +%.0f bytes allocated for +%.0f written; materialized: +%.0f", a2-a1, w2-w1, m2-m1)
	if a2-a1 > 3.5*(w2-w1) {
		t.Errorf("16 000 more output rows (%.0f more bytes written) cost the streamed push %.0f more bytes allocated: it holds more than text", w2-w1, a2-a1)
	}
	if m2-m1 < 16000*5*40 {
		t.Errorf("the materialized push allocated only %.0f more bytes for 16 000 more five-value rows: the comparison no longer shows what streaming saves", m2-m1)
	}
}

// BenchmarkStreamPushFile runs the JOIN → ARITH job over a 20k-row probe —
// 320k output rows — and stores its output on a DFS two ways: "streamed"
// drains the pipeline into a writer and commits it (what an engine job does);
// "materialized" keeps the output relation and writes that. B/op is the
// point: the streamed run never holds the output's rows.
func BenchmarkStreamPushFile(b *testing.B) {
	b.Run("streamed", kernels.Bench)
	b.Run("materialized", kernels.Bench)
}

func pushFile(push func(testing.TB, []*ir.Op, *relation.Relation, *relation.Relation, *dfs.DFS) dfs.Stat) func(testing.TB) func(testing.TB) {
	return func(tb testing.TB) func(testing.TB) {
		ops := pushOps(tb)
		src, dim := fanoutInputs(20000)
		fs := dfs.New()
		return func(tb testing.TB) {
			if st := push(tb, ops, src, dim, fs); st.Rows != 320000 {
				tb.Fatalf("job wrote %d rows", st.Rows)
			}
		}
	}
}
