package exec

import (
	"sync"
	"testing"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// whileOps builds a DAG whose only non-input operator is a WHILE with a
// fusable ARITH→PROJECT body.
func whileOps(t *testing.T, src *relation.Relation) []*ir.Op {
	t.Helper()
	d := ir.NewDAG()
	in := d.AddInput("src", "in/src", src.Schema)
	body := ir.NewDAG()
	bin := body.AddInput("src", "in/src", src.Schema)
	a := body.Add(ir.OpArith, "bumped", ir.Params{Dst: "f", ALeft: ir.ColRef("f"), ARght: ir.LitOp(relation.Float(0.85)), AOp: ir.ArithMul}, bin)
	body.Add(ir.OpProject, "next", ir.Params{Columns: []string{"k", "v", "s", "f"}}, a)
	d.Add(ir.OpWhile, "looped", ir.Params{Body: body, MaxIter: 3, Carried: map[string]string{"src": "next"}}, in)
	ops, err := d.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

// TestRunOpsNilTraceWhile: RunOps documents that trace may be nil; a DAG
// holding a WHILE used to dereference it. The untraced run must compute what
// the traced run computes, fused and operator-at-a-time.
func TestRunOpsNilTraceWhile(t *testing.T) {
	src := streamRelation(31)
	for name, opts := range map[string]RunOptions{"fused": {BatchRows: 2}, "keep-all": {Keep: keepAll}} {
		t.Run(name, func(t *testing.T) {
			traced := Env{"src": src}
			if err := RunOps(whileOps(t, src), traced, NewTrace(), opts); err != nil {
				t.Fatal(err)
			}
			untraced := Env{"src": src}
			if err := RunOps(whileOps(t, src), untraced, nil, opts); err != nil {
				t.Fatalf("RunOps with a nil trace: %v", err)
			}
			sameRelation(t, "looped", traced["looped"], untraced["looped"])
		})
	}
}

// TestConcurrentRunsShareInputRows is the race proof for size accounting:
// eight goroutines evaluate every fusable shape and a WHILE, fused with
// chunk-parallel pipelines and operator-at-a-time, over the very same input
// relations.
// Sizing caches widths only in rows an evaluation built itself, so under
// -race no goroutine may be seen writing to the shared rows, and every run
// must record the serial trace.
func TestConcurrentRunsShareInputRows(t *testing.T) {
	old := ParallelThreshold
	ParallelThreshold = 8
	defer func() { ParallelThreshold = old }()
	src := streamRelation(97)
	dim := streamBuildSide(7)
	cases := streamCases()
	want := make([]*Trace, len(cases))
	for i, c := range cases {
		_, want[i] = runStream(t, buildStreamDAG(t, c, src, dim), src, dim, RunOptions{Keep: keepAll})
	}
	_, wantWhile := runStream(t, whileOps(t, src), src, dim, RunOptions{Keep: keepAll})

	// DAGs are built here: the builders may t.Fatal, which only the test's
	// own goroutine may do.
	const workers = 8
	caseOps := make([][][]*ir.Op, workers)
	loopOps := make([][]*ir.Op, workers)
	for g := range caseOps {
		for _, c := range cases {
			caseOps[g] = append(caseOps[g], buildStreamDAG(t, c, src, dim))
		}
		loopOps[g] = whileOps(t, src)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, c := range cases {
				keep := map[string]bool{}
				for _, k := range c.keep {
					keep[k] = true
				}
				opts := RunOptions{Keep: func(op *ir.Op) bool { return keep[op.Out] }, BatchRows: 1 + g%3}
				if g%2 == 1 {
					opts = RunOptions{Keep: keepAll}
				}
				env := Env{"src": src, "dim": dim}
				trace := NewTrace()
				if err := RunOps(caseOps[g][i], env, trace, opts); err != nil {
					t.Errorf("%s: %v", c.name, err)
					return
				}
				sameTrace(t, want[i], trace)
				for _, k := range c.keep {
					if err := relation.CheckWidths(env[k]); err != nil {
						t.Errorf("%s: %v", c.name, err)
					}
				}
			}
			env := Env{"src": src, "dim": dim}
			trace := NewTrace()
			loopOpts := RunOptions{BatchRows: 2}
			if g%2 == 1 {
				loopOpts = RunOptions{Keep: keepAll}
			}
			if err := RunOps(loopOps[g], env, trace, loopOpts); err != nil {
				t.Errorf("while: %v", err)
				return
			}
			sameTrace(t, wantWhile, trace)
			if err := relation.CheckWidths(env["looped"]); err != nil {
				t.Errorf("while: %v", err)
			}
		}(g)
	}
	wg.Wait()
	// The inputs themselves were sized many times and must be untouched.
	for _, rel := range []*relation.Relation{src, dim} {
		if err := relation.CheckWidths(rel); err != nil {
			t.Error(err)
		}
	}
}

// TestForeignTextRunsLikeCanonical: a relation decoded from text no encoder
// of ours wrote ("1.50", "+7", "1e3") holds the same values as its canonical
// re-encoding, so a run over it must meter the same volumes — field lengths
// of foreign text must never be taken for widths.
func TestForeignTextRunsLikeCanonical(t *testing.T) {
	foreign := "#schema\tk:int\tw:float\n#logical\t0\n" +
		"+7\t1.50\n007\t1e3\n7\t.5\n8\t2.50\n+8\t100000000\n-0\t0.250\n"
	raw, err := relation.DecodeBytes("t", []byte(foreign))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := relation.DecodeBytes("t", raw.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	if raw.PhysicalBytes() != canon.PhysicalBytes() {
		t.Fatalf("foreign text sizes %d, its canonical form %d", raw.PhysicalBytes(), canon.PhysicalBytes())
	}
	run := func(in *relation.Relation, opts RunOptions) *Trace {
		d := ir.NewDAG()
		src := d.AddInput("t", "in/t", in.Schema)
		s := d.Add(ir.OpSelect, "pos", ir.Params{Pred: pred("k", ir.CmpGt, -1)}, src)
		a := d.Add(ir.OpArith, "scaled", ir.Params{Dst: "w", ALeft: ir.ColRef("w"), ARght: ir.LitOp(relation.Float(2.5)), AOp: ir.ArithMul}, s)
		d.Add(ir.OpAgg, "tot", ir.Params{GroupBy: []string{"k"}, Aggs: []ir.AggSpec{{Func: ir.AggSum, Col: "w", As: "total"}}}, a)
		ops, err := d.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		trace := NewTrace()
		if err := RunOps(ops, Env{"t": in}, trace, opts); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	for name, opts := range map[string]RunOptions{"fused": {BatchRows: 2}, "keep-all": {Keep: keepAll}} {
		t.Run(name, func(t *testing.T) {
			sameTrace(t, run(canon, opts), run(raw, opts))
		})
	}
}
