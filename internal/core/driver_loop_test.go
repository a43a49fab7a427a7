package core

import (
	"runtime"
	"slices"
	"testing"

	"musketeer/internal/allocgate"
	"musketeer/internal/cluster"
	"musketeer/internal/dfs"
	"musketeer/internal/engines"
	"musketeer/internal/exec"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
	"musketeer/internal/workloads"
)

// invariantEdges is a loop-invariant input of n rows, src 0..n-1.
func invariantEdges(n int) *relation.Relation {
	edges := relation.New("edges", relation.NewSchema("src:int", "dst:int", "w:int"))
	for i := 0; i < n; i++ {
		edges.MustAppend(relation.Row{relation.Int(int64(i)), relation.Int(int64(i * 13 % 500)), relation.Int(int64(i % 9))})
	}
	return edges
}

// sparseRanks is the loop's carried input: 100 vertices, each of which
// matches one row of invariantEdges.
func sparseRanks() *relation.Relation {
	ranks := relation.New("ranks", relation.NewSchema("vertex:int", "rank:float"))
	for i := 0; i < 100; i++ {
		ranks.MustAppend(relation.Row{relation.Int(int64(i * 7)), relation.Float(1)})
	}
	return ranks
}

// stageInvariantLoop writes ranks and edges and builds a WHILE of iters rounds
// over them whose body the caller adds: body(ranks, edges) returns the body's
// next ranks.
func stageInvariantLoop(t testing.TB, iters int, ranks, edges *relation.Relation, body func(b *ir.DAG, ranks, edges *ir.Op) *ir.Op) (*ir.DAG, *dfs.DFS) {
	t.Helper()
	fs := dfs.New()
	for path, rel := range map[string]*relation.Relation{"in/ranks": ranks, "in/edges": edges} {
		if err := fs.WriteRelation(path, rel); err != nil {
			t.Fatal(err)
		}
	}
	d := ir.NewDAG()
	inRanks, inEdges := d.AddInput("ranks", "in/ranks", ranks.Schema), d.AddInput("edges", "in/edges", edges.Schema)
	b := ir.NewDAG()
	next := body(b, b.AddInput("ranks", "", ranks.Schema), b.AddInput("edges", "", edges.Schema))
	d.Add(ir.OpWhile, "final", ir.Params{Body: b, MaxIter: iters, Carried: map[string]string{"ranks": next.Out}}, inRanks, inEdges)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d, fs
}

// planOn maps d, staged on fs, onto the one engine named, and returns what
// executing it takes: its identity, the plan and a runner over fs.
func planOn(t testing.TB, d *ir.DAG, fs *dfs.DFS, engine string) (*ir.Identity, *Partitioning, *Runner) {
	t.Helper()
	id := ir.Identify(d)
	est, err := NewEstimator(id, fs, cluster.Local(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	part, err := MapTo(d, est, engines.Registry()[engine])
	if err != nil {
		t.Fatal(err)
	}
	return id, part, &Runner{Ctx: engines.RunContext{DFS: fs, Cluster: cluster.Local(7)}, Mode: engines.ModeOptimized}
}

// TestDriverLoopDecodesInvariantInputOnce: a hadoop-driven loop whose body
// JOIN builds on a 20 000-row input the loop never rebinds decodes and
// indexes that input in its first round only, so five more rounds allocate
// less than a quarter of one decode-plus-index. Every round still pulls it.
func TestDriverLoopDecodesInvariantInputOnce(t *testing.T) {
	if raceBuild {
		t.Skip("allocation bound; the race runtime allocates on its own")
	}
	ranks, edges := sparseRanks(), invariantEdges(20000)
	joinEdges := func(b *ir.DAG, ranks, edges *ir.Op) *ir.Op {
		j := b.Add(ir.OpJoin, "sent", ir.Params{LeftCols: []string{"vertex"}, RightCols: []string{"src"}}, ranks, edges)
		return b.Add(ir.OpProject, "next", ir.Params{Columns: []string{"vertex", "rank"}}, j)
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
		d, fs := stageInvariantLoop(t, iters, ranks, edges, joinEdges)
		id, part, r := planOn(t, d, fs, "hadoop")
		return func() {
			res, err := r.Execute(id, part)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Jobs) != iters {
				t.Fatalf("%d jobs over %d rounds, want one a round", len(res.Jobs), iters)
			}
			for _, jr := range res.Jobs {
				if jr.Volumes.Pull < edges.PhysicalBytes() {
					t.Fatalf("round job %s pulled %d bytes, less than the %d of the invariant input", jr.Job, jr.Volumes.Pull, edges.PhysicalBytes())
				}
			}
		}
	}
	// One decode-plus-index: the JOIN alone over a freshly opened edges file.
	fs := dfs.New()
	if err := fs.WriteRelation("in/edges", edges); err != nil {
		t.Fatal(err)
	}
	d := ir.NewDAG()
	d.Add(ir.OpJoin, "sent", ir.Params{LeftCols: []string{"vertex"}, RightCols: []string{"src"}},
		d.AddInput("ranks", "", ranks.Schema), d.AddInput("edges", "", edges.Schema))
	ops, err := d.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	decodeIndex := allocated(func() {
		enc, _, err := fs.Open("in/edges")
		if err != nil {
			t.Fatal(err)
		}
		if err := exec.RunOps(ops, exec.Env{"ranks": ranks}, nil, exec.RunOptions{
			SkipInputs: true,
			Sources:    map[string]*relation.Encoded{"edges": enc},
		}); err != nil {
			t.Fatal(err)
		}
	})
	once, six := allocated(run(1)), allocated(run(6))
	t.Logf("decode and index %d bytes; the loop allocates %d bytes over 1 round, %d over 6", decodeIndex, once, six)
	if six-once >= decodeIndex/4 {
		t.Errorf("five more rounds allocate %d bytes, one decode-plus-index %d: the driver loop re-decodes its invariant input", six-once, decodeIndex)
	}
}

// TestDriverLoopConcurrentJoinsOnInvariantInput: two independent body JOINs
// build on the same invariant input and a third on the carried ranks, all
// feeding one UNION, so the hadoop plan runs them as concurrent jobs every
// round: two keep their own decoded copy of the invariant input, the third
// must decode its build side anew each round. Under -race this checks the
// per-job shares; the result must equal the natively iterated one.
func TestDriverLoopConcurrentJoinsOnInvariantInput(t *testing.T) {
	ranks, edges := sparseRanks(), invariantEdges(3000)
	threeJoins := func(b *ir.DAG, ranks, edges *ir.Op) *ir.Op {
		bySrc := b.Add(ir.OpJoin, "by_src", ir.Params{LeftCols: []string{"vertex"}, RightCols: []string{"src"}}, ranks, edges)
		byW := b.Add(ir.OpJoin, "by_w", ir.Params{LeftCols: []string{"vertex"}, RightCols: []string{"w"}}, ranks, edges)
		onRanks := b.Add(ir.OpJoin, "on_ranks", ir.Params{LeftCols: []string{"src"}, RightCols: []string{"vertex"}}, edges, ranks)
		p1 := b.Add(ir.OpProject, "from_src", ir.Params{Columns: []string{"dst", "rank"}}, bySrc)
		p2 := b.Add(ir.OpProject, "from_w", ir.Params{Columns: []string{"dst", "rank"}}, byW)
		p3 := b.Add(ir.OpProject, "from_ranks", ir.Params{Columns: []string{"dst", "rank"}}, onRanks)
		u := b.Add(ir.OpUnion, "all", ir.Params{}, b.Add(ir.OpUnion, "two", ir.Params{}, p1, p2), p3)
		// Grouped on no JOIN's key, so no JOIN shares the AGG's job.
		g := b.Add(ir.OpAgg, "summed", ir.Params{GroupBy: []string{"dst"}, Aggs: []ir.AggSpec{{Func: ir.AggSum, Col: "rank", As: "rank"}}}, u)
		h := b.Add(ir.OpArith, "halved", ir.Params{Dst: "rank", ALeft: ir.ColRef("rank"), ARght: ir.LitOp(relation.Float(0.5)), AOp: ir.ArithMul}, g)
		return b.Add(ir.OpProject, "next", ir.Params{Columns: []string{"dst", "rank"}, As: []string{"vertex", "rank"}}, h)
	}
	const iters = 4
	var outs [2]*relation.Relation
	for i, engine := range []string{"naiad", "hadoop"} {
		d, fs := stageInvariantLoop(t, iters, ranks, edges, threeJoins)
		id, part, r := planOn(t, d, fs, engine)
		if _, err := r.Execute(id, part); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if body := part.Jobs[0].Body; engine == "hadoop" {
			var joins []int // the body jobs that hold a JOIN
			for bi, bj := range body.Jobs {
				if slices.ContainsFunc(bj.Frag.Ops, func(op *ir.Op) bool { return op.Type == ir.OpJoin }) {
					joins = append(joins, bi)
				}
			}
			if len(joins) != 3 {
				t.Fatalf("hadoop body plan does not run the JOINs as three jobs:\n%s", body)
			}
			deps := jobDeps(body)
			for _, a := range joins {
				for _, b := range joins {
					if slices.Contains(deps[a], b) {
						t.Fatalf("hadoop body plan orders one JOIN job after another:\n%s", body)
					}
				}
			}
		}
		out, err := fs.ReadRelation("final")
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = out
	}
	if outs[0].Fingerprint() != outs[1].Fingerprint() {
		t.Error("hadoop-driven loop with concurrent JOIN jobs differs from the naiad-native result")
	}
}

// kernels is this package's gated benchmark: it times the body its entry
// sets up, and TestKernelAllocationsHoldBaseline holds the same body's
// allocations to BENCH_kernels.json.
var kernels = allocgate.Table{"BenchmarkKernelDriverLoop": driverLoop}

func TestKernelAllocationsHoldBaseline(t *testing.T) {
	if raceBuild {
		t.Skip("allocation baseline; the race runtime allocates on its own")
	}
	kernels.Check(t, "../../BENCH_kernels.json")
}

func BenchmarkKernelDriverLoop(b *testing.B) { kernels.Bench(b) }

// driverLoop is one hadoop-driven PageRank execution: five rounds of a JOIN
// job that builds on the loop-invariant edges and an AGG job. Its allocation
// counts the edges' decode and join table once.
func driverLoop(tb testing.TB) func(testing.TB) {
	wl := workloads.PageRank(workloads.LiveJournal(), 5)
	fs := dfs.New()
	if err := wl.Stage(fs); err != nil {
		tb.Fatal(err)
	}
	d, err := wl.Build()
	if err != nil {
		tb.Fatal(err)
	}
	id, part, r := planOn(tb, d, fs, "hadoop")
	return func(tb testing.TB) {
		if _, err := r.Execute(id, part); err != nil {
			tb.Fatal(err)
		}
	}
}
