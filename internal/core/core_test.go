package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"musketeer/internal/cluster"
	"musketeer/internal/dfs"
	"musketeer/internal/engines"
	"musketeer/internal/exec"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
	"musketeer/internal/workloads"
)

// --- fixtures ---------------------------------------------------------

func maxPropertyPrice() *ir.DAG {
	d := ir.NewDAG()
	props := d.AddInput("properties", "in/properties", relation.NewSchema("id:int", "street:string", "town:string"))
	prices := d.AddInput("prices", "in/prices", relation.NewSchema("id:int", "price:float"))
	locs := d.Add(ir.OpProject, "locs", ir.Params{Columns: []string{"id", "street", "town"}}, props)
	idPrice := d.Add(ir.OpJoin, "id_price", ir.Params{LeftCols: []string{"id"}, RightCols: []string{"id"}}, locs, prices)
	d.Add(ir.OpAgg, "street_price", ir.Params{
		GroupBy: []string{"street", "town"},
		Aggs:    []ir.AggSpec{{Func: ir.AggMax, Col: "price", As: "max_price"}},
	}, idPrice)
	return d
}

func seedPropertyDFS(t *testing.T, scale int64) *dfs.DFS {
	t.Helper()
	fs := dfs.New()
	props := relation.New("properties", relation.NewSchema("id:int", "street:string", "town:string"))
	streets := []string{"mill rd", "high st", "king st"}
	for i := int64(0); i < 60; i++ {
		props.MustAppend(relation.Row{relation.Int(i), relation.Str(streets[i%3]), relation.Str("cam")})
	}
	props.LogicalBytes = props.PhysicalBytes() * scale
	prices := relation.New("prices", relation.NewSchema("id:int", "price:float"))
	for i := int64(0); i < 60; i++ {
		prices.MustAppend(relation.Row{relation.Int(i), relation.Float(float64(50 + i))})
	}
	prices.LogicalBytes = prices.PhysicalBytes() * scale
	for path, rel := range map[string]*relation.Relation{"in/properties": props, "in/prices": prices} {
		if err := fs.WriteRelation(path, rel); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

func pageRankDAG(t *testing.T, iters int) *ir.DAG {
	t.Helper()
	d := ir.NewDAG()
	edges := d.AddInput("edges", "in/edges", relation.NewSchema("src:int", "dst:int", "degree:int"))
	ranks := d.AddInput("ranks", "in/ranks", relation.NewSchema("vertex:int", "rank:float"))
	body := ir.NewDAG()
	bRanks := body.AddInput("ranks", "", relation.NewSchema("vertex:int", "rank:float"))
	bEdges := body.AddInput("edges", "", relation.NewSchema("src:int", "dst:int", "degree:int"))
	j := body.Add(ir.OpJoin, "sent", ir.Params{LeftCols: []string{"vertex"}, RightCols: []string{"src"}}, bRanks, bEdges)
	sh := body.Add(ir.OpArith, "shared", ir.Params{Dst: "rank", ALeft: ir.ColRef("rank"), ARght: ir.ColRef("degree"), AOp: ir.ArithDiv}, j)
	g := body.Add(ir.OpAgg, "gathered", ir.Params{GroupBy: []string{"dst"}, Aggs: []ir.AggSpec{{Func: ir.AggSum, Col: "rank", As: "rank"}}}, sh)
	m := body.Add(ir.OpArith, "damped", ir.Params{Dst: "rank", ALeft: ir.ColRef("rank"), ARght: ir.LitOp(relation.Float(0.85)), AOp: ir.ArithMul}, g)
	ap := body.Add(ir.OpArith, "applied", ir.Params{Dst: "rank", ALeft: ir.ColRef("rank"), ARght: ir.LitOp(relation.Float(0.15)), AOp: ir.ArithAdd}, m)
	body.Add(ir.OpProject, "new_ranks", ir.Params{Columns: []string{"dst", "rank"}, As: []string{"vertex", "rank"}}, ap)
	d.Add(ir.OpWhile, "final_ranks", ir.Params{
		Body: body, MaxIter: iters,
		Carried: map[string]string{"ranks": "new_ranks"},
	}, ranks, edges)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func seedGraphDFS(t *testing.T, scale int64) *dfs.DFS {
	t.Helper()
	fs := dfs.New()
	edges := relation.New("edges", relation.NewSchema("src:int", "dst:int", "degree:int"))
	// Ring of 20 vertices plus chords.
	n := int64(20)
	deg := map[int64]int64{}
	type e struct{ s, d int64 }
	var es []e
	for i := int64(0); i < n; i++ {
		es = append(es, e{i, (i + 1) % n})
		deg[i]++
		if i%3 == 0 {
			es = append(es, e{i, (i + 7) % n})
			deg[i]++
		}
	}
	for _, ed := range es {
		edges.MustAppend(relation.Row{relation.Int(ed.s), relation.Int(ed.d), relation.Int(deg[ed.s])})
	}
	edges.LogicalBytes = edges.PhysicalBytes() * scale
	ranks := relation.New("ranks", relation.NewSchema("vertex:int", "rank:float"))
	for i := int64(0); i < n; i++ {
		ranks.MustAppend(relation.Row{relation.Int(i), relation.Float(1)})
	}
	ranks.LogicalBytes = ranks.PhysicalBytes() * scale
	if err := fs.WriteRelation("in/edges", edges); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteRelation("in/ranks", ranks); err != nil {
		t.Fatal(err)
	}
	return fs
}

func allEngines() []*engines.Engine { return engines.StandardEngines() }

// --- estimator --------------------------------------------------------

func TestEstimatorSizesAndBounds(t *testing.T) {
	dag := maxPropertyPrice()
	fs := seedPropertyDFS(t, 1000)
	est, err := NewEstimator(ir.Identify(dag), fs, cluster.Local(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	props := dag.ByOut("properties")
	if est.Size(props) <= 0 {
		t.Error("input size not seeded")
	}
	locs := dag.ByOut("locs")
	if est.Size(locs) != est.Size(props) {
		t.Errorf("PROJECT hi bound should be 1.0×: %d vs %d", est.Size(locs), est.Size(props))
	}
	join := dag.ByOut("id_price")
	inSum := est.Size(locs) + est.Size(dag.ByOut("prices"))
	if est.Size(join) != int64(3.0*float64(inSum)) {
		t.Errorf("JOIN conservative bound: %d, want 3× inputs %d", est.Size(join), inSum)
	}
}

func TestEstimatorUsesHistory(t *testing.T) {
	dag := maxPropertyPrice()
	fs := seedPropertyDFS(t, 1000)
	h := NewHistory()
	join := dag.ByOut("id_price")
	id := ir.Identify(dag)
	// Undamped (alpha 1), the observation is stored as measured.
	h.ObserveDamped(id.Key(join), Observation{OutRatio: 0.5}, 0.5, 1)
	est, err := NewEstimator(id, fs, cluster.Local(7), h)
	if err != nil {
		t.Fatal(err)
	}
	inSum := est.Size(dag.ByOut("locs")) + est.Size(dag.ByOut("prices"))
	if est.Size(join) != int64(0.5*float64(inSum)) {
		t.Errorf("history ratio ignored: %d", est.Size(join))
	}
}

func TestEstimatorMissingInput(t *testing.T) {
	dag := maxPropertyPrice()
	if _, err := NewEstimator(ir.Identify(dag), dfs.New(), cluster.Local(7), nil); err == nil {
		t.Error("missing DFS input accepted")
	}
}

func TestFragmentCostInfeasible(t *testing.T) {
	dag := maxPropertyPrice()
	fs := seedPropertyDFS(t, 1)
	est, _ := NewEstimator(ir.Identify(dag), fs, cluster.Local(7), nil)
	whole, _ := ir.NewFragment(dag, dag.Ops)
	if c := est.FragmentCost(whole, engines.Hadoop()); c != Infeasible {
		t.Errorf("two-shuffle fragment on hadoop should be infeasible, got %v", c)
	}
	if c := est.FragmentCost(whole, engines.Naiad()); c == Infeasible {
		t.Error("naiad should accept the whole workflow")
	}
}

// --- partitioning -----------------------------------------------------

func TestDynamicPartitionHadoopNeedsTwoJobs(t *testing.T) {
	dag := maxPropertyPrice()
	fs := seedPropertyDFS(t, 1000)
	est, _ := NewEstimator(ir.Identify(dag), fs, cluster.Local(7), nil)
	part, err := PartitionDynamic(dag, est, []*engines.Engine{engines.Hadoop()})
	if err != nil {
		t.Fatal(err)
	}
	// JOIN and AGG shuffle on different keys: MapReduce needs 2 jobs
	// (paper §4.3.2).
	if len(part.Jobs) != 2 {
		t.Errorf("hadoop jobs = %d, want 2\n%s", len(part.Jobs), part)
	}
}

func TestDynamicPartitionNaiadOneJob(t *testing.T) {
	dag := maxPropertyPrice()
	fs := seedPropertyDFS(t, 1000)
	est, _ := NewEstimator(ir.Identify(dag), fs, cluster.Local(7), nil)
	part, err := PartitionDynamic(dag, est, []*engines.Engine{engines.Naiad()})
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Jobs) != 1 {
		t.Errorf("naiad jobs = %d, want 1\n%s", len(part.Jobs), part)
	}
}

func TestExhaustiveNeverWorseThanDynamic(t *testing.T) {
	dag := maxPropertyPrice()
	fs := seedPropertyDFS(t, 100000)
	est, _ := NewEstimator(ir.Identify(dag), fs, cluster.Local(7), nil)
	engs := allEngines()
	dyn, err := PartitionDynamic(dag, est, engs)
	if err != nil {
		t.Fatal(err)
	}
	exh, err := PartitionExhaustive(dag, est, engs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if float64(exh.Cost) > float64(dyn.Cost)*1.0000001 {
		t.Errorf("exhaustive (%v) worse than dynamic (%v)", exh.Cost, dyn.Cost)
	}
	if !exh.Exhaustive {
		t.Error("exhaustive flag unset")
	}
}

// TestExhaustiveBeatsDynamicOnDiamond reproduces the Fig 16 limitation:
// a diamond whose linear order separates mergeable operators.
func TestExhaustiveBeatsDynamicOnDiamond(t *testing.T) {
	d := ir.NewDAG()
	in := d.AddInput("src", "in/src", relation.NewSchema("a:int", "b:int"))
	// Two parallel selects feeding a union: the topo order interleaves
	// them with the join-side branch.
	s1 := d.Add(ir.OpSelect, "s1", ir.Params{Pred: ir.Cmp(ir.ColRef("a"), ir.CmpGt, ir.LitOp(relation.Int(0)))}, in)
	g1 := d.Add(ir.OpAgg, "g1", ir.Params{GroupBy: []string{"a"}, Aggs: []ir.AggSpec{{Func: ir.AggSum, Col: "b", As: "v"}}}, s1)
	s2 := d.Add(ir.OpSelect, "s2", ir.Params{Pred: ir.Cmp(ir.ColRef("b"), ir.CmpGt, ir.LitOp(relation.Int(0)))}, in)
	g2 := d.Add(ir.OpAgg, "g2", ir.Params{GroupBy: []string{"a"}, Aggs: []ir.AggSpec{{Func: ir.AggSum, Col: "b", As: "v"}}}, s2)
	d.Add(ir.OpUnion, "u", ir.Params{}, g1, g2)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	fs := dfs.New()
	src := relation.New("src", relation.NewSchema("a:int", "b:int"))
	src.MustAppend(relation.Row{relation.Int(1), relation.Int(2)})
	src.LogicalBytes = 10e9
	if err := fs.WriteRelation("in/src", src); err != nil {
		t.Fatal(err)
	}
	est, err := NewEstimator(ir.Identify(d), fs, cluster.Local(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Hadoop only: each AGG needs its own shuffle, but s1+g1 and s2+g2
	// merge; the union is map-only. The linear order s1,g1,s2,g2,u can
	// still find this; exhaustive must be at least as good.
	engs := []*engines.Engine{engines.Hadoop()}
	dyn, err := PartitionDynamic(d, est, engs)
	if err != nil {
		t.Fatal(err)
	}
	exh, err := PartitionExhaustive(d, est, engs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if exh.Cost > dyn.Cost {
		t.Errorf("exhaustive %v > dynamic %v", exh.Cost, dyn.Cost)
	}
}

// fig16DAG reproduces the paper's Figure 16 limitation: the depth-first
// linear ordering interleaves an aggregation between a JOIN and the PROJECT
// that could share its MapReduce job.
func fig16DAG(t *testing.T) (*ir.DAG, *dfs.DFS) {
	t.Helper()
	d := ir.NewDAG()
	a := d.AddInput("a", "in/a", relation.NewSchema("k:int", "v:int"))
	b := d.AddInput("b", "in/b", relation.NewSchema("k:int", "w:int"))
	j := d.Add(ir.OpJoin, "j", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"k"}}, a, b)
	c := d.AddInput("c", "in/c", relation.NewSchema("q:int", "x:int"))
	g := d.Add(ir.OpAgg, "g", ir.Params{GroupBy: []string{"q"}, Aggs: []ir.AggSpec{{Func: ir.AggSum, Col: "x", As: "x"}}}, c)
	p := d.Add(ir.OpProject, "p", ir.Params{Columns: []string{"k", "w"}}, j)
	d.Add(ir.OpUnion, "u", ir.Params{}, p, g)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	fs := dfs.New()
	for _, name := range []string{"a", "b", "c"} {
		schema := relation.NewSchema("k:int", "v:int")
		if name == "b" {
			schema = relation.NewSchema("k:int", "w:int")
		}
		if name == "c" {
			schema = relation.NewSchema("q:int", "x:int")
		}
		rel := relation.New(name, schema)
		for i := int64(0); i < 10; i++ {
			rel.MustAppend(relation.Row{relation.Int(i % 3), relation.Int(i)})
		}
		rel.LogicalBytes = 5e9
		if err := fs.WriteRelation("in/"+name, rel); err != nil {
			t.Fatal(err)
		}
	}
	return d, fs
}

func TestFig16DynamicMissesMergeExhaustiveFinds(t *testing.T) {
	d, fs := fig16DAG(t)
	est, err := NewEstimator(ir.Identify(d), fs, cluster.Local(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	engs := []*engines.Engine{engines.Hadoop()}
	dyn, err := PartitionDynamic(d, est, engs)
	if err != nil {
		t.Fatal(err)
	}
	exh, err := PartitionExhaustive(d, est, engs, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The single depth-first order is j, g, p, u: merging j with p would
	// drag g into the job (two different-key shuffles), so the heuristic
	// returns a costlier segmentation than the optimum (paper Fig 16).
	if dyn.Cost <= exh.Cost {
		t.Fatalf("expected the heuristic to miss the merge: dynamic %v vs exhaustive %v\ndyn:\n%s\nexh:\n%s",
			dyn.Cost, exh.Cost, dyn, exh)
	}
	// §8's mitigation: trying multiple linear orderings recovers it.
	multi, err := PartitionDynamicMulti(d, est, engs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if float64(multi.Cost) > float64(exh.Cost)*1.0000001 {
		t.Errorf("multi-order heuristic (%v) did not recover the exhaustive cost (%v)", multi.Cost, exh.Cost)
	}
}

func TestPartitionDynamicMultiNeverWorse(t *testing.T) {
	dag := maxPropertyPrice()
	fs := seedPropertyDFS(t, 100000)
	est, _ := NewEstimator(ir.Identify(dag), fs, cluster.Local(7), nil)
	engs := allEngines()
	single, err := PartitionDynamic(dag, est, engs)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := PartitionDynamicMulti(dag, est, engs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Cost > single.Cost {
		t.Errorf("multi (%v) worse than single order (%v)", multi.Cost, single.Cost)
	}
}

func TestPartitionAutoSwitches(t *testing.T) {
	dag := maxPropertyPrice()
	fs := seedPropertyDFS(t, 10)
	est, _ := NewEstimator(ir.Identify(dag), fs, cluster.Local(7), nil)
	part, err := Partition(dag, est, allEngines())
	if err != nil {
		t.Fatal(err)
	}
	if !part.Exhaustive {
		t.Error("small workflow should use exhaustive search")
	}
}

func TestPartitionPageRankPrefersGraphEngines(t *testing.T) {
	dag := pageRankDAG(t, 5)
	fs := seedGraphDFS(t, 2_000_000) // large graph
	est, _ := NewEstimator(ir.Identify(dag), fs, cluster.EC2(16), nil)
	part, err := AutoMap(dag, est, allEngines())
	if err != nil {
		t.Fatal(err)
	}
	name := part.Jobs[0].Engine.Name()
	if name == "hadoop" || name == "metis" {
		t.Errorf("iterative graph workflow mapped to %s\n%s", name, part)
	}
}

// --- runner -----------------------------------------------------------

func runWorkflow(t *testing.T, dag *ir.DAG, fs *dfs.DFS, c *cluster.Cluster, engs []*engines.Engine, h *History) *WorkflowResult {
	t.Helper()
	est, err := NewEstimator(ir.Identify(dag), fs, c, h)
	if err != nil {
		t.Fatal(err)
	}
	part, err := AutoMap(dag, est, engs)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Ctx: engines.RunContext{DFS: fs, Cluster: c}, History: h, Mode: engines.ModeOptimized}
	res, err := r.Execute(ir.Identify(dag), part)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunnerEndToEnd(t *testing.T) {
	dag := maxPropertyPrice()
	fs := seedPropertyDFS(t, 1000)
	res := runWorkflow(t, dag, fs, cluster.Local(7), allEngines(), nil)
	if res.Makespan <= 0 || len(res.Jobs) == 0 {
		t.Fatalf("result = %+v", res)
	}
	out, err := fs.ReadRelation("street_price")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Errorf("street_price rows = %d", out.NumRows())
	}
}

// TestRunnerWhileDriverOnHadoopMatchesNative: every WHILE the workloads
// run, and the countdown whose stop condition bounds it, computes the same
// relation and records the same round count in history whether naiad
// iterates it natively or the runner drives it round by round on hadoop. A
// countdown its cap cuts short fails on both paths with the same typed
// error.
func TestRunnerWhileDriverOnHadoopMatchesNative(t *testing.T) {
	g := workloads.GenerateGraph("g", 100, 400, 20, 1)
	h := workloads.GenerateGraph("h", 100, 400, 20, 2)
	staged := func(w *workloads.Workload) func(*testing.T) (*ir.DAG, *dfs.DFS) {
		return func(t *testing.T) (*ir.DAG, *dfs.DFS) {
			fs := dfs.New()
			if err := w.Stage(fs); err != nil {
				t.Fatal(err)
			}
			d, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			return d, fs
		}
	}
	countdown := func(start, maxIter int) func(*testing.T) (*ir.DAG, *dfs.DFS) {
		return func(t *testing.T) (*ir.DAG, *dfs.DFS) { return countdownDAG(t, start, maxIter) }
	}
	for _, tc := range []struct {
		name  string
		build func(*testing.T) (*ir.DAG, *dfs.DFS)
		iters int // rounds every run must record; 0 when the cap cuts it short
		// jobsPerRound is the fewest hadoop jobs a round takes: one per
		// shuffle in the body.
		jobsPerRound int
		// rounding: float cells may differ in the last bits. k-means'
		// centers are AVGs, exec sums a group in two halves once a
		// pipeline's input reaches ParallelThreshold rows, and naiad's one
		// body job and hadoop's body jobs cut their pipelines at different
		// relations.
		rounding bool
	}{
		{"pagerank", staged(workloads.PageRank(g, 4)), 4, 2, false},
		{"sssp", staged(workloads.SSSP(g, 4)), 4, 2, false},
		{"kmeans", staged(workloads.KMeans(1_000_000, 4, 4)), 4, 2, true},
		{"cross-community", staged(workloads.CrossCommunityPageRank(g, h, 4)), 4, 2, false},
		{"countdown", countdown(5, 100), 5, 1, false},
		{"countdown capped", countdown(10, 3), 0, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type run struct {
				res   *WorkflowResult
				out   *relation.Relation
				iters int
				err   error
			}
			runOn := func(engine string) run {
				dag, fs := tc.build(t)
				c := cluster.EC2(16)
				hist := NewHistory()
				est, err := NewEstimator(ir.Identify(dag), fs, c, hist)
				if err != nil {
					t.Fatal(err)
				}
				part, err := AutoMap(dag, est, []*engines.Engine{engines.Registry()[engine]})
				if err != nil {
					t.Fatal(err)
				}
				r := &Runner{Ctx: engines.RunContext{DFS: fs, Cluster: c}, History: hist, Mode: engines.ModeOptimized}
				res, err := r.Execute(ir.Identify(dag), part)
				if err != nil {
					return run{err: err}
				}
				var w *ir.Op
				for _, op := range dag.Ops {
					if op.Type == ir.OpWhile {
						w = op
					}
				}
				obs, _ := hist.Lookup(ir.Identify(dag).Key(w))
				out, err := fs.ReadRelation(dag.Sinks()[0].Out)
				if err != nil {
					t.Fatal(err)
				}
				return run{res, out, obs.Iterations, nil}
			}
			native, driven := runOn("naiad"), runOn("hadoop")
			if tc.iters == 0 {
				var nn, dn *ir.NotConvergedError
				if !errors.As(native.err, &nn) || !errors.As(driven.err, &dn) || *nn != *dn {
					t.Fatalf("capped loop: native %v, driven %v; want the same NotConvergedError", native.err, driven.err)
				}
				return
			}
			if native.err != nil || driven.err != nil {
				t.Fatalf("native %v, driven %v", native.err, driven.err)
			}
			same := native.out.Fingerprint() == driven.out.Fingerprint()
			if tc.rounding {
				same = equalUpToRounding(native.out, driven.out)
			}
			if !same {
				t.Errorf("hadoop-driven loop differs from naiad-native result:\n%v\n%v", native.out.Rows, driven.out.Rows)
			}
			if native.iters != tc.iters || driven.iters != tc.iters {
				t.Errorf("history records %d rounds native, %d driven, want %d", native.iters, driven.iters, tc.iters)
			}
			// Hadoop pays per-iteration job overheads: it must be far slower.
			if driven.res.Makespan < native.res.Makespan*3 {
				t.Errorf("hadoop (%v) should be much slower than naiad (%v)", driven.res.Makespan, native.res.Makespan)
			}
			if want := tc.jobsPerRound * tc.iters; len(driven.res.Jobs) < want {
				t.Errorf("hadoop jobs = %d, want ≥ %d", len(driven.res.Jobs), want)
			}
		})
	}
}

// equalUpToRounding reports whether a and b hold the same rows in the same
// order, float cells agreeing to within 1e-12 of their magnitude.
func equalUpToRounding(a, b *relation.Relation) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j, x := range a.Rows[i] {
			y := b.Rows[i][j]
			if x.Kind != y.Kind || x.I != y.I || x.S != y.S ||
				math.Abs(x.F-y.F) > 1e-12*math.Max(math.Abs(x.F), math.Abs(y.F)) {
				return false
			}
		}
	}
	return true
}

// TestWhileDriverCondRel exercises the driver-looped data-dependent stop
// condition: a countdown loop on Hadoop must stop when the condition
// relation empties, matching the natively iterated result.
func TestWhileDriverCondRel(t *testing.T) {
	build := func() *ir.DAG {
		d := ir.NewDAG()
		in := d.AddInput("counter", "in/counter", relation.NewSchema("v:int"))
		body := ir.NewDAG()
		bIn := body.AddInput("counter", "", relation.NewSchema("v:int"))
		dec := body.Add(ir.OpArith, "next", ir.Params{Dst: "v", ALeft: ir.ColRef("v"), ARght: ir.LitOp(relation.Int(1)), AOp: ir.ArithSub}, bIn)
		body.Add(ir.OpSelect, "pending", ir.Params{Pred: ir.Cmp(ir.ColRef("v"), ir.CmpGt, ir.LitOp(relation.Int(0)))}, dec)
		d.Add(ir.OpWhile, "done", ir.Params{
			Body: body, MaxIter: 100, CondRel: "pending",
			Carried: map[string]string{"counter": "next"},
		}, in)
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	run := func(engine string) *relation.Relation {
		fs := dfs.New()
		counter := relation.New("counter", relation.NewSchema("v:int"))
		counter.MustAppend(relation.Row{relation.Int(5)})
		counter.LogicalBytes = 1e9
		if err := fs.WriteRelation("in/counter", counter); err != nil {
			t.Fatal(err)
		}
		dag := build()
		est, err := NewEstimator(ir.Identify(dag), fs, cluster.Local(7), nil)
		if err != nil {
			t.Fatal(err)
		}
		part, err := AutoMap(dag, est, []*engines.Engine{engines.Registry()[engine]})
		if err != nil {
			t.Fatal(err)
		}
		r := &Runner{Ctx: engines.RunContext{DFS: fs, Cluster: cluster.Local(7)}, Mode: engines.ModeOptimized}
		res, err := r.Execute(ir.Identify(dag), part)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if engine == "hadoop" && len(res.Jobs) < 5 {
			t.Errorf("hadoop driver loop ran %d jobs, want ≥5 (one per iteration)", len(res.Jobs))
		}
		out, err := fs.ReadRelation("done")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	hadoopOut := run("hadoop") // driver-looped, condition checked from DFS
	naiadOut := run("naiad")   // native iteration
	if hadoopOut.Fingerprint() != naiadOut.Fingerprint() {
		t.Errorf("driver loop result %v != native result %v", hadoopOut.Rows, naiadOut.Rows)
	}
	if hadoopOut.Rows[0][0].I != 0 {
		t.Errorf("countdown ended at %v, want 0", hadoopOut.Rows[0][0])
	}
}

func TestRunnerRecordsHistory(t *testing.T) {
	dag := maxPropertyPrice()
	fs := seedPropertyDFS(t, 1000)
	h := NewHistory()
	runWorkflow(t, dag, fs, cluster.Local(7), allEngines(), h)
	if observedOps(h, dag) == 0 {
		t.Error("no history recorded")
	}
}

// observedOps counts the operators of dag the history holds an observation
// of.
func observedOps(h *History, dag *ir.DAG) int {
	id, n := ir.Identify(dag), 0
	for _, op := range dag.Ops {
		if _, ok := h.Lookup(id.Key(op)); ok {
			n++
		}
	}
	return n
}

func TestHistoryImprovesEstimates(t *testing.T) {
	// Merged runs only reveal fragment-boundary sizes (partial history);
	// the per-operator profiling run of §6.7 yields full history. Profile
	// the workflow operator by operator and check the JOIN's conservative
	// 3× bound tightens to the observed ratio.
	dag := maxPropertyPrice()
	fs := seedPropertyDFS(t, 1000)
	c := cluster.Local(7)
	h := NewHistory()
	est, err := NewEstimator(ir.Identify(dag), fs, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	part, err := PerOperatorPartitioning(dag, est, engines.Spark())
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Ctx: engines.RunContext{DFS: fs, Cluster: c}, History: h, Mode: engines.ModeOptimized}
	if _, err := r.Execute(ir.Identify(dag), part); err != nil {
		t.Fatal(err)
	}
	if n := observedOps(h, dag); n < 3 {
		t.Fatalf("profiling coverage = %d, want all 3 compute ops", n)
	}
	estCold, _ := NewEstimator(ir.Identify(maxPropertyPrice()), fs, c, nil)
	estWarm, _ := NewEstimator(ir.Identify(maxPropertyPrice()), fs, c, h)
	cold := estCold.Size(estCold.id.DAG.ByOut("id_price"))
	warm := estWarm.Size(estWarm.id.DAG.ByOut("id_price"))
	if warm >= cold {
		t.Errorf("history did not tighten join bound: warm %d vs cold %d", warm, cold)
	}
}

func TestPerOperatorPartitioning(t *testing.T) {
	dag := maxPropertyPrice()
	fs := seedPropertyDFS(t, 1000)
	est, _ := NewEstimator(ir.Identify(dag), fs, cluster.Local(7), nil)
	part, err := PerOperatorPartitioning(dag, est, engines.Spark())
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Jobs) != 3 {
		t.Errorf("per-op jobs = %d, want 3", len(part.Jobs))
	}
	// Merging on: strictly cheaper than per-op (paper §6.5).
	merged, _ := PartitionDynamic(dag, est, []*engines.Engine{engines.Spark()})
	if merged.Cost >= part.Cost {
		t.Errorf("merged (%v) should beat per-op (%v)", merged.Cost, part.Cost)
	}
}

// --- optimizer --------------------------------------------------------

func TestOptimizePushesSelectBelowJoin(t *testing.T) {
	d := ir.NewDAG()
	a := d.AddInput("a", "in/a", relation.NewSchema("k:int", "v:int"))
	b := d.AddInput("b", "in/b", relation.NewSchema("k:int", "w:int"))
	j := d.Add(ir.OpJoin, "j", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"k"}}, a, b)
	d.Add(ir.OpSelect, "f", ir.Params{Pred: ir.Cmp(ir.ColRef("v"), ir.CmpGt, ir.LitOp(relation.Int(5)))}, j)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}

	ra := relation.New("a", relation.NewSchema("k:int", "v:int"))
	rb := relation.New("b", relation.NewSchema("k:int", "w:int"))
	for i := int64(0); i < 10; i++ {
		ra.MustAppend(relation.Row{relation.Int(i % 4), relation.Int(i)})
		rb.MustAppend(relation.Row{relation.Int(i % 4), relation.Int(100 + i)})
	}
	before, _, err := exec.RunDAG(d, exec.Env{"a": ra, "b": rb})
	if err != nil {
		t.Fatal(err)
	}

	n := Optimize(d)
	if n == 0 {
		t.Fatal("no rewrites applied")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("optimized DAG invalid: %v\n%s", err, d)
	}
	// The select must now sit below the join, reading input a.
	f := d.ByOut("f")
	if f.Type != ir.OpJoin {
		t.Errorf("final op should be the join renamed to f, got %v", f)
	}
	after, _, err := exec.RunDAG(d, exec.Env{"a": ra, "b": rb})
	if err != nil {
		t.Fatal(err)
	}
	if before["f"].Fingerprint() != after["f"].Fingerprint() {
		t.Error("optimization changed results")
	}
}

func TestOptimizePushesSelectBelowProject(t *testing.T) {
	d := ir.NewDAG()
	in := d.AddInput("t", "in/t", relation.NewSchema("a:int", "b:int"))
	p := d.Add(ir.OpProject, "p", ir.Params{Columns: []string{"a"}}, in)
	d.Add(ir.OpSelect, "f", ir.Params{Pred: ir.Cmp(ir.ColRef("a"), ir.CmpGt, ir.LitOp(relation.Int(0)))}, p)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	rt := relation.New("t", relation.NewSchema("a:int", "b:int"))
	for i := int64(-5); i < 5; i++ {
		rt.MustAppend(relation.Row{relation.Int(i), relation.Int(i * 2)})
	}
	before, _, _ := exec.RunDAG(d, exec.Env{"t": rt})
	if Optimize(d) == 0 {
		t.Fatal("no rewrites")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	after, _, err := exec.RunDAG(d, exec.Env{"t": rt})
	if err != nil {
		t.Fatal(err)
	}
	if before["f"].Fingerprint() != after["f"].Fingerprint() {
		t.Error("optimization changed results")
	}
	if d.ByOut("f").Type != ir.OpProject {
		t.Errorf("project should now be last: %s", d)
	}
}

func TestOptimizeFusesSelects(t *testing.T) {
	d := ir.NewDAG()
	in := d.AddInput("t", "in/t", relation.NewSchema("a:int", "b:int"))
	s1 := d.Add(ir.OpSelect, "s1", ir.Params{Pred: ir.Cmp(ir.ColRef("a"), ir.CmpGt, ir.LitOp(relation.Int(0)))}, in)
	d.Add(ir.OpSelect, "s2", ir.Params{Pred: ir.Cmp(ir.ColRef("b"), ir.CmpLt, ir.LitOp(relation.Int(10)))}, s1)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	rt := relation.New("t", relation.NewSchema("a:int", "b:int"))
	for i := int64(-5); i < 15; i++ {
		rt.MustAppend(relation.Row{relation.Int(i), relation.Int(i)})
	}
	before, _, _ := exec.RunDAG(d, exec.Env{"t": rt})
	if n := Optimize(d); n == 0 {
		t.Fatal("selects not fused")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Ops) != 2 {
		t.Errorf("ops after fusion = %d, want input+select", len(d.Ops))
	}
	after, _, err := exec.RunDAG(d, exec.Env{"t": rt})
	if err != nil {
		t.Fatal(err)
	}
	if before["s2"].Fingerprint() != after["s2"].Fingerprint() {
		t.Error("fusion changed results")
	}
}

func TestOptimizeSkipsSharedIntermediates(t *testing.T) {
	d := ir.NewDAG()
	a := d.AddInput("a", "in/a", relation.NewSchema("k:int", "v:int"))
	b := d.AddInput("b", "in/b", relation.NewSchema("k:int", "w:int"))
	j := d.Add(ir.OpJoin, "j", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"k"}}, a, b)
	d.Add(ir.OpSelect, "f", ir.Params{Pred: ir.Cmp(ir.ColRef("v"), ir.CmpGt, ir.LitOp(relation.Int(5)))}, j)
	d.Add(ir.OpDistinct, "d2", ir.Params{}, j) // second consumer of the join
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := Optimize(d); n != 0 {
		t.Errorf("rewrote shared intermediate (%d rewrites)", n)
	}
}

// TestIndependentJobsOverlap: jobs without data dependencies run
// concurrently, so the workflow makespan is the critical path, not the sum
// of job times. The partition is built by hand — two independent branch
// jobs feeding a union job — because the cost-based partitioners are free
// to merge a branch into the union's job and produce a chain instead.
func TestIndependentJobsOverlap(t *testing.T) {
	d, fs := fig16DAG(t) // two independent branches feeding a union
	hadoop := engines.Hadoop()
	var jobs []Assignment
	for _, group := range [][]*ir.Op{
		{d.ByOut("j"), d.ByOut("p")}, // branch A: join + project
		{d.ByOut("g")},               // branch B: aggregate
		{d.ByOut("u")},               // union of both branches
	} {
		frag, err := ir.NewFragment(d, group)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, Assignment{Frag: frag, Engine: hadoop})
	}
	part := &Partitioning{Jobs: jobs}
	r := &Runner{Ctx: engines.RunContext{DFS: fs, Cluster: cluster.Local(7)}, Mode: engines.ModeOptimized}
	res, err := r.Execute(ir.Identify(d), part)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 3 {
		t.Fatalf("expected 3 job runs, got %d", len(res.Jobs))
	}
	if res.Makespan >= res.SumJobTime {
		t.Errorf("makespan (%v) should be below the sum of job times (%v): independent jobs overlap",
			res.Makespan, res.SumJobTime)
	}
	// The critical path is the slower branch plus the union.
	branch := res.Jobs[0].Makespan
	if res.Jobs[1].Makespan > branch {
		branch = res.Jobs[1].Makespan
	}
	if want := branch + res.Jobs[2].Makespan; res.Makespan != want {
		t.Errorf("makespan = %v, want slower branch + union = %v", res.Makespan, want)
	}
}

// TestEstimatorTracksMeasuredOrdering checks that the planning-time cost
// function ranks options the same way measured execution does — the
// property automatic mapping relies on. We compare two engines whose
// measured makespans differ clearly on the same workload.
func TestEstimatorTracksMeasuredOrdering(t *testing.T) {
	c := cluster.EC2(100)
	run := func(engName string) (cluster.Seconds, cluster.Seconds) {
		dag := pageRankDAG(t, 5)
		fs := seedGraphDFS(t, 2_000_000)
		est, err := NewEstimator(ir.Identify(dag), fs, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng := engines.Registry()[engName]
		part, err := AutoMap(dag, est, []*engines.Engine{eng})
		if err != nil {
			t.Fatal(err)
		}
		r := &Runner{Ctx: engines.RunContext{DFS: fs, Cluster: c}, Mode: engines.ModeOptimized}
		res, err := r.Execute(ir.Identify(dag), part)
		if err != nil {
			t.Fatal(err)
		}
		return part.Cost, res.Makespan
	}
	naiadEst, naiadMeasured := run("naiad")
	hadoopEst, hadoopMeasured := run("hadoop")
	if !(naiadMeasured < hadoopMeasured) {
		t.Fatalf("expected naiad (%v) to measure faster than hadoop (%v)", naiadMeasured, hadoopMeasured)
	}
	if !(naiadEst < hadoopEst) {
		t.Errorf("estimates disagree with measurement: naiad est %v vs hadoop est %v", naiadEst, hadoopEst)
	}
	// Estimates should be in the same order of magnitude as measurement
	// (conservative bounds may inflate, but not unboundedly).
	for _, pair := range []struct {
		name     string
		est, mea cluster.Seconds
	}{{"naiad", naiadEst, naiadMeasured}, {"hadoop", hadoopEst, hadoopMeasured}} {
		ratio := float64(pair.est) / float64(pair.mea)
		if ratio < 0.05 || ratio > 20 {
			t.Errorf("%s estimate %v vs measured %v (ratio %.2f) out of range", pair.name, pair.est, pair.mea, ratio)
		}
	}
}

// --- decision tree & history persistence ------------------------------

func TestDecisionTreeChoices(t *testing.T) {
	reg := engines.Registry()
	c := cluster.EC2(16)

	// Small graph → graphchi.
	dagG := pageRankDAG(t, 5)
	fsG := seedGraphDFS(t, 1000)
	estG, _ := NewEstimator(ir.Identify(dagG), fsG, c, nil)
	e, err := DecisionTree(dagG, estG, reg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "graphchi" {
		t.Errorf("small graph choice = %s", e.Name())
	}

	// Large graph → powergraph.
	fsG2 := seedGraphDFS(t, 10_000_000)
	estG2, _ := NewEstimator(ir.Identify(dagG), fsG2, c, nil)
	e2, _ := DecisionTree(dagG, estG2, reg)
	if e2.Name() != "powergraph" {
		t.Errorf("large graph choice = %s", e2.Name())
	}

	// Small batch → metis; large batch → hadoop.
	dagB := maxPropertyPrice()
	fsB := seedPropertyDFS(t, 10)
	estB, _ := NewEstimator(ir.Identify(dagB), fsB, c, nil)
	e3, _ := DecisionTree(dagB, estB, reg)
	if e3.Name() != "metis" {
		t.Errorf("small batch choice = %s", e3.Name())
	}
	fsB2 := seedPropertyDFS(t, 10_000_000)
	estB2, _ := NewEstimator(ir.Identify(dagB), fsB2, c, nil)
	e4, _ := DecisionTree(dagB, estB2, reg)
	if e4.Name() != "hadoop" {
		t.Errorf("large batch choice = %s", e4.Name())
	}
}

func TestHistorySaveLoad(t *testing.T) {
	h := NewHistory()
	h.ObserveDamped("k3", Observation{OutRatio: 0.25}, 0.25, 1)
	h.ObserveIterations("k3", 7)
	path := filepath.Join(t.TempDir(), "history.json")
	if err := h.Save(path); err != nil {
		t.Fatal(err)
	}
	h2, err := LoadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	obs, ok := h2.Lookup("k3")
	if !ok || math.Abs(obs.OutRatio-0.25) > 1e-12 || obs.Iterations != 7 {
		t.Errorf("round trip = %+v %v", obs, ok)
	}
	h3, err := LoadHistory(filepath.Join(t.TempDir(), "missing.json"))
	if err != nil || h3 == nil {
		t.Errorf("missing file should load empty: %v", err)
	} else if _, ok := h3.Lookup("k3"); ok {
		t.Error("a missing file loaded observations")
	}
}

// TestLoadHistoryRefusesUnversionedFile: a history file written before
// observations were keyed per operator holds no version, and its keys name
// whole workflows. Loading it fails, naming the file, instead of silently
// planning from nothing.
func TestLoadHistoryRefusesUnversionedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"ops": {"ebd7585037712c39": {"3": {"out_ratio": 0.5}}}, "runtimes": {"ebd7585037712c39|0,1,|naiad": 4.2}}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := LoadHistory(path)
	if err == nil {
		t.Fatalf("unversioned history loaded: %+v", h)
	}
	for _, want := range []string{path, "predates per-operator keys"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
}

func TestExplainRendersReasoning(t *testing.T) {
	dag := pageRankDAG(t, 5)
	fs := seedGraphDFS(t, 100000)
	h := NewHistory()
	est, err := NewEstimator(ir.Identify(dag), fs, cluster.EC2(16), h)
	if err != nil {
		t.Fatal(err)
	}
	part, err := AutoMap(dag, est, allEngines())
	if err != nil {
		t.Fatal(err)
	}
	text := Explain(part, est, allEngines())
	for _, want := range []string{"volumes:", "engine costs:", "iterative:", "graph idiom", "*"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q:\n%s", want, text)
		}
	}
	// An engine that cannot run a job as one says why.
	prices := maxPropertyPrice()
	pricesEst, err := NewEstimator(ir.Identify(prices), seedPropertyDFS(t, 10), cluster.Local(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := AutoMap(prices, pricesEst, []*engines.Engine{engines.Spark()})
	if err != nil {
		t.Fatal(err)
	}
	text = Explain(merged, pricesEst, allEngines())
	for _, want := range []string{
		" hadoop=infeasible (shuffles JOIN and AGG need separate jobs)",
		" powergraph=infeasible (vertex-centric back-end cannot merge 3 operators)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q:\n%s", want, text)
		}
	}
}

func TestExhaustiveBudgetExpires(t *testing.T) {
	dag := maxPropertyPrice()
	fs := seedPropertyDFS(t, 10)
	est, _ := NewEstimator(ir.Identify(dag), fs, cluster.Local(7), nil)
	// A 1ns budget must still return some feasible partitioning or error,
	// never hang.
	part, err := PartitionExhaustive(dag, est, allEngines(), 1)
	if err == nil && part.Cost == Infeasible {
		t.Error("returned infeasible partitioning without error")
	}
}

// TestExplainShowsThePricedVolumes: the pull=/push= figures Explain prints
// for a job are the bytes FragmentCost priced — sources, the edge between the
// two jobs and the sink, each at its full size — and the printed volumes
// price to exactly the cost on the line beneath them. A driver-looped WHILE
// prints its body's jobs instead: their volumes price to their costs, which
// times the iterations is the cost of the loop.
func TestExplainShowsThePricedVolumes(t *testing.T) {
	hadoop := engines.Hadoop()
	prices := maxPropertyPrice()
	pricesEst, err := NewEstimator(ir.Identify(prices), seedPropertyDFS(t, 100000), cluster.EC2(16), nil)
	if err != nil {
		t.Fatal(err)
	}
	edge := pricesEst.Size(prices.ByOut("id_price"))
	sources := pricesEst.Size(prices.ByOut("properties")) + pricesEst.Size(prices.ByOut("prices"))
	sink := pricesEst.Size(prices.ByOut("street_price"))
	ranks := pageRankDAG(t, 4)
	ranksEst, err := NewEstimator(ir.Identify(ranks), seedGraphDFS(t, 1000), cluster.EC2(16), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		dag  *ir.DAG
		est  *Estimator
		jobs int
		want []string
	}{
		{"max-property-price", prices, pricesEst, 2, []string{ // join | aggregation
			"pull=" + mbStr(sources) + " proc=", " push=" + mbStr(edge) + "\n",
			"pull=" + mbStr(edge) + " proc=", " push=" + mbStr(sink) + "\n",
		}},
		{"pagerank", ranks, ranksEst, 1, []string{ // the loop: join | aggregation, every round
			"driver-looped: 2 body job(s), ", " a round × ~4 iterations\n",
		}},
	} {
		part, err := AutoMap(tc.dag, tc.est, []*engines.Engine{hadoop})
		if err != nil {
			t.Fatal(err)
		}
		if len(part.Jobs) != tc.jobs {
			t.Fatalf("%s: hadoop plan has %d jobs, want %d", tc.name, len(part.Jobs), tc.jobs)
		}
		text := Explain(part, tc.est, []*engines.Engine{hadoop})
		for _, want := range tc.want {
			if !strings.Contains(text, want) {
				t.Errorf("%s: explain does not print %q:\n%s", tc.name, want, text)
			}
		}
		for _, job := range part.Jobs {
			priced, frags := []Assignment{job}, []*ir.Fragment{job.Frag}
			if job.Body != nil {
				priced, frags = job.Body.Jobs, nil
				for _, bj := range job.Body.Jobs {
					frags = append(frags, searchedFragment(bj.Frag))
					if line := fmt.Sprintf("%s %v\n", bj.Frag, bj.Cost); !strings.Contains(text, line) {
						t.Errorf("%s: explain does not print body job %q:\n%s", tc.name, line, text)
					}
				}
			}
			for k, pj := range priced {
				v := explainVolumes(tc.est, frags[k], hadoop)
				// A body job's cost is a difference of the DP's prefix sums: the
				// segment's price up to the last bit or two.
				if got := tc.est.estimate(hadoop, v); got != pj.Cost && (job.Body == nil || !sameUpToRounding(got, pj.Cost)) {
					t.Errorf("%s: %s: printed volumes %+v price to %v, the cost printed is %v", tc.name, pj.Frag, v, got, pj.Cost)
				}
			}
		}
	}
}

func sameUpToRounding(a, b cluster.Seconds) bool {
	return math.Abs(float64(a-b)) <= 1e-12*math.Abs(float64(b))
}

// A forced output is pushed like any other: the fragment's own outputs are
// what is priced, not the ones the index would derive for its operator set.
func TestForcedOutputIsPricedAtFullSize(t *testing.T) {
	dag := maxPropertyPrice()
	est, err := NewEstimator(ir.Identify(dag), seedPropertyDFS(t, 100000), cluster.EC2(16), nil)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := ir.NewFragment(dag, dag.Ops)
	if err != nil {
		t.Fatal(err)
	}
	if err := whole.ForceOutput(dag.ByOut("id_price")); err != nil {
		t.Fatal(err)
	}
	want := est.Size(dag.ByOut("street_price")) + est.Size(dag.ByOut("id_price"))
	if got := explainVolumes(est, whole, engines.Naiad()).Push; got != want {
		t.Errorf("push = %d, want the sink plus the forced output at full size, %d", got, want)
	}
}
