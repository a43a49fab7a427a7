package workloads

import (
	"math"
	"testing"

	"musketeer/internal/analysis"
	"musketeer/internal/dfs"
	"musketeer/internal/exec"
	"musketeer/internal/ir"
)

// runWorkload stages and interprets a workload directly through the shared
// kernels (no engines), returning the output environment.
func runWorkload(t *testing.T, w *Workload) exec.Env {
	t.Helper()
	fs := dfs.New()
	if err := w.Stage(fs); err != nil {
		t.Fatal(err)
	}
	dag, err := w.Build()
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if err := analysis.Analyze(dag).Err(); err != nil {
		t.Fatalf("%s: invalid DAG: %v", w.Name, err)
	}
	env := exec.Env{}
	for path := range w.Inputs {
		rel, err := fs.ReadRelation(path)
		if err != nil {
			t.Fatal(err)
		}
		env[path] = rel
	}
	out, _, err := exec.RunDAG(dag, env)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return out
}

func TestGraphGeneratorShape(t *testing.T) {
	g := GenerateGraph("test", 1_000_000, 10_000_000, 500, 7)
	if g.Edges.NumRows() < 500 {
		t.Errorf("too few edges: %d", g.Edges.NumRows())
	}
	if g.Ranks.NumRows() != 500 {
		t.Errorf("ranks = %d", g.Ranks.NumRows())
	}
	if g.Edges.LogicalBytes != 10_000_000*bytesPerEdge {
		t.Errorf("logical edges bytes = %d", g.Edges.LogicalBytes)
	}
	// Degree column must equal the actual out-degree.
	outDeg := map[int64]int64{}
	for _, row := range g.Edges.Rows {
		outDeg[row[0].I]++
	}
	for _, row := range g.Edges.Rows {
		if row[2].I != outDeg[row[0].I] {
			t.Fatalf("vertex %d degree column %d != actual %d", row[0].I, row[2].I, outDeg[row[0].I])
		}
	}
	// Deterministic across calls.
	g2 := GenerateGraph("test", 1_000_000, 10_000_000, 500, 7)
	if g.Edges.Fingerprint() != g2.Edges.Fingerprint() {
		t.Error("graph generation not deterministic")
	}
	// Power-law-ish: max degree well above average.
	var maxDeg int64
	for _, d := range outDeg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(g.Edges.NumRows()) / 500
	if float64(maxDeg) < 3*avg {
		t.Errorf("degree distribution too uniform: max %d avg %.1f", maxDeg, avg)
	}
}

func TestNamedGraphsLogicalSizes(t *testing.T) {
	cases := []struct {
		g     *Graph
		edges int64
	}{
		{LiveJournal(), 69_000_000},
		{Orkut(), 117_000_000},
		{Twitter(), 1_400_000_000},
		{WebCommunity(), 82_000_000},
	}
	for _, c := range cases {
		if c.g.LogicalEdges != c.edges {
			t.Errorf("%s logical edges = %d", c.g.Name, c.g.LogicalEdges)
		}
		if c.g.Edges.LogicalBytes <= 0 {
			t.Errorf("%s missing logical size", c.g.Name)
		}
	}
}

func TestPageRankWorkloadRuns(t *testing.T) {
	g := GenerateGraph("tiny", 1000, 5000, 60, 8)
	w := PageRank(g, 3)
	out := runWorkload(t, w)
	pr := out["pagerank"]
	if pr.NumRows() == 0 {
		t.Fatal("empty pagerank output")
	}
	sum := 0.0
	for _, row := range pr.Rows {
		if row[1].F < 0.1499999 {
			t.Errorf("rank below damping floor: %v", row)
		}
		sum += row[1].F
	}
	if sum <= 0 {
		t.Error("degenerate ranks")
	}
}

func TestProjectMicro(t *testing.T) {
	w := ProjectMicro(gb(2))
	out := runWorkload(t, w)
	col1 := out["col1"]
	if col1.Schema.Arity() != 1 {
		t.Errorf("schema = %s", col1.Schema)
	}
	if w.InputBytes() != gb(2) {
		t.Errorf("input bytes = %d", w.InputBytes())
	}
}

func TestJoinMicros(t *testing.T) {
	asym := runWorkload(t, JoinMicroAsymmetric())
	sym := runWorkload(t, JoinMicroSymmetric())
	aj, sj := asym["joined"], sym["joined"]
	if aj.NumRows() == 0 || sj.NumRows() == 0 {
		t.Fatal("empty join outputs")
	}
	// Asymmetric join is selective; symmetric join is generative
	// (output ≫ input), as in §2.1.
	symWorkload := JoinMicroSymmetric()
	symIn := 0
	for _, rel := range symWorkload.Inputs {
		symIn += rel.NumRows()
	}
	if sj.NumRows() < 4*symIn {
		t.Errorf("symmetric join should blow up: %d rows from %d input rows", sj.NumRows(), symIn)
	}
}

func TestTPCHQ17BothFrontends(t *testing.T) {
	hiveOut := runWorkload(t, TPCHQ17(10))
	lindiOut := runWorkload(t, TPCHQ17Lindi(10))
	h, l := hiveOut["q17"], lindiOut["q17"]
	if h.NumRows() != 1 || l.NumRows() != 1 {
		t.Fatalf("q17 rows: hive %d lindi %d", h.NumRows(), l.NumRows())
	}
	// Decoupling claim: identical IR semantics regardless of front-end.
	if math.Abs(h.Rows[0][0].AsFloat()-l.Rows[0][0].AsFloat()) > 1e-6 {
		t.Errorf("hive revenue %v != lindi revenue %v", h.Rows[0][0], l.Rows[0][0])
	}
	if h.Rows[0][0].AsFloat() <= 0 {
		t.Error("zero revenue: query degenerate")
	}
}

func TestTopShopper(t *testing.T) {
	w := TopShopper(10_000_000)
	out := runWorkload(t, w)
	top := out["top"]
	if top.NumRows() == 0 {
		t.Fatal("no top shoppers found")
	}
	for _, row := range top.Rows {
		if row[1].F <= 900 {
			t.Errorf("threshold violated: %v", row)
		}
	}
}

func TestNetflixThirteenOps(t *testing.T) {
	w := Netflix(40)
	dag, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	compute := 0
	for _, op := range dag.Ops {
		if op.Type != ir.OpInput {
			compute++
		}
	}
	if compute != 13 {
		t.Errorf("netflix compute ops = %d, want 13 (paper §6.4)", compute)
	}
	out := runWorkload(t, w)
	top := out["top_recommendation"]
	if top.NumRows() == 0 {
		t.Fatal("no recommendations")
	}
	// Each user appears with their best-scored movie only.
	for _, row := range top.Rows {
		total, best := row[2].F, row[3].F
		if total < best {
			t.Errorf("non-top recommendation survived: %v", row)
		}
	}
}

func TestNetflixExtendedPrefixes(t *testing.T) {
	full := NetflixExtended(18)
	dag, err := full.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(computeOpsOf(dag)); got != 18 {
		t.Errorf("extended ops = %d, want 18", got)
	}
	for _, n := range []int{2, 5, 9, 13, 16} {
		w := NetflixExtended(n)
		d, err := w.Build()
		if err != nil {
			t.Fatalf("prefix %d: %v", n, err)
		}
		if got := len(computeOpsOf(d)); got != n {
			t.Errorf("prefix %d: ops = %d", n, got)
		}
	}
}

func computeOpsOf(d *ir.DAG) []*ir.Op {
	var ops []*ir.Op
	for _, op := range d.Ops {
		if op.Type != ir.OpInput {
			ops = append(ops, op)
		}
	}
	return ops
}

func TestKMeansConverges(t *testing.T) {
	w := KMeans(100_000_000, 100, 5)
	out := runWorkload(t, w)
	centers := out["kmeans"]
	if centers.NumRows() == 0 {
		t.Fatal("no centers")
	}
	if centers.Schema.Arity() != 3 {
		t.Errorf("center schema = %s", centers.Schema)
	}
	// Centers must lie within the data's bounding box after iterating.
	for _, row := range centers.Rows {
		x, y := row[1].F, row[2].F
		if x < -5 || x > 45 || y < -5 || y > 35 {
			t.Errorf("center escaped data region: %v", row)
		}
	}
}

func TestSSSPDistances(t *testing.T) {
	g := GenerateGraph("tiny", 1000, 5000, 50, 9)
	w := SSSP(g, 8)
	out := runWorkload(t, w)
	dists := out["sssp"]
	reached := 0
	for _, row := range dists.Rows {
		d := row[1].F
		if d < ssspInfinity/2 {
			reached++
			if d < 0 {
				t.Errorf("negative distance %v", row)
			}
		}
	}
	if reached < 2 {
		t.Errorf("SSSP reached only %d vertices", reached)
	}
	// Vertex 0 must have distance 0.
	for _, row := range dists.Rows {
		if row[0].I == 0 && row[1].F != 0 {
			t.Errorf("source distance = %v", row[1])
		}
	}
}

func TestCrossCommunityPageRank(t *testing.T) {
	a := GenerateGraph("a", 4_800_000, 68_000_000, 300, 21)
	b := GenerateGraph("b", 5_800_000, 82_000_000, 300, 22)
	w := CrossCommunityPageRank(a, b, 3)
	dag, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Hybrid: batch ops + an iterative graph idiom.
	hasIntersect, hasWhile := false, false
	for _, op := range dag.Ops {
		if op.Type == ir.OpIntersect {
			hasIntersect = true
		}
		if op.Type == ir.OpWhile {
			hasWhile = true
			if ir.DetectGraphIdiom(op) == nil {
				t.Error("iterative phase not detected as graph idiom")
			}
		}
	}
	if !hasIntersect || !hasWhile {
		t.Fatalf("missing phases: intersect=%v while=%v", hasIntersect, hasWhile)
	}
	out := runWorkload(t, w)
	pr := out["ccpagerank"]
	if pr.NumRows() == 0 {
		t.Fatal("empty cross-community pagerank")
	}
}

func TestTriangleCountSoundNotComplete(t *testing.T) {
	g := GenerateGraph("tri", 10000, 60000, 40, 77)
	w := TriangleCount(g)
	dag, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The §8 limitation: this graph workload is NOT detected as a graph
	// idiom (no WHILE/JOIN/GROUP-BY loop shape), so vertex-centric
	// back-ends are ineligible.
	if dag.IsGraphWorkflow() {
		t.Error("triangle counting should not match the graph idiom (idiom recognition is sound, not complete)")
	}
	out := runWorkload(t, w)
	got := out["triangle_count"].Rows[0][0].I

	// Brute force over the distinct edge set: ordered triples a→b→c→a;
	// each directed 3-cycle is counted once per rotation, exactly like
	// the query.
	edges := map[[2]int64]bool{}
	adj := map[int64][]int64{}
	for _, row := range w.Inputs["in/tri/tc_edges"].Rows {
		k := [2]int64{row[0].I, row[1].I}
		if !edges[k] {
			edges[k] = true
			adj[k[0]] = append(adj[k[0]], k[1])
		}
	}
	var want int64
	for a, bs := range adj {
		for _, b := range bs {
			for _, c := range adj[b] {
				if edges[[2]int64{c, a}] {
					want++
				}
			}
		}
	}
	if got != want {
		t.Errorf("triangle count = %d, want %d", got, want)
	}
	if want == 0 {
		t.Log("warning: generated graph has no triangles; test is vacuous")
	}
}

func TestConnectedComponentsConverge(t *testing.T) {
	g := GenerateGraph("cc", 10000, 40000, 60, 88)
	// Enough rounds to cover the sample graph's diameter.
	w := ConnectedComponents(g, 20)
	dag, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !dag.IsGraphWorkflow() {
		t.Error("connected components should match the graph idiom")
	}
	out := runWorkload(t, w)
	labels := out["components"]

	// Reference: union-find over the symmetrized edges.
	parent := map[int64]int64{}
	var find func(int64) int64
	find = func(x int64) int64 {
		if p, ok := parent[x]; ok && p != x {
			r := find(p)
			parent[x] = r
			return r
		}
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
		return parent[x]
	}
	union := func(a, b int64) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, row := range w.Inputs["in/cc/symedges"].Rows {
		union(row[0].I, row[1].I)
	}
	// Min label per component.
	minLabel := map[int64]int64{}
	for v := range parent {
		r := find(v)
		if cur, ok := minLabel[r]; !ok || v < cur {
			minLabel[r] = v
		}
	}
	for _, row := range labels.Rows {
		v, label := row[0].I, int64(row[1].F)
		if want := minLabel[find(v)]; label != want {
			t.Fatalf("vertex %d label %d, want component min %d", v, label, want)
		}
	}
}

func TestWorkloadStage(t *testing.T) {
	fs := dfs.New()
	w := TopShopper(1_000_000)
	if err := w.Stage(fs); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("in/purchases") {
		t.Error("input not staged")
	}
}
