package engines

import (
	"strings"
	"testing"

	"musketeer/internal/cluster"
	"musketeer/internal/dfs"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// TestXStreamRunsGraphIdiom demonstrates the paper's §3 extensibility
// claim: a new back-end (X-Stream, Table 3) is added by supplying a
// paradigm and a profile, and immediately executes detected graph idioms
// through the existing code-generation and execution machinery.
func TestXStreamRunsGraphIdiom(t *testing.T) {
	x := XStream()
	if x.Paradigm() != ParadigmVertexCentric {
		t.Fatalf("paradigm = %v", x.Paradigm())
	}

	d := pageRankWhileDAG(t, 3)
	frag, err := ir.NewFragment(d, []*ir.Op{d.ByOut("final_ranks")})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.ValidFragment(frag); err != nil {
		t.Fatalf("xstream rejected the graph idiom: %v", err)
	}
	plan, err := x.Plan(frag, ModeOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Source(), "vertex_program") {
		t.Errorf("xstream source missing vertex program:\n%s", plan.Source())
	}

	fs := dfs.New()
	edges := relation.New("edges", relation.NewSchema("src:int", "dst:int", "degree:int"))
	edges.MustAppend(relation.Row{relation.Int(1), relation.Int(2), relation.Int(1)})
	edges.MustAppend(relation.Row{relation.Int(2), relation.Int(1), relation.Int(1)})
	ranks := relation.New("ranks", relation.NewSchema("vertex:int", "rank:float"))
	ranks.MustAppend(relation.Row{relation.Int(1), relation.Float(1)})
	ranks.MustAppend(relation.Row{relation.Int(2), relation.Float(1)})
	if err := fs.WriteRelation("in/edges", edges); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteRelation("in/ranks", ranks); err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunContext{DFS: fs, Cluster: cluster.EC2(16)}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Trace.Iterations[plan.While.ID]; got != 3 {
		t.Errorf("iterations = %d", got)
	}
	// Single machine regardless of cluster size.
	if got := x.EffectiveNodes(cluster.EC2(100)); got != 1 {
		t.Errorf("effective nodes = %d", got)
	}
	// Cross-engine result equality extends to the new engine.
	out, err := fs.ReadRelation("final_ranks")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range out.Rows {
		if diff := row[1].F - 1.0; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("rank %v, want 1.0", row)
		}
	}
}

// TestXStreamNoLoadPhase: edge-centric streaming has no shard-construction
// LOAD, unlike GraphChi — the profile distinction the system was built
// around (X-Stream paper's premise).
func TestXStreamNoLoadPhase(t *testing.T) {
	if XStream().Profile().LoadMBps != 0 {
		t.Error("xstream should not have a load phase")
	}
	if GraphChi().Profile().LoadMBps == 0 {
		t.Error("graphchi should have a shard-construction load phase")
	}
}

// TestNewEngineDialects checks the extensibility constructor picks code
// templates by paradigm.
func TestNewEngineDialects(t *testing.T) {
	d := maxPropertyPrice()
	frag, err := ir.NewFragment(d, []*ir.Op{d.ByOut("locs")})
	if err != nil {
		t.Fatal(err)
	}
	mr := NewEngine("custom-mr", ParadigmMapReduce, Profile{PerJobOverheadS: 1, PullMBps: 10, PushMBps: 10, ProcMBps: 10})
	p, err := mr.Plan(frag, ModeOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Source(), "Mapper") {
		t.Errorf("MR dialect missing Mapper:\n%s", p.Source())
	}
	gen := NewEngine("custom-df", ParadigmGeneral, Profile{PerJobOverheadS: 1, PullMBps: 10, PushMBps: 10, ProcMBps: 10})
	p2, err := gen.Plan(frag, ModeOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p2.Source(), "val ") {
		t.Errorf("dataflow dialect missing val binding:\n%s", p2.Source())
	}
}
