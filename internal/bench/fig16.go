package bench

import (
	"musketeer/internal/cluster"
	"musketeer/internal/core"
	"musketeer/internal/dfs"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// Fig16Heuristic regenerates the paper's Figure 16 limitation study plus the
// §8 mitigation: a workflow whose single depth-first linear ordering
// separates a JOIN from the PROJECT it could share a MapReduce job with.
// The dynamic heuristic over one ordering misses the merge; the exhaustive
// search finds it; running the heuristic over multiple randomized orderings
// (the paper's proposed fix) recovers it.
func Fig16Heuristic() Experiment {
	return Experiment{
		ID:    "fig16",
		Title: "Dynamic-heuristic limitation (Fig 16) and the §8 multi-order fix",
		Run: func() (*Table, error) {
			dag, fs, err := fig16Workflow()
			if err != nil {
				return nil, err
			}
			est, err := core.NewEstimator(ir.Identify(dag), fs, cluster.Local(7), nil)
			if err != nil {
				return nil, err
			}
			engs := []*engines.Engine{engines.Hadoop()}
			t := &Table{
				ID:      "fig16",
				Title:   "Estimated cost of the Fig 16 workflow on Hadoop",
				Columns: []string{"algorithm", "jobs", "estimated-cost"},
			}
			dyn, err := core.PartitionDynamic(dag, est, engs)
			if err != nil {
				return nil, err
			}
			t.AddRow("dynamic (1 order)", itoa(len(dyn.Jobs)), secs(dyn.Cost))
			multi, err := core.PartitionDynamicMulti(dag, est, engs, 16)
			if err != nil {
				return nil, err
			}
			t.AddRow("dynamic (16 orders)", itoa(len(multi.Jobs)), secs(multi.Cost))
			exh, err := core.PartitionExhaustive(dag, est, engs, 0)
			if err != nil {
				return nil, err
			}
			t.AddRow("exhaustive", itoa(len(exh.Jobs)), secs(exh.Cost))
			t.Note("paper Fig16/§8: the single linear ordering breaks the JOIN+PROJECT adjacency; generating multiple orderings recovers the optimal partitioning")
			return t, nil
		},
	}
}

// fig16Workflow builds the Fig 16 shape: JOIN -> PROJECT on one branch, an
// aggregation on another, a union sink; the depth-first order interleaves
// the aggregation between JOIN and PROJECT.
func fig16Workflow() (*ir.DAG, *dfs.DFS, error) {
	d := ir.NewDAG()
	a := d.AddInput("a", "in/a", relation.NewSchema("k:int", "v:int"))
	b := d.AddInput("b", "in/b", relation.NewSchema("k:int", "w:int"))
	j := d.Add(ir.OpJoin, "j", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"k"}}, a, b)
	c := d.AddInput("c", "in/c", relation.NewSchema("q:int", "x:int"))
	g := d.Add(ir.OpAgg, "g", ir.Params{GroupBy: []string{"q"}, Aggs: []ir.AggSpec{{Func: ir.AggSum, Col: "x", As: "x"}}}, c)
	p := d.Add(ir.OpProject, "p", ir.Params{Columns: []string{"k", "w"}}, j)
	d.Add(ir.OpUnion, "u", ir.Params{}, p, g)
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	fs := dfs.New()
	schemas := map[string]relation.Schema{
		"a": relation.NewSchema("k:int", "v:int"),
		"b": relation.NewSchema("k:int", "w:int"),
		"c": relation.NewSchema("q:int", "x:int"),
	}
	for name, schema := range schemas {
		rel := relation.New(name, schema)
		for i := int64(0); i < 12; i++ {
			rel.MustAppend(relation.Row{relation.Int(i % 4), relation.Int(i)})
		}
		rel.LogicalBytes = 5e9
		if err := fs.WriteRelation("in/"+name, rel); err != nil {
			return nil, nil, err
		}
	}
	return d, fs, nil
}
