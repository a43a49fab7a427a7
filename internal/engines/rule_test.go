package engines

import (
	"testing"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// shuffleDAG joins two inputs on k and aggregates the join once on k (the
// shared reduce-side shuffle) and once on v, then de-duplicates the second
// aggregate: any three of JOIN, AGG and DISTINCT are three shuffles. Its
// WHILE body is a projection, which is no graph idiom.
func shuffleDAG() *ir.DAG {
	d := ir.NewDAG()
	l := d.AddInput("l", "in/l", relation.NewSchema("k:int", "v:int"))
	r := d.AddInput("r", "in/r", relation.NewSchema("k:int", "w:int"))
	j := d.Add(ir.OpJoin, "j", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"k"}}, l, r)
	sum := []ir.AggSpec{{Func: ir.AggSum, Col: "w", As: "w"}}
	d.Add(ir.OpAgg, "by_k", ir.Params{GroupBy: []string{"k"}, Aggs: sum}, j)
	byV := d.Add(ir.OpAgg, "by_v", ir.Params{GroupBy: []string{"v"}, Aggs: sum}, j)
	d.Add(ir.OpDistinct, "uniq", ir.Params{}, byV)
	body := ir.NewDAG()
	bl := body.AddInput("l", "", relation.NewSchema("k:int", "v:int"))
	body.Add(ir.OpProject, "kept", ir.Params{Columns: []string{"k", "v"}}, bl)
	d.Add(ir.OpWhile, "loop", ir.Params{Body: body, MaxIter: 2, Carried: map[string]string{"l": "kept"}}, l)
	return d
}

// computeOps returns d's non-INPUT operators in topological order.
func computeOps(d *ir.DAG) []*ir.Op {
	var ops []*ir.Op
	for _, op := range d.Ops {
		if op.Type != ir.OpInput {
			ops = append(ops, op)
		}
	}
	return ops
}

// opsOf returns the named operators of d, in the order named.
func opsOf(d *ir.DAG, outs ...string) []*ir.Op {
	ops := make([]*ir.Op, len(outs))
	for i, out := range outs {
		ops[i] = d.ByOut(out)
	}
	return ops
}

// TestAcceptsIsValidOps: the search's yes/no and the described verdict are
// one rule. Every operator subset of each DAG gets the same answer from
// Accepts and ValidOps on every engine.
func TestAcceptsIsValidOps(t *testing.T) {
	engs := Registry()
	engs["xstream"] = XStream()
	pr := pageRankWhileDAG(t, 5)
	dags := map[string]*ir.DAG{
		"max_price":     maxPropertyPrice(),
		"pagerank":      pr,
		"pagerank_body": pr.ByOut("final_ranks").Params.Body,
		"shuffles":      shuffleDAG(),
	}
	for name, d := range dags {
		compute := computeOps(d)
		for mask := 0; mask < 1<<len(compute); mask++ {
			var ops []*ir.Op
			for i, op := range compute {
				if mask&(1<<i) != 0 {
					ops = append(ops, op)
				}
			}
			for _, e := range engs {
				if got, err := e.Accepts(ops), e.ValidOps(ops); got != (err == nil) {
					t.Errorf("%s subset %b on %s: Accepts = %v, ValidOps = %v", name, mask, e.Name(), got, err)
				}
			}
		}
	}

	d, s := maxPropertyPrice(), shuffleDAG()
	for _, c := range []struct {
		e    *Engine
		ops  []*ir.Op
		want bool
	}{
		{Hadoop(), opsOf(d, "id_price", "street_price"), false}, // two shuffles, two keys
		{Hadoop(), opsOf(d, "locs", "id_price"), true},
		{Spark(), opsOf(d, "id_price", "street_price"), true},
		{PowerGraph(), opsOf(d, "locs", "id_price"), false},
		{Metis(), opsOf(s, "j", "by_k"), true}, // the shared reduce-side shuffle
		{Metis(), opsOf(s, "j", "by_v"), false},
		{Hadoop(), opsOf(s, "j", "by_k", "uniq"), false},
		{Hadoop(), opsOf(s, "loop"), true},
		{GraphChi(), opsOf(pr, "final_ranks"), true},
	} {
		if got := c.e.Accepts(c.ops); got != c.want {
			t.Errorf("%s.Accepts(%v) = %v, want %v", c.e.Name(), c.ops, got, c.want)
		}
	}
}

// TestRefusalMessages pins each refusal's text, one per rule.
func TestRefusalMessages(t *testing.T) {
	d, s := maxPropertyPrice(), shuffleDAG()
	for _, c := range []struct {
		e    *Engine
		ops  []*ir.Op
		want string
	}{
		{Spark(), nil, "spark: empty fragment"},
		{PowerGraph(), opsOf(d, "locs", "id_price"), "powergraph: vertex-centric back-end cannot merge 2 operators"},
		{GraphChi(), opsOf(d, "locs"), "graphchi: only graph idioms are expressible"},
		{XStream(), opsOf(s, "loop"), "xstream: WHILE loop does not match the GAS idiom"},
		{Hadoop(), opsOf(s, "j", "loop"), "hadoop: WHILE cannot merge with other operators"},
		{Hadoop(), opsOf(d, "id_price", "street_price"), "hadoop: shuffles JOIN and AGG need separate jobs"},
		{Metis(), opsOf(s, "j", "by_v", "uniq"), "metis: 3 shuffle operators in one job"},
	} {
		err := c.e.ValidOps(c.ops)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s.ValidOps(%v) = %v, want %q", c.e.Name(), c.ops, err, c.want)
		}
	}
}

// TestSearchFeasibilityAllocatesNothing: the partition search asks Accepts
// of every candidate on every engine, and most candidates are refused.
func TestSearchFeasibilityAllocatesNothing(t *testing.T) {
	d, s := maxPropertyPrice(), shuffleDAG()
	for _, c := range []struct {
		name string
		e    *Engine
		ops  []*ir.Op
		want bool
	}{
		{"general refuses an empty job", Spark(), nil, false},
		{"vertex-centric refuses a merge", PowerGraph(), opsOf(d, "locs", "id_price"), false},
		{"vertex-centric refuses a relational operator", GraphChi(), opsOf(d, "locs"), false},
		{"mapreduce refuses a merged WHILE", Hadoop(), opsOf(s, "j", "loop"), false},
		{"mapreduce refuses two shuffles", Hadoop(), opsOf(d, "id_price", "street_price"), false},
		{"mapreduce refuses three shuffles", Metis(), opsOf(s, "j", "by_v", "uniq"), false},
		{"mapreduce accepts a shared shuffle", Hadoop(), opsOf(s, "j", "by_k"), true},
		{"general accepts any job", Naiad(), computeOps(d), true},
	} {
		var got bool
		allocs := testing.AllocsPerRun(100, func() { got = c.e.Accepts(c.ops) })
		if got != c.want {
			t.Errorf("%s: Accepts = %v, want %v", c.name, got, c.want)
		}
		if allocs != 0 {
			t.Errorf("%s: Accepts allocated %.1f times per call, want 0", c.name, allocs)
		}
	}
}
