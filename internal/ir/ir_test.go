package ir

import (
	"strings"
	"testing"

	"musketeer/internal/relation"
)

func propsSchema() relation.Schema {
	return relation.NewSchema("id:int", "street:string", "town:string")
}

func pricesSchema() relation.Schema {
	return relation.NewSchema("id:int", "price:float")
}

// maxPropertyPrice builds the paper's Listing 1 workflow.
func maxPropertyPrice() *DAG {
	d := NewDAG()
	props := d.AddInput("properties", "in/properties", propsSchema())
	prices := d.AddInput("prices", "in/prices", pricesSchema())
	locs := d.Add(OpProject, "locs", Params{Columns: []string{"id", "street", "town"}}, props)
	idPrice := d.Add(OpJoin, "id_price", Params{LeftCols: []string{"id"}, RightCols: []string{"id"}}, locs, prices)
	d.Add(OpAgg, "street_price", Params{
		GroupBy: []string{"street", "town"},
		Aggs:    []AggSpec{{Func: AggMax, Col: "price", As: "max_price"}},
	}, idPrice)
	return d
}

func TestMaxPropertyPriceValidates(t *testing.T) {
	d := maxPropertyPrice()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	schemas, err := d.InferSchemas()
	if err != nil {
		t.Fatal(err)
	}
	sp := d.ByOut("street_price")
	want := relation.NewSchema("street:string", "town:string", "max_price:float")
	if !schemas[sp].Equal(want) {
		t.Errorf("street_price schema = %s, want %s", schemas[sp], want)
	}
	jp := d.ByOut("id_price")
	wantJoin := relation.NewSchema("id:int", "street:string", "town:string", "price:float")
	if !schemas[jp].Equal(wantJoin) {
		t.Errorf("id_price schema = %s, want %s", schemas[jp], wantJoin)
	}
}

func TestTopoSortOrder(t *testing.T) {
	d := maxPropertyPrice()
	order, err := d.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[*Op]int)
	for i, op := range order {
		pos[op] = i
	}
	for _, op := range d.Ops {
		for _, in := range op.Inputs {
			if pos[in] >= pos[op] {
				t.Errorf("%s appears before its input %s", op, in)
			}
		}
	}
}

func TestCycleDetected(t *testing.T) {
	d := NewDAG()
	a := d.Add(OpDistinct, "a", Params{})
	b := d.Add(OpDistinct, "b", Params{}, a)
	a.Inputs = []*Op{b}
	if _, err := d.TopoSort(); err == nil {
		t.Error("cycle not detected")
	}
}

func TestForeignEdgeDetected(t *testing.T) {
	d1 := NewDAG()
	x := d1.AddInput("x", "in/x", relation.NewSchema("a:int"))
	d2 := NewDAG()
	d2.Add(OpDistinct, "y", Params{}, x)
	if _, err := d2.TopoSort(); err == nil {
		t.Error("foreign edge not detected")
	}
}

func TestDuplicateOutputRejected(t *testing.T) {
	d := NewDAG()
	d.AddInput("x", "in/x", relation.NewSchema("a:int"))
	d.AddInput("x", "in/y", relation.NewSchema("a:int"))
	if err := d.Validate(); err == nil {
		t.Error("duplicate output accepted")
	}
}

func TestSchemaErrors(t *testing.T) {
	build := func(f func(d *DAG, in *Op)) error {
		d := NewDAG()
		in := d.AddInput("t", "in/t", relation.NewSchema("a:int", "b:float"))
		f(d, in)
		return d.Validate()
	}
	cases := map[string]func(d *DAG, in *Op){
		"unknown project col": func(d *DAG, in *Op) {
			d.Add(OpProject, "p", Params{Columns: []string{"zzz"}}, in)
		},
		"unknown predicate col": func(d *DAG, in *Op) {
			d.Add(OpSelect, "s", Params{Pred: Cmp(ColRef("zzz"), CmpGt, LitOp(relation.Int(0)))}, in)
		},
		"unknown groupby col": func(d *DAG, in *Op) {
			d.Add(OpAgg, "g", Params{GroupBy: []string{"zzz"}, Aggs: []AggSpec{{Func: AggCount, As: "n"}}}, in)
		},
		"agg without aggs": func(d *DAG, in *Op) {
			d.Add(OpAgg, "g", Params{GroupBy: []string{"a"}}, in)
		},
		"agg missing as": func(d *DAG, in *Op) {
			d.Add(OpAgg, "g", Params{GroupBy: []string{"a"}, Aggs: []AggSpec{{Func: AggSum, Col: "b"}}}, in)
		},
		"sum over string": func(d *DAG, in *Op) {
			d2in := d.AddInput("t2", "in/t2", relation.NewSchema("s:string"))
			d.Add(OpAgg, "g", Params{Aggs: []AggSpec{{Func: AggSum, Col: "s", As: "x"}}}, d2in)
		},
		"bad join keys": func(d *DAG, in *Op) {
			in2 := d.AddInput("t2", "in/t2", relation.NewSchema("a:int"))
			d.Add(OpJoin, "j", Params{LeftCols: []string{"a"}, RightCols: nil}, in, in2)
		},
		"union arity mismatch": func(d *DAG, in *Op) {
			in2 := d.AddInput("t2", "in/t2", relation.NewSchema("a:int"))
			d.Add(OpUnion, "u", Params{}, in, in2)
		},
		"union kind mismatch": func(d *DAG, in *Op) {
			in2 := d.AddInput("t2", "in/t2", relation.NewSchema("a:string", "b:float"))
			d.Add(OpUnion, "u", Params{}, in, in2)
		},
		"arith unknown col": func(d *DAG, in *Op) {
			d.Add(OpArith, "ar", Params{Dst: "x", ALeft: ColRef("zzz"), ARght: LitOp(relation.Int(1)), AOp: ArithAdd}, in)
		},
		"arith no dst": func(d *DAG, in *Op) {
			d.Add(OpArith, "ar", Params{ALeft: ColRef("a"), ARght: LitOp(relation.Int(1)), AOp: ArithAdd}, in)
		},
		"unregistered udf": func(d *DAG, in *Op) {
			d.Add(OpUDF, "u", Params{UDFName: "no-such-udf"}, in)
		},
		"while without body": func(d *DAG, in *Op) {
			d.Add(OpWhile, "w", Params{MaxIter: 3}, in)
		},
	}
	for name, f := range cases {
		if err := build(f); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
}

func TestArithSchemas(t *testing.T) {
	d := NewDAG()
	in := d.AddInput("t", "in/t", relation.NewSchema("a:int", "b:int"))
	inPlace := d.Add(OpArith, "p1", Params{Dst: "a", ALeft: ColRef("a"), ARght: LitOp(relation.Int(1)), AOp: ArithAdd}, in)
	newInt := d.Add(OpArith, "p2", Params{Dst: "c", ALeft: ColRef("a"), ARght: ColRef("b"), AOp: ArithMul}, inPlace)
	div := d.Add(OpArith, "p3", Params{Dst: "a", ALeft: ColRef("a"), ARght: LitOp(relation.Int(2)), AOp: ArithDiv}, newInt)
	schemas, err := d.InferSchemas()
	if err != nil {
		t.Fatal(err)
	}
	if !schemas[inPlace].Equal(relation.NewSchema("a:int", "b:int")) {
		t.Errorf("in-place schema = %s", schemas[inPlace])
	}
	if !schemas[newInt].Equal(relation.NewSchema("a:int", "b:int", "c:int")) {
		t.Errorf("new-col schema = %s", schemas[newInt])
	}
	if schemas[div].Cols[0].Kind != relation.KindFloat {
		t.Errorf("div in-place should become float: %s", schemas[div])
	}
}

func buildPageRankWhile(t *testing.T) *DAG {
	t.Helper()
	d := NewDAG()
	edges := d.AddInput("edges", "in/edges", relation.NewSchema("src:int", "dst:int"))
	ranks := d.AddInput("ranks", "in/ranks", relation.NewSchema("vertex:int", "rank:float"))

	body := NewDAG()
	bEdges := body.AddInput("edges", "in/edges", relation.NewSchema("src:int", "dst:int"))
	bRanks := body.AddInput("ranks", "", relation.Schema{})
	_ = bRanks
	j := body.Add(OpJoin, "contrib", Params{LeftCols: []string{"vertex"}, RightCols: []string{"src"}}, body.ByOut("ranks"), bEdges)
	g := body.Add(OpAgg, "gathered", Params{
		GroupBy: []string{"dst"},
		Aggs:    []AggSpec{{Func: AggSum, Col: "rank", As: "rank"}},
	}, j)
	m := body.Add(OpArith, "damped", Params{Dst: "rank", ALeft: ColRef("rank"), ARght: LitOp(relation.Float(0.85)), AOp: ArithMul}, g)
	a := body.Add(OpArith, "applied", Params{Dst: "rank", ALeft: ColRef("rank"), ARght: LitOp(relation.Float(0.15)), AOp: ArithAdd}, m)
	body.Add(OpProject, "new_ranks", Params{Columns: []string{"dst", "rank"}, As: []string{"vertex", "rank"}}, a)

	d.Add(OpWhile, "final_ranks", Params{
		Body:    body,
		MaxIter: 5,
		Carried: map[string]string{"ranks": "new_ranks"},
	}, ranks, edges)
	if err := d.Validate(); err != nil {
		t.Fatalf("pagerank DAG invalid: %v", err)
	}
	return d
}

func TestWhileSchemaInference(t *testing.T) {
	d := buildPageRankWhile(t)
	schemas, err := d.InferSchemas()
	if err != nil {
		t.Fatal(err)
	}
	w := d.ByOut("final_ranks")
	want := relation.NewSchema("vertex:int", "rank:float")
	if !schemas[w].Equal(want) {
		t.Errorf("while schema = %s, want %s", schemas[w], want)
	}
	if w.ResultRelation() != "new_ranks" {
		t.Errorf("result relation = %q", w.ResultRelation())
	}
}

func TestWhileCarriedIncompatible(t *testing.T) {
	d := NewDAG()
	in := d.AddInput("x", "in/x", relation.NewSchema("a:int"))
	body := NewDAG()
	body.AddInput("x", "", relation.Schema{})
	body.Add(OpProject, "y", Params{Columns: []string{"a"}}, body.ByOut("x"))
	bad := NewDAG()
	bIn := bad.AddInput("x", "", relation.Schema{})
	bad.Add(OpArith, "y", Params{Dst: "b", ALeft: ColRef("a"), ARght: LitOp(relation.Int(1)), AOp: ArithAdd}, bIn)
	d.Add(OpWhile, "w", Params{Body: bad, MaxIter: 2, Carried: map[string]string{"x": "y"}}, in)
	if err := d.Validate(); err == nil {
		t.Error("incompatible carried schema accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := buildPageRankWhile(t)
	c := d.Clone()
	if c.Hash() != d.Hash() {
		t.Error("clone hash differs")
	}
	// Mutating the clone must not affect the original.
	c.Ops[0].Out = "renamed"
	if d.Ops[0].Out == "renamed" {
		t.Error("clone shares op storage")
	}
	cw := c.ByOut("final_ranks")
	dw := d.ByOut("final_ranks")
	cw.Params.Body.Ops[0].Out = "renamed_body"
	if dw.Params.Body.Ops[0].Out == "renamed_body" {
		t.Error("clone shares body storage")
	}
}

func TestHashStableAndSensitive(t *testing.T) {
	a, b := maxPropertyPrice(), maxPropertyPrice()
	if a.Hash() != b.Hash() {
		t.Error("identical DAGs hash differently")
	}
	b.ByOut("street_price").Params.GroupBy = []string{"street"}
	if a.Hash() == b.Hash() {
		t.Error("parameter change did not change hash")
	}
}

func TestNumOpsCountsBodies(t *testing.T) {
	d := buildPageRankWhile(t)
	// outer: edges, ranks, while = 3; body: edges, ranks, join, agg,
	// 2 arith, rename-project = 7.
	if got := d.NumOps(); got != 10 {
		t.Errorf("NumOps = %d, want 10", got)
	}
}

func TestOpIDsUniqueAcrossBodies(t *testing.T) {
	d := buildPageRankWhile(t)
	seen := map[int]bool{}
	var walk func(dag *DAG)
	walk = func(dag *DAG) {
		for _, op := range dag.Ops {
			if seen[op.ID] {
				t.Errorf("duplicate op ID %d (%s)", op.ID, op)
			}
			seen[op.ID] = true
			if op.Params.Body != nil {
				walk(op.Params.Body)
			}
		}
	}
	walk(d)
	// Determinism: building the same workflow again yields the same IDs.
	d2 := buildPageRankWhile(t)
	for i := range d.Ops {
		if d.Ops[i].ID != d2.Ops[i].ID {
			t.Errorf("op %d ID changed across builds: %d vs %d", i, d.Ops[i].ID, d2.Ops[i].ID)
		}
	}
}

func TestSinks(t *testing.T) {
	d := maxPropertyPrice()
	sinks := d.Sinks()
	if len(sinks) != 1 || sinks[0].Out != "street_price" {
		t.Errorf("sinks = %v", sinks)
	}
}

func TestPredString(t *testing.T) {
	p := And(
		Cmp(ColRef("region"), CmpEq, LitOp(relation.Str("EU"))),
		Or(
			Cmp(ColRef("value"), CmpGt, LitOp(relation.Float(100))),
			Cmp(ColRef("vip"), CmpEq, LitOp(relation.Int(1))),
		),
	)
	s := p.String()
	for _, want := range []string{"region", "AND", "OR", `"EU"`, "100", ">"} {
		if !strings.Contains(s, want) {
			t.Errorf("predicate string %q missing %q", s, want)
		}
	}
	cols := p.Columns(nil)
	if len(cols) != 3 {
		t.Errorf("Columns = %v", cols)
	}
}

func TestCmpEval(t *testing.T) {
	cases := []struct {
		op   CmpOp
		cmp  int
		want bool
	}{
		{CmpEq, 0, true}, {CmpEq, 1, false},
		{CmpNe, 0, false}, {CmpNe, -1, true},
		{CmpLt, -1, true}, {CmpLt, 0, false},
		{CmpLe, 0, true}, {CmpLe, 1, false},
		{CmpGt, 1, true}, {CmpGt, 0, false},
		{CmpGe, 0, true}, {CmpGe, -1, false},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.cmp); got != c.want {
			t.Errorf("%s.Eval(%d) = %v", c.op, c.cmp, got)
		}
	}
}

func TestInputNames(t *testing.T) {
	d := maxPropertyPrice()
	got := d.InputNames()
	if len(got) != 2 || got[0] != "in/prices" || got[1] != "in/properties" {
		t.Errorf("InputNames = %v", got)
	}
}

func TestDAGStringContainsOps(t *testing.T) {
	s := maxPropertyPrice().String()
	for _, want := range []string{"INPUT", "PROJECT", "JOIN", "AGG", "street_price"} {
		if !strings.Contains(s, want) {
			t.Errorf("DAG string missing %q:\n%s", want, s)
		}
	}
}

func TestDOTRendering(t *testing.T) {
	d := buildPageRankWhile(t)
	dot := d.DOT("pagerank")
	for _, want := range []string{"digraph", "cluster_final_ranks", "->", "WHILE", "cylinder"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Node IDs must be unique: every declared node appears exactly once.
	decls := map[string]int{}
	for _, line := range strings.Split(dot, "\n") {
		line = strings.TrimSpace(line)
		if strings.Contains(line, "[label=") {
			id := strings.SplitN(line, " ", 2)[0]
			decls[id]++
		}
	}
	for id, n := range decls {
		if n > 1 {
			t.Errorf("node %s declared %d times", id, n)
		}
	}
}
