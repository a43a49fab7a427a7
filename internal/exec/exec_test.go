package exec

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

func mkRel(name string, schema relation.Schema, rows ...relation.Row) *relation.Relation {
	r := relation.New(name, schema)
	for _, row := range rows {
		r.MustAppend(row)
	}
	return r
}

func intRows(vals ...int64) []relation.Row {
	rows := make([]relation.Row, len(vals))
	for i, v := range vals {
		rows[i] = relation.Row{relation.Int(v)}
	}
	return rows
}

func evalOne(t *testing.T, typ ir.OpType, params ir.Params, inputs ...*relation.Relation) *relation.Relation {
	t.Helper()
	d := ir.NewDAG()
	ops := make([]*ir.Op, len(inputs))
	for i, in := range inputs {
		ops[i] = d.AddInput(in.Name, "in/"+in.Name, in.Schema)
	}
	op := d.Add(typ, "out", params, ops...)
	got, err := EvalOp(op, inputs)
	if err != nil {
		t.Fatalf("EvalOp(%s): %v", typ, err)
	}
	return got
}

func TestSelect(t *testing.T) {
	in := mkRel("t", relation.NewSchema("a:int"), intRows(1, 2, 3, 4, 5)...)
	got := evalOne(t, ir.OpSelect, ir.Params{
		Pred: ir.Cmp(ir.ColRef("a"), ir.CmpGt, ir.LitOp(relation.Int(3))),
	}, in)
	if got.NumRows() != 2 {
		t.Errorf("rows = %d, want 2", got.NumRows())
	}
}

func TestSelectCompoundPred(t *testing.T) {
	in := mkRel("t", relation.NewSchema("a:int", "s:string"),
		relation.Row{relation.Int(1), relation.Str("x")},
		relation.Row{relation.Int(2), relation.Str("y")},
		relation.Row{relation.Int(3), relation.Str("x")},
	)
	pred := ir.And(
		ir.Cmp(ir.ColRef("s"), ir.CmpEq, ir.LitOp(relation.Str("x"))),
		ir.Cmp(ir.ColRef("a"), ir.CmpGe, ir.LitOp(relation.Int(2))),
	)
	got := evalOne(t, ir.OpSelect, ir.Params{Pred: pred}, in)
	if got.NumRows() != 1 || got.Rows[0][0].I != 3 {
		t.Errorf("rows = %v", got.Rows)
	}
	pred2 := ir.Or(
		ir.Cmp(ir.ColRef("a"), ir.CmpEq, ir.LitOp(relation.Int(1))),
		ir.Cmp(ir.ColRef("a"), ir.CmpEq, ir.LitOp(relation.Int(2))),
	)
	got2 := evalOne(t, ir.OpSelect, ir.Params{Pred: pred2}, in)
	if got2.NumRows() != 2 {
		t.Errorf("or rows = %v", got2.Rows)
	}
}

func TestProjectWithRename(t *testing.T) {
	in := mkRel("t", relation.NewSchema("a:int", "b:string"),
		relation.Row{relation.Int(1), relation.Str("x")})
	got := evalOne(t, ir.OpProject, ir.Params{Columns: []string{"b", "a"}, As: []string{"name", "id"}}, in)
	want := relation.NewSchema("name:string", "id:int")
	if !got.Schema.Equal(want) {
		t.Errorf("schema = %s", got.Schema)
	}
	if got.Rows[0][0].S != "x" || got.Rows[0][1].I != 1 {
		t.Errorf("rows = %v", got.Rows)
	}
}

func TestUnionBagSemantics(t *testing.T) {
	a := mkRel("a", relation.NewSchema("x:int"), intRows(1, 2)...)
	b := mkRel("b", relation.NewSchema("x:int"), intRows(2, 3)...)
	got := evalOne(t, ir.OpUnion, ir.Params{}, a, b)
	if got.NumRows() != 4 {
		t.Errorf("union rows = %d, want 4 (bag)", got.NumRows())
	}
}

func TestIntersectSetSemantics(t *testing.T) {
	a := mkRel("a", relation.NewSchema("x:int"), intRows(1, 2, 2, 3)...)
	b := mkRel("b", relation.NewSchema("x:int"), intRows(2, 3, 4)...)
	got := evalOne(t, ir.OpIntersect, ir.Params{}, a, b)
	if got.NumRows() != 2 {
		t.Errorf("intersect rows = %v", got.Rows)
	}
}

func TestDifferenceSetSemantics(t *testing.T) {
	a := mkRel("a", relation.NewSchema("x:int"), intRows(1, 1, 2, 3)...)
	b := mkRel("b", relation.NewSchema("x:int"), intRows(2)...)
	got := evalOne(t, ir.OpDifference, ir.Params{}, a, b)
	if got.NumRows() != 2 { // {1, 3}
		t.Errorf("difference rows = %v", got.Rows)
	}
}

func TestJoinDropsRightKeys(t *testing.T) {
	locs := mkRel("locs", relation.NewSchema("id:int", "town:string"),
		relation.Row{relation.Int(1), relation.Str("cam")},
		relation.Row{relation.Int(2), relation.Str("oxf")},
	)
	prices := mkRel("prices", relation.NewSchema("id:int", "price:float"),
		relation.Row{relation.Int(1), relation.Float(100)},
		relation.Row{relation.Int(1), relation.Float(200)},
		relation.Row{relation.Int(3), relation.Float(300)},
	)
	got := evalOne(t, ir.OpJoin, ir.Params{LeftCols: []string{"id"}, RightCols: []string{"id"}}, locs, prices)
	if !got.Schema.Equal(relation.NewSchema("id:int", "town:string", "price:float")) {
		t.Errorf("schema = %s", got.Schema)
	}
	if got.NumRows() != 2 {
		t.Errorf("rows = %v", got.Rows)
	}
}

func TestJoinMultiKey(t *testing.T) {
	a := mkRel("a", relation.NewSchema("x:int", "y:int", "v:int"),
		relation.Row{relation.Int(1), relation.Int(2), relation.Int(10)},
		relation.Row{relation.Int(1), relation.Int(3), relation.Int(20)},
	)
	b := mkRel("b", relation.NewSchema("p:int", "q:int", "w:int"),
		relation.Row{relation.Int(1), relation.Int(2), relation.Int(7)},
	)
	got := evalOne(t, ir.OpJoin, ir.Params{LeftCols: []string{"x", "y"}, RightCols: []string{"p", "q"}}, a, b)
	if got.NumRows() != 1 || got.Rows[0][3].I != 7 {
		t.Errorf("rows = %v", got.Rows)
	}
}

func TestCrossJoin(t *testing.T) {
	a := mkRel("a", relation.NewSchema("x:int"), intRows(1, 2)...)
	b := mkRel("b", relation.NewSchema("y:int"), intRows(10, 20, 30)...)
	got := evalOne(t, ir.OpCrossJoin, ir.Params{}, a, b)
	if got.NumRows() != 6 {
		t.Errorf("cross rows = %d", got.NumRows())
	}
}

func TestAggAllFuncs(t *testing.T) {
	in := mkRel("t", relation.NewSchema("g:string", "v:int"),
		relation.Row{relation.Str("a"), relation.Int(1)},
		relation.Row{relation.Str("a"), relation.Int(3)},
		relation.Row{relation.Str("b"), relation.Int(10)},
	)
	got := evalOne(t, ir.OpAgg, ir.Params{
		GroupBy: []string{"g"},
		Aggs: []ir.AggSpec{
			{Func: ir.AggSum, Col: "v", As: "s"},
			{Func: ir.AggCount, As: "n"},
			{Func: ir.AggMin, Col: "v", As: "lo"},
			{Func: ir.AggMax, Col: "v", As: "hi"},
			{Func: ir.AggAvg, Col: "v", As: "avg"},
		},
	}, in)
	if got.NumRows() != 2 {
		t.Fatalf("groups = %d", got.NumRows())
	}
	byKey := map[string]relation.Row{}
	for _, r := range got.Rows {
		byKey[r[0].S] = r
	}
	a := byKey["a"]
	if a[1].I != 4 || a[2].I != 2 || a[3].I != 1 || a[4].I != 3 || a[5].F != 2 {
		t.Errorf("group a = %v", a)
	}
	b := byKey["b"]
	if b[1].I != 10 || b[2].I != 1 {
		t.Errorf("group b = %v", b)
	}
}

func TestAggEmptyGroupByOnEmptyInput(t *testing.T) {
	in := mkRel("t", relation.NewSchema("v:int"))
	got := evalOne(t, ir.OpAgg, ir.Params{
		Aggs: []ir.AggSpec{{Func: ir.AggCount, As: "n"}, {Func: ir.AggSum, Col: "v", As: "s"}},
	}, in)
	if got.NumRows() != 1 || got.Rows[0][0].I != 0 {
		t.Errorf("rows = %v", got.Rows)
	}
}

func TestArithInPlaceAndNewColumn(t *testing.T) {
	in := mkRel("t", relation.NewSchema("v:float"),
		relation.Row{relation.Float(2)})
	inPlace := evalOne(t, ir.OpArith, ir.Params{
		Dst: "v", ALeft: ir.ColRef("v"), ARght: ir.LitOp(relation.Float(0.85)), AOp: ir.ArithMul,
	}, in)
	if inPlace.Rows[0][0].F != 1.7 {
		t.Errorf("in-place = %v", inPlace.Rows[0])
	}
	newCol := evalOne(t, ir.OpArith, ir.Params{
		Dst: "w", ALeft: ir.ColRef("v"), ARght: ir.ColRef("v"), AOp: ir.ArithAdd,
	}, in)
	if newCol.Schema.Arity() != 2 || newCol.Rows[0][1].F != 4 {
		t.Errorf("new-col = %v %s", newCol.Rows[0], newCol.Schema)
	}
}

func TestDistinct(t *testing.T) {
	in := mkRel("t", relation.NewSchema("v:int"), intRows(1, 1, 2, 2, 2, 3)...)
	got := evalOne(t, ir.OpDistinct, ir.Params{}, in)
	if got.NumRows() != 3 {
		t.Errorf("distinct rows = %d", got.NumRows())
	}
}

func TestUDFRegistryAndEval(t *testing.T) {
	RegisterUDF("double", UDF{
		Fn: func(in []*relation.Relation) (*relation.Relation, error) {
			out := relation.New("out", in[0].Schema)
			for _, r := range in[0].Rows {
				nr := r.Clone()
				nr[0] = nr[0].Add(nr[0])
				out.Rows = append(out.Rows, nr)
			}
			return out, nil
		},
		OutSchema: func(in []relation.Schema) (relation.Schema, error) { return in[0], nil },
	})
	in := mkRel("t", relation.NewSchema("v:int"), intRows(3)...)
	got := evalOne(t, ir.OpUDF, ir.Params{UDFName: "double"}, in)
	if got.Rows[0][0].I != 6 {
		t.Errorf("udf result = %v", got.Rows)
	}
}

func TestUDFErrorPropagates(t *testing.T) {
	RegisterUDF("boom", UDF{
		Fn: func(in []*relation.Relation) (*relation.Relation, error) {
			return nil, fmt.Errorf("kaboom")
		},
		OutSchema: func(in []relation.Schema) (relation.Schema, error) { return in[0], nil },
	})
	d := ir.NewDAG()
	in := d.AddInput("t", "in/t", relation.NewSchema("v:int"))
	op := d.Add(ir.OpUDF, "out", ir.Params{UDFName: "boom"}, in)
	_, err := EvalOp(op, []*relation.Relation{mkRel("t", relation.NewSchema("v:int"), intRows(1)...)})
	if err == nil {
		t.Error("UDF error swallowed")
	}
}

// TestUDFReturningNothing: a UDF body returning (nil, nil) used to be
// dereferenced, panicking the worker that ran it.
func TestUDFReturningNothing(t *testing.T) {
	RegisterUDF("void", UDF{
		Fn:        func(in []*relation.Relation) (*relation.Relation, error) { return nil, nil },
		OutSchema: func(in []relation.Schema) (relation.Schema, error) { return in[0], nil },
	})
	d := ir.NewDAG()
	in := d.AddInput("t", "in/t", relation.NewSchema("v:int"))
	op := d.Add(ir.OpUDF, "out", ir.Params{UDFName: "void"}, in)
	_, err := EvalOp(op, []*relation.Relation{mkRel("t", relation.NewSchema("v:int"), intRows(1)...)})
	if err == nil || !strings.Contains(err.Error(), `UDF "void" returned no relation`) {
		t.Errorf("err = %v, want a no-relation error", err)
	}
}

func TestScalePropagation(t *testing.T) {
	in := mkRel("t", relation.NewSchema("v:int"), intRows(1, 2, 3, 4)...)
	in.LogicalBytes = in.PhysicalBytes() * 1000
	got := evalOne(t, ir.OpSelect, ir.Params{
		Pred: ir.Cmp(ir.ColRef("v"), ir.CmpLe, ir.LitOp(relation.Int(2))),
	}, in)
	wantApprox := float64(got.PhysicalBytes()) * 1000
	if math.Abs(float64(got.LogicalBytes)-wantApprox) > wantApprox*0.01 {
		t.Errorf("logical = %d, want ~%g", got.LogicalBytes, wantApprox)
	}
}

func TestRunDAGEndToEnd(t *testing.T) {
	// max-property-price (paper Listing 1) end to end.
	d := ir.NewDAG()
	props := d.AddInput("properties", "in/properties", relation.NewSchema("id:int", "street:string", "town:string"))
	prices := d.AddInput("prices", "in/prices", relation.NewSchema("id:int", "price:float"))
	locs := d.Add(ir.OpProject, "locs", ir.Params{Columns: []string{"id", "street", "town"}}, props)
	idPrice := d.Add(ir.OpJoin, "id_price", ir.Params{LeftCols: []string{"id"}, RightCols: []string{"id"}}, locs, prices)
	d.Add(ir.OpAgg, "street_price", ir.Params{
		GroupBy: []string{"street", "town"},
		Aggs:    []ir.AggSpec{{Func: ir.AggMax, Col: "price", As: "max_price"}},
	}, idPrice)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}

	env := Env{
		"properties": mkRel("properties", relation.NewSchema("id:int", "street:string", "town:string"),
			relation.Row{relation.Int(1), relation.Str("mill rd"), relation.Str("cam")},
			relation.Row{relation.Int(2), relation.Str("mill rd"), relation.Str("cam")},
			relation.Row{relation.Int(3), relation.Str("high st"), relation.Str("oxf")},
		),
		"prices": mkRel("prices", relation.NewSchema("id:int", "price:float"),
			relation.Row{relation.Int(1), relation.Float(100)},
			relation.Row{relation.Int(2), relation.Float(250)},
			relation.Row{relation.Int(3), relation.Float(70)},
		),
	}
	out, trace, err := RunDAG(d, env)
	if err != nil {
		t.Fatal(err)
	}
	sp := out["street_price"]
	if sp.NumRows() != 2 {
		t.Fatalf("street_price rows = %v", sp.Rows)
	}
	want := map[string]float64{"mill rd": 250, "high st": 70}
	for _, r := range sp.Rows {
		if want[r[0].S] != r[2].F {
			t.Errorf("row %v, want max %v", r, want[r[0].S])
		}
	}
	if trace.OutRows[idPrice.ID] != 3 {
		t.Errorf("trace join rows = %d", trace.OutRows[idPrice.ID])
	}
}

// referencePageRank computes damped PageRank contributions directly,
// mirroring the IR body used in the WHILE test: rank flows along edges,
// then rank = 0.15 + 0.85 * sum(in).
// Vertices with no in-edges disappear (as in the relational formulation).
func referencePageRank(edges map[int64][]int64, ranks map[int64]float64, iters int) map[int64]float64 {
	deg := map[int64]int{}
	for src, dsts := range edges {
		deg[src] = len(dsts)
	}
	for i := 0; i < iters; i++ {
		next := map[int64]float64{}
		for src, dsts := range edges {
			r, ok := ranks[src]
			if !ok {
				continue
			}
			share := r / float64(len(dsts))
			for _, d := range dsts {
				next[d] += share
			}
		}
		for v := range next {
			next[v] = 0.15 + 0.85*next[v]
		}
		ranks = next
	}
	return ranks
}

func buildPageRankDAG(iters int) *ir.DAG {
	d := ir.NewDAG()
	edges := d.AddInput("edges", "in/edges", relation.NewSchema("src:int", "dst:int", "degree:int"))
	ranks := d.AddInput("ranks", "in/ranks", relation.NewSchema("vertex:int", "rank:float"))

	body := ir.NewDAG()
	bRanks := body.AddInput("ranks", "", relation.NewSchema("vertex:int", "rank:float"))
	bEdges := body.AddInput("edges", "", relation.NewSchema("src:int", "dst:int", "degree:int"))
	// scatter: send rank/degree along each edge
	j := body.Add(ir.OpJoin, "sent", ir.Params{LeftCols: []string{"vertex"}, RightCols: []string{"src"}}, bRanks, bEdges)
	sh := body.Add(ir.OpArith, "shared", ir.Params{Dst: "rank", ALeft: ir.ColRef("rank"), ARght: ir.ColRef("degree"), AOp: ir.ArithDiv}, j)
	// gather: sum incoming rank per destination
	g := body.Add(ir.OpAgg, "gathered", ir.Params{
		GroupBy: []string{"dst"},
		Aggs:    []ir.AggSpec{{Func: ir.AggSum, Col: "rank", As: "rank"}},
	}, sh)
	// apply: rank = 0.15 + 0.85 * gathered
	m := body.Add(ir.OpArith, "damped", ir.Params{Dst: "rank", ALeft: ir.ColRef("rank"), ARght: ir.LitOp(relation.Float(0.85)), AOp: ir.ArithMul}, g)
	ap := body.Add(ir.OpArith, "applied", ir.Params{Dst: "rank", ALeft: ir.ColRef("rank"), ARght: ir.LitOp(relation.Float(0.15)), AOp: ir.ArithAdd}, m)
	body.Add(ir.OpProject, "new_ranks", ir.Params{Columns: []string{"dst", "rank"}, As: []string{"vertex", "rank"}}, ap)

	d.Add(ir.OpWhile, "final_ranks", ir.Params{
		Body:    body,
		MaxIter: iters,
		Carried: map[string]string{"ranks": "new_ranks"},
	}, ranks, edges)
	return d
}

func TestWhilePageRankMatchesReference(t *testing.T) {
	adj := map[int64][]int64{
		1: {2, 3},
		2: {3},
		3: {1},
		4: {1, 3},
	}
	iters := 5
	edgeRel := relation.New("edges", relation.NewSchema("src:int", "dst:int", "degree:int"))
	for src, dsts := range adj {
		for _, dst := range dsts {
			edgeRel.MustAppend(relation.Row{relation.Int(src), relation.Int(dst), relation.Int(int64(len(dsts)))})
		}
	}
	rankRel := relation.New("ranks", relation.NewSchema("vertex:int", "rank:float"))
	init := map[int64]float64{}
	for _, v := range []int64{1, 2, 3, 4} {
		rankRel.MustAppend(relation.Row{relation.Int(v), relation.Float(1)})
		init[v] = 1
	}

	d := buildPageRankDAG(iters)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	out, trace, err := RunDAG(d, Env{"edges": edgeRel, "ranks": rankRel})
	if err != nil {
		t.Fatal(err)
	}
	want := referencePageRank(adj, init, iters)
	got := out["final_ranks"]
	whileOp := d.ByOut("final_ranks")
	if trace.Iterations[whileOp.ID] != iters {
		t.Errorf("iterations = %d, want %d", trace.Iterations[whileOp.ID], iters)
	}
	if got.NumRows() != len(want) {
		t.Fatalf("rank rows = %d, want %d: %v", got.NumRows(), len(want), got.Rows)
	}
	for _, r := range got.Rows {
		v, rank := r[0].I, r[1].F
		if math.Abs(rank-want[v]) > 1e-9 {
			t.Errorf("vertex %d rank = %g, want %g", v, rank, want[v])
		}
	}
}

func TestWhileCondRelStopsEarly(t *testing.T) {
	// Loop decrements a counter; condition relation selects rows > 0.
	d := ir.NewDAG()
	in := d.AddInput("counter", "in/counter", relation.NewSchema("v:int"))
	body := ir.NewDAG()
	bIn := body.AddInput("counter", "", relation.NewSchema("v:int"))
	dec := body.Add(ir.OpArith, "next", ir.Params{Dst: "v", ALeft: ir.ColRef("v"), ARght: ir.LitOp(relation.Int(1)), AOp: ir.ArithSub}, bIn)
	body.Add(ir.OpSelect, "pending", ir.Params{Pred: ir.Cmp(ir.ColRef("v"), ir.CmpGt, ir.LitOp(relation.Int(0)))}, dec)
	w := d.Add(ir.OpWhile, "done", ir.Params{
		Body:    body,
		MaxIter: 100,
		CondRel: "pending",
		Carried: map[string]string{"counter": "next"},
	}, in)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	env := Env{"counter": mkRel("counter", relation.NewSchema("v:int"), intRows(3)...)}
	out, trace, err := RunDAG(d, env)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Iterations[w.ID] != 3 {
		t.Errorf("iterations = %d, want 3", trace.Iterations[w.ID])
	}
	if out["done"].Rows[0][0].I != 0 {
		t.Errorf("final = %v", out["done"].Rows)
	}
}

// A native WHILE binds a body INPUT to the WHILE input of its name, as the
// driver loop does, and to nothing else the environment happens to hold
// under that name or path.
func TestWhileBodyInputBindsOnlyWhileInputs(t *testing.T) {
	sch := relation.NewSchema("v:int")
	d := ir.NewDAG()
	in := d.AddInput("counter", "in/counter", sch)
	body := ir.NewDAG()
	bIn := body.AddInput("counter", "", sch)
	stray := body.AddInput("extra", "in/extra", sch)
	body.Add(ir.OpUnion, "next", ir.Params{}, bIn, stray)
	d.Add(ir.OpWhile, "done", ir.Params{Body: body, MaxIter: 2, Carried: map[string]string{"counter": "next"}}, in)
	ops, err := d.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	rel := mkRel("extra", sch, intRows(7)...)
	for _, env := range []Env{{"extra": rel}, {"in/extra": rel}} {
		env["counter"] = mkRel("counter", sch, intRows(1)...)
		err := RunOps(ops, env, NewTrace(), RunOptions{})
		if err == nil || !strings.Contains(err.Error(), `body input "extra" is not bound by the WHILE`) {
			t.Errorf("env %v: err = %v, want the unbound body input", slices.Sorted(maps.Keys(env)), err)
		}
	}
}

func TestRunOpsMissingInput(t *testing.T) {
	d := ir.NewDAG()
	in := d.AddInput("t", "in/t", relation.NewSchema("v:int"))
	breaker := d.Add(ir.OpDistinct, "o", ir.Params{}, in)
	piped := d.Add(ir.OpSelect, "s", ir.Params{Pred: ir.Cmp(ir.ColRef("v"), ir.CmpGt, ir.LitOp(relation.Int(0)))}, in)
	for _, op := range []*ir.Op{breaker, piped, in} {
		if err := RunOps([]*ir.Op{op}, Env{}, NewTrace(), RunOptions{}); err == nil {
			t.Errorf("%s: missing input not reported", op)
		}
	}
}

func TestSelectionCountQuick(t *testing.T) {
	// |select(R, v>c)| + |select(R, v<=c)| == |R|
	f := func(vals []int64, c int64) bool {
		in := mkRel("t", relation.NewSchema("v:int"), intRows(vals...)...)
		gt := mustEval(ir.OpSelect, ir.Params{Pred: ir.Cmp(ir.ColRef("v"), ir.CmpGt, ir.LitOp(relation.Int(c)))}, in)
		le := mustEval(ir.OpSelect, ir.Params{Pred: ir.Cmp(ir.ColRef("v"), ir.CmpLe, ir.LitOp(relation.Int(c)))}, in)
		return gt.NumRows()+le.NumRows() == in.NumRows()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestUnionDifferenceQuick(t *testing.T) {
	// distinct(A) == difference(A, empty)
	f := func(vals []int64) bool {
		a := mkRel("a", relation.NewSchema("v:int"), intRows(vals...)...)
		empty := mkRel("b", relation.NewSchema("v:int"))
		diff := mustEval(ir.OpDifference, ir.Params{}, a, empty)
		dist := mustEval(ir.OpDistinct, ir.Params{}, a)
		return diff.Fingerprint() == dist.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestJoinCardinalityQuick(t *testing.T) {
	// |A ⋈ B| == sum over keys of countA(k)*countB(k)
	f := func(as, bs []uint8) bool {
		a := relation.New("a", relation.NewSchema("k:int"))
		for _, v := range as {
			a.MustAppend(relation.Row{relation.Int(int64(v % 8))})
		}
		b := relation.New("b", relation.NewSchema("k:int"))
		for _, v := range bs {
			b.MustAppend(relation.Row{relation.Int(int64(v % 8))})
		}
		got := mustEval(ir.OpJoin, ir.Params{LeftCols: []string{"k"}, RightCols: []string{"k"}}, a, b)
		ca, cb := map[int64]int{}, map[int64]int{}
		for _, r := range a.Rows {
			ca[r[0].I]++
		}
		for _, r := range b.Rows {
			cb[r[0].I]++
		}
		want := 0
		for k, n := range ca {
			want += n * cb[k]
		}
		return got.NumRows() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func mustEval(typ ir.OpType, params ir.Params, inputs ...*relation.Relation) *relation.Relation {
	d := ir.NewDAG()
	ops := make([]*ir.Op, len(inputs))
	for i, in := range inputs {
		ops[i] = d.AddInput(in.Name+fmt.Sprint(i), "in", in.Schema)
	}
	op := d.Add(typ, "out", params, ops...)
	rel, err := EvalOp(op, inputs)
	if err != nil {
		panic(err)
	}
	return rel
}

func TestSortKernel(t *testing.T) {
	in := mkRel("t", relation.NewSchema("k:int", "v:string"),
		relation.Row{relation.Int(3), relation.Str("c")},
		relation.Row{relation.Int(1), relation.Str("a")},
		relation.Row{relation.Int(2), relation.Str("b")},
		relation.Row{relation.Int(1), relation.Str("z")},
	)
	asc := evalOne(t, ir.OpSort, ir.Params{SortBy: []string{"k"}}, in)
	if asc.Rows[0][0].I != 1 || asc.Rows[3][0].I != 3 {
		t.Errorf("asc = %v", asc.Rows)
	}
	// Stability: equal keys keep input order.
	if asc.Rows[0][1].S != "a" || asc.Rows[1][1].S != "z" {
		t.Errorf("sort not stable: %v", asc.Rows)
	}
	desc := evalOne(t, ir.OpSort, ir.Params{SortBy: []string{"k"}, Desc: true}, in)
	if desc.Rows[0][0].I != 3 {
		t.Errorf("desc = %v", desc.Rows)
	}
	// The input slice must not be mutated.
	if in.Rows[0][0].I != 3 {
		t.Error("sort mutated its input")
	}
}

func TestLimitKernel(t *testing.T) {
	in := mkRel("t", relation.NewSchema("v:int"), intRows(1, 2, 3, 4, 5)...)
	got := evalOne(t, ir.OpLimit, ir.Params{Limit: 3}, in)
	if got.NumRows() != 3 || got.Rows[2][0].I != 3 {
		t.Errorf("limit = %v", got.Rows)
	}
	over := evalOne(t, ir.OpLimit, ir.Params{Limit: 99}, in)
	if over.NumRows() != 5 {
		t.Errorf("limit beyond size = %d rows", over.NumRows())
	}
}

func TestTopNPipeline(t *testing.T) {
	// sort desc + limit = top-N, the classic extension workload.
	d := ir.NewDAG()
	in := d.AddInput("t", "in/t", relation.NewSchema("v:int"))
	s := d.Add(ir.OpSort, "sorted", ir.Params{SortBy: []string{"v"}, Desc: true}, in)
	d.Add(ir.OpLimit, "top", ir.Params{Limit: 2}, s)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	rel := mkRel("t", relation.NewSchema("v:int"), intRows(5, 9, 1, 7, 3)...)
	env, _, err := RunDAG(d, Env{"t": rel})
	if err != nil {
		t.Fatal(err)
	}
	top := env["top"]
	if top.Rows[0][0].I != 9 || top.Rows[1][0].I != 7 {
		t.Errorf("top-2 = %v", top.Rows)
	}
}
