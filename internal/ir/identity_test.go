package ir

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"musketeer/internal/relation"
)

// canonWorkflow builds the Listing-1 shape (two inputs, project, join, agg)
// with caller-chosen relation names and insertion order, so tests can build
// isomorphic-but-textually-different DAGs. Literals parameterize via the
// select threshold.
func canonWorkflow(names map[string]string, reversedInputs bool, threshold int64) *DAG {
	n := func(k string) string {
		if v, ok := names[k]; ok {
			return v
		}
		return k
	}
	d := NewDAG()
	var props, prices *Op
	if reversedInputs {
		prices = d.AddInput(n("prices"), "in/prices", pricesSchema())
		props = d.AddInput(n("properties"), "in/properties", propsSchema())
	} else {
		props = d.AddInput(n("properties"), "in/properties", propsSchema())
		prices = d.AddInput(n("prices"), "in/prices", pricesSchema())
	}
	sel := d.Add(OpSelect, n("cheap"), Params{
		Pred: Cmp(ColRef("id"), CmpLt, LitOp(relation.Int(threshold))),
	}, prices)
	locs := d.Add(OpProject, n("locs"), Params{Columns: []string{"id", "street", "town"}}, props)
	j := d.Add(OpJoin, n("id_price"), Params{LeftCols: []string{"id"}, RightCols: []string{"id"}}, locs, sel)
	d.Add(OpAgg, n("street_price"), Params{
		GroupBy: []string{"street", "town"},
		Aggs:    []AggSpec{{Func: AggMax, Col: "price", As: "max_price"}},
	}, j)
	return d
}

func TestCanonicalHashRenameInvariant(t *testing.T) {
	a := canonWorkflow(nil, false, 100)
	b := canonWorkflow(map[string]string{
		"properties": "t0", "prices": "t1", "cheap": "t2",
		"locs": "t3", "id_price": "t4", "street_price": "t5",
	}, false, 100)
	if CanonicalHash(a) != CanonicalHash(b) {
		t.Errorf("renaming every relation changed the canonical hash: %s vs %s",
			CanonicalHash(a), CanonicalHash(b))
	}
	if a.Hash() == b.Hash() {
		t.Error("sanity: the name-sensitive DAG.Hash should differ under renaming")
	}
}

func TestCanonicalHashOrderInvariant(t *testing.T) {
	a := canonWorkflow(nil, false, 100)
	b := canonWorkflow(nil, true, 100)
	if CanonicalHash(a) != CanonicalHash(b) {
		t.Errorf("reordering op insertion changed the canonical hash: %s vs %s",
			CanonicalHash(a), CanonicalHash(b))
	}
}

func TestCanonicalHashLiteralSensitive(t *testing.T) {
	a := canonWorkflow(nil, false, 100)
	b := canonWorkflow(nil, false, 200)
	if CanonicalHash(a) == CanonicalHash(b) {
		t.Error("changing a predicate literal did not change the canonical hash")
	}
}

func TestCanonicalHashStructureSensitive(t *testing.T) {
	a := canonWorkflow(nil, false, 100)
	b := canonWorkflow(nil, false, 100)
	// Same ops, different wiring: aggregate the projection instead of the join.
	agg := b.ByOut("street_price")
	agg.Inputs = []*Op{b.ByOut("locs")}
	if CanonicalHash(a) == CanonicalHash(b) {
		t.Error("rewiring an edge did not change the canonical hash")
	}
}

func TestCanonicalOrderBijection(t *testing.T) {
	a := canonWorkflow(nil, false, 100)
	b := canonWorkflow(map[string]string{
		"properties": "x0", "prices": "x1", "cheap": "x2",
		"locs": "x3", "id_price": "x4", "street_price": "x5",
	}, true, 100)
	oa, ob := Identify(a).Order, Identify(b).Order
	if len(oa) != len(ob) {
		t.Fatalf("order lengths differ: %d vs %d", len(oa), len(ob))
	}
	for i := range oa {
		if oa[i].Type != ob[i].Type {
			t.Errorf("position %d: %s vs %s — canonical orders misaligned",
				i, oa[i].Type, ob[i].Type)
		}
	}
	// The agg in a must align with the renamed agg in b.
	for i := range oa {
		if oa[i].Out == "street_price" && ob[i].Out != "x5" {
			t.Errorf("agg aligned with %q, want x5", ob[i].Out)
		}
	}
}

// TestCanonicalOrderTwins pins the refinement step: two SELECTs with equal
// upstream cones but different consumers must separate by downstream
// context, so recipes never swap them.
func TestCanonicalOrderTwins(t *testing.T) {
	build := func(swap bool) *DAG {
		d := NewDAG()
		in := d.AddInput("src", "in/src", pricesSchema())
		p := Cmp(ColRef("id"), CmpGt, LitOp(relation.Int(1)))
		s1 := d.Add(OpSelect, "s1", Params{Pred: p}, in)
		s2 := d.Add(OpSelect, "s2", Params{Pred: p}, in)
		if swap {
			s1, s2 = s2, s1
		}
		// s1 feeds a DISTINCT, s2 feeds a SORT: downstream context differs.
		d.Add(OpDistinct, "d", Params{}, s1)
		d.Add(OpSort, "o", Params{SortBy: []string{"id"}}, s2)
		return d
	}
	a, b := build(false), build(true)
	if CanonicalHash(a) != CanonicalHash(b) {
		t.Fatal("twin selects: hashes differ for isomorphic DAGs")
	}
	oa, ob := Identify(a).Order, Identify(b).Order
	cona, conb := a.Consumers(), b.Consumers()
	for i := range oa {
		if oa[i].Type != OpSelect {
			continue
		}
		if len(cona[oa[i]]) != 1 || len(conb[ob[i]]) != 1 {
			t.Fatalf("position %d: select consumer count unexpected", i)
		}
		if cona[oa[i]][0].Type != conb[ob[i]][0].Type {
			t.Errorf("position %d: twin selects aligned to different consumers (%s vs %s)",
				i, cona[oa[i]][0].Type, conb[ob[i]][0].Type)
		}
	}
}

func TestCanonicalHashWhileBodyNamesMatter(t *testing.T) {
	build := func(bodyOut string) *DAG {
		body := NewDAG()
		bin := body.AddInput("cur", "", pricesSchema())
		body.Add(OpDistinct, bodyOut, Params{}, bin)
		d := NewDAG()
		src := d.AddInput("seed", "in/seed", pricesSchema())
		d.Add(OpWhile, "result", Params{
			Body: body, MaxIter: 3,
			Carried: map[string]string{"cur": bodyOut},
		}, src)
		return d
	}
	a, b := build("next"), build("step")
	if CanonicalHash(a) == CanonicalHash(b) {
		t.Error("WHILE body relation names are semantic (Carried refers to them) and must affect the hash")
	}
}

func TestCanonicalHashStableAcrossRuns(t *testing.T) {
	// Map iteration order must not leak into the digest.
	want := CanonicalHash(canonWorkflow(nil, false, 100))
	for i := 0; i < 20; i++ {
		if got := CanonicalHash(canonWorkflow(nil, false, 100)); got != want {
			t.Fatalf("run %d: hash %s != %s", i, got, want)
		}
	}
}

func BenchmarkCanonicalHash(b *testing.B) {
	d := canonWorkflow(nil, false, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if CanonicalHash(d) == "" {
			b.Fatal("empty hash")
		}
	}
}

func ExampleCanonicalHash() {
	a := canonWorkflow(nil, false, 100)
	b := canonWorkflow(map[string]string{"street_price": "renamed"}, true, 100)
	fmt.Println(CanonicalHash(a) == CanonicalHash(b))
	// Output: true
}

// identityMutations changes exactly one identity-relevant field of an
// operator whose type reads it. Keys are "Struct.Field"; every field of
// Params, Operand, Pred and AggSpec must have an entry (the coverage walk in
// TestIdentityMetamorphic fails otherwise), so a field added later cannot
// be left out of the encoder unnoticed.
var identityMutations = map[string]struct {
	typ    OpType
	base   func() Params
	mutate func(*Params)
}{
	"Params.Path":      {OpInput, inputParams, func(p *Params) { p.Path = "in/other" }},
	"Params.Schema":    {OpInput, inputParams, func(p *Params) { p.Schema = relation.NewSchema("id:int", "price:int") }},
	"Schema.Cols.Name": {OpInput, inputParams, func(p *Params) { p.Schema = relation.NewSchema("id:int", "cost:float") }},
	"Params.Pred":      {OpSelect, selectParams, func(p *Params) { p.Pred = Cmp(ColRef("id"), CmpLt, LitOp(relation.Int(8))) }},
	"Params.Columns":   {OpProject, projectParams, func(p *Params) { p.Columns = []string{"price", "id"} }},
	"Params.As":        {OpProject, projectParams, func(p *Params) { p.As = []string{"k", "w"} }},
	"Params.LeftCols":  {OpJoin, joinParams, func(p *Params) { p.LeftCols = []string{"price"} }},
	"Params.RightCols": {OpJoin, joinParams, func(p *Params) { p.RightCols = []string{"price"} }},
	"Params.GroupBy":   {OpAgg, aggParams, func(p *Params) { p.GroupBy = []string{"price"} }},
	"Params.Aggs":      {OpAgg, aggParams, func(p *Params) { p.Aggs = append(p.Aggs, AggSpec{Func: AggCount, As: "n"}) }},
	"AggSpec.Func":     {OpAgg, aggParams, func(p *Params) { p.Aggs[0].Func = AggMin }},
	"AggSpec.Col":      {OpAgg, aggParams, func(p *Params) { p.Aggs[0].Col = "id" }},
	"AggSpec.As":       {OpAgg, aggParams, func(p *Params) { p.Aggs[0].As = "best" }},
	"Params.Dst":       {OpArith, arithParams, func(p *Params) { p.Dst = "scaled" }},
	"Params.ALeft":     {OpArith, arithParams, func(p *Params) { p.ALeft = ColRef("id") }},
	"Params.ARght":     {OpArith, arithParams, func(p *Params) { p.ARght = LitOp(relation.Int(3)) }},
	"Params.AOp":       {OpArith, arithParams, func(p *Params) { p.AOp = ArithMul }},
	"Operand.IsCol":    {OpArith, arithParams, func(p *Params) { p.ARght = Operand{IsCol: true, Lit: relation.Int(2)} }},
	"Operand.Col":      {OpArith, arithParams, func(p *Params) { p.ALeft.Col = "id" }},
	"Operand.Lit":      {OpArith, arithParams, func(p *Params) { p.ARght.Lit = relation.Int(3) }},
	"Operand.Lit.Kind": {OpArith, arithParams, func(p *Params) { p.ARght.Lit = relation.Float(2) }},
	"Operand.Scale":    {OpArith, arithParams, func(p *Params) { p.ALeft.Scale = 0.5 }},
	"Params.UDFName":   {OpUDF, func() Params { return Params{UDFName: "f"} }, func(p *Params) { p.UDFName = "g" }},
	"Params.SortBy":    {OpSort, sortParams, func(p *Params) { p.SortBy = []string{"price"} }},
	"Params.Desc":      {OpSort, sortParams, func(p *Params) { p.Desc = true }},
	"Params.Limit":     {OpLimit, func() Params { return Params{Limit: 5} }, func(p *Params) { p.Limit = 6 }},
	"Pred.Kind":        {OpSelect, andParams, func(p *Params) { p.Pred.Kind = PredOr }},
	"Pred.Left":        {OpSelect, andParams, func(p *Params) { p.Pred.Left = p.Pred.Right }},
	"Pred.Right":       {OpSelect, andParams, func(p *Params) { p.Pred.Right = p.Pred.Left }},
	"Pred.LHS":         {OpSelect, selectParams, func(p *Params) { p.Pred.LHS = ColRef("price") }},
	"Pred.RHS":         {OpSelect, selectParams, func(p *Params) { p.Pred.RHS = LitOp(relation.Int(8)) }},
	"Pred.Cmp":         {OpSelect, selectParams, func(p *Params) { p.Pred.Cmp = CmpLe }},
	// Renaming a body intermediate touches nothing but Body: loop-body
	// names are semantics, so both identities must move.
	"Params.Body":    {OpWhile, whileParams, func(p *Params) { p.Body.ByOut("mid").Out = "mid2" }},
	"Params.MaxIter": {OpWhile, whileParams, func(p *Params) { p.MaxIter = 4 }},
	"Params.CondRel": {OpWhile, whileParams, func(p *Params) { p.CondRel = "mid" }},
	"Params.Carried": {OpWhile, whileParams, func(p *Params) { p.Carried["cur"] = "mid" }},
}

func inputParams() Params { return Params{Path: "in/prices", Schema: pricesSchema()} }
func selectParams() Params {
	return Params{Pred: Cmp(ColRef("id"), CmpLt, LitOp(relation.Int(7)))}
}
func andParams() Params {
	return Params{Pred: And(
		Cmp(ColRef("id"), CmpLt, LitOp(relation.Int(7))),
		Cmp(ColRef("price"), CmpGt, LitOp(relation.Float(1.5))))}
}
func projectParams() Params {
	return Params{Columns: []string{"id", "price"}, As: []string{"k", "v"}}
}
func joinParams() Params {
	return Params{LeftCols: []string{"id"}, RightCols: []string{"id"}}
}
func aggParams() Params {
	return Params{GroupBy: []string{"id"}, Aggs: []AggSpec{{Func: AggMax, Col: "price", As: "top"}}}
}
func arithParams() Params {
	return Params{Dst: "half", ALeft: ScaledCol("price", 0.2), AOp: ArithDiv, ARght: LitOp(relation.Int(2))}
}
func sortParams() Params { return Params{SortBy: []string{"id"}} }
func whileParams() Params {
	body := NewDAG()
	cur := body.AddInput("cur", "", pricesSchema())
	mid := body.Add(OpDistinct, "mid", Params{}, cur)
	body.Add(OpSort, "next", Params{SortBy: []string{"id"}}, mid)
	return Params{Body: body, MaxIter: 3, CondRel: "next", Carried: map[string]string{"cur": "next"}}
}

// mutationDAG places one operator of the given type between two sources
// and a sink.
func mutationDAG(typ OpType, p Params) *DAG {
	d := NewDAG()
	if typ == OpInput {
		d.Add(OpDistinct, "out", Params{}, d.Add(OpInput, "op", p))
		return d
	}
	l := d.AddInput("l", "in/l", pricesSchema())
	r := d.AddInput("r", "in/r", pricesSchema())
	d.Add(OpDistinct, "out", Params{}, d.Add(typ, "op", p, l, r))
	return d
}

func TestIdentityMetamorphic(t *testing.T) {
	for _, st := range []any{Params{}, Operand{}, Pred{}, AggSpec{}} {
		rt := reflect.TypeOf(st)
		for i := 0; i < rt.NumField(); i++ {
			if name := rt.Name() + "." + rt.Field(i).Name; identityMutations[name].base == nil {
				t.Errorf("no identity mutation covers %s: add one, and the field to appendParams", name)
			}
		}
	}
	for name, m := range identityMutations {
		base, mutant := m.base(), m.base()
		m.mutate(&mutant)
		a, b := mutationDAG(m.typ, base), mutationDAG(m.typ, mutant)
		if a.Hash() == b.Hash() {
			t.Errorf("%s: mutation left the workflow hash unchanged", name)
		}
		if CanonicalHash(a) == CanonicalHash(b) {
			t.Errorf("%s: mutation left the canonical hash unchanged", name)
		}
	}

	// Renaming every top-level relation and permuting d.Ops in place moves
	// the workflow hash but not the canonical one.
	build := func() *DAG {
		d := canonWorkflow(nil, false, 100)
		d.Add(OpWhile, "looped", whileParams(), d.ByOut("street_price"))
		return d
	}
	a, b := build(), build()
	for i, op := range b.Ops {
		op.Out = fmt.Sprintf("t%d", i)
	}
	slices.Reverse(b.Ops)
	if CanonicalHash(a) != CanonicalHash(b) {
		t.Error("renaming and permuting changed the canonical hash")
	}
	if a.Hash() == b.Hash() {
		t.Error("renaming and permuting left the workflow hash unchanged")
	}
}
