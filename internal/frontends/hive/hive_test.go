package hive

import (
	"testing"

	"musketeer/internal/analysis"
	"musketeer/internal/exec"
	"musketeer/internal/frontends"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

func catalog() frontends.Catalog {
	return frontends.Catalog{
		"properties": {Path: "in/properties", Schema: relation.NewSchema("id:int", "street:string", "town:string")},
		"prices":     {Path: "in/prices", Schema: relation.NewSchema("id:int", "price:float")},
		"purchases":  {Path: "in/purchases", Schema: relation.NewSchema("uid:int", "region:string", "value:float")},
	}
}

const listing1 = `
SELECT id, street, town FROM properties AS locs;
locs JOIN prices ON locs.id = prices.id AS id_price;
SELECT street, town, MAX(price) AS max_price FROM id_price GROUP BY street AND town AS street_price;
`

func TestListing1Translation(t *testing.T) {
	dag, err := Parse(listing1, catalog())
	if err != nil {
		t.Fatal(err)
	}
	if dag.ByOut("locs").Type != ir.OpProject {
		t.Error("locs should be a PROJECT")
	}
	j := dag.ByOut("id_price")
	if j.Type != ir.OpJoin || j.Params.LeftCols[0] != "id" || j.Params.RightCols[0] != "id" {
		t.Errorf("join = %v %v", j, j.Params)
	}
	g := dag.ByOut("street_price")
	if g.Type != ir.OpAgg || len(g.Params.GroupBy) != 2 || g.Params.Aggs[0].Func != ir.AggMax {
		t.Errorf("agg = %v %v", g, g.Params)
	}
	schemas, err := dag.InferSchemas()
	if err != nil {
		t.Fatal(err)
	}
	want := relation.NewSchema("street:string", "town:string", "max_price:float")
	if !schemas[g].Equal(want) {
		t.Errorf("schema = %s, want %s", schemas[g], want)
	}
}

func TestListing1Executes(t *testing.T) {
	dag, err := Parse(listing1, catalog())
	if err != nil {
		t.Fatal(err)
	}
	props := relation.New("properties", catalog()["properties"].Schema)
	props.MustAppend(relation.Row{relation.Int(1), relation.Str("mill"), relation.Str("cam")})
	props.MustAppend(relation.Row{relation.Int(2), relation.Str("mill"), relation.Str("cam")})
	prices := relation.New("prices", catalog()["prices"].Schema)
	prices.MustAppend(relation.Row{relation.Int(1), relation.Float(100)})
	prices.MustAppend(relation.Row{relation.Int(2), relation.Float(300)})
	env, _, err := exec.RunDAG(dag, exec.Env{"properties": props, "prices": prices})
	if err != nil {
		t.Fatal(err)
	}
	out := env["street_price"]
	if out.NumRows() != 1 || out.Rows[0][2].F != 300 {
		t.Errorf("street_price = %v", out.Rows)
	}
}

func TestWhereAndAliases(t *testing.T) {
	src := `
SELECT uid AS user, value FROM purchases WHERE region == "EU" AND value > 10 AS eu;
SELECT SUM(value) AS total FROM eu GROUP BY user AS totals;
`
	dag, err := Parse(src, catalog())
	if err != nil {
		t.Fatal(err)
	}
	eu := dag.ByOut("eu")
	if eu.Type != ir.OpProject || eu.Params.As[0] != "user" {
		t.Errorf("eu = %v %+v", eu, eu.Params)
	}
	if eu.Inputs[0].Type != ir.OpSelect {
		t.Error("WHERE should produce a SELECT before the projection")
	}
	schemas, err := dag.InferSchemas()
	if err != nil {
		t.Fatal(err)
	}
	totals := dag.ByOut("totals")
	if !schemas[totals].Equal(relation.NewSchema("user:int", "total:float")) {
		t.Errorf("totals schema = %s", schemas[totals])
	}
}

func TestSelectStarWithWhere(t *testing.T) {
	src := `SELECT * FROM purchases WHERE value >= 100 AS big;`
	dag, err := Parse(src, catalog())
	if err != nil {
		t.Fatal(err)
	}
	big := dag.ByOut("big")
	if big.Type != ir.OpSelect {
		t.Errorf("big = %v", big)
	}
}

func TestOrPredicate(t *testing.T) {
	src := `SELECT * FROM purchases WHERE region == "EU" OR region == "US" AS both;`
	dag, err := Parse(src, catalog())
	if err != nil {
		t.Fatal(err)
	}
	p := dag.ByOut("both").Params.Pred
	if p.Kind != ir.PredOr {
		t.Errorf("pred = %s", p)
	}
}

func TestCountStar(t *testing.T) {
	src := `SELECT region, COUNT(*) AS n FROM purchases GROUP BY region AS counts;`
	dag, err := Parse(src, catalog())
	if err != nil {
		t.Fatal(err)
	}
	op := dag.ByOut("counts")
	if op.Params.Aggs[0].Func != ir.AggCount || op.Params.Aggs[0].Col != "" {
		t.Errorf("aggs = %v", op.Params.Aggs)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown relation": `SELECT a FROM nothere AS x;`,
		"missing AS":       `SELECT id FROM properties;`,
		"missing semi":     `SELECT id FROM properties AS x`,
		"group no agg":     `SELECT id FROM properties GROUP BY id AS x;`,
		"star no where":    `SELECT * FROM properties AS x;`,
		"bad join":         `properties JOIN ON id = id AS x;`,
		"empty":            ``,
		"garbage":          `;;;`,
	}
	for name, src := range cases {
		if _, err := Parse(src, catalog()); err == nil {
			t.Errorf("%s: parse succeeded", name)
		}
	}
	// Semantic errors: the parser may leave them to the analyzer, which
	// every compiled workflow passes through, but one of the two rejects.
	semantic := map[string]string{
		"unknown col": `SELECT nope FROM properties AS x;`,
		"redefine": `SELECT id FROM properties AS x;
SELECT id FROM properties AS x;`,
	}
	for name, src := range semantic {
		dag, err := Parse(src, catalog())
		if err == nil {
			err = analysis.Analyze(dag).Err()
		}
		if err == nil {
			t.Errorf("%s: neither the parser nor the analyzer rejected it", name)
		}
	}
}

func TestMultiKeyJoin(t *testing.T) {
	src := `properties JOIN properties2 ON properties.id = properties2.id AND properties.street = properties2.street AS j;`
	cat := catalog()
	cat["properties2"] = cat["properties"]
	dag, err := Parse(src, cat)
	if err != nil {
		t.Fatal(err)
	}
	j := dag.ByOut("j")
	if len(j.Params.LeftCols) != 2 {
		t.Errorf("join keys = %v", j.Params.LeftCols)
	}
}

func TestOrderByLimit(t *testing.T) {
	src := `SELECT uid, SUM(value) AS total FROM purchases GROUP BY uid ORDER BY total DESC LIMIT 3 AS top3;`
	dag, err := Parse(src, catalog())
	if err != nil {
		t.Fatal(err)
	}
	top := dag.ByOut("top3")
	if top.Type != ir.OpLimit || top.Params.Limit != 3 {
		t.Fatalf("top3 = %v %+v", top, top.Params)
	}
	srt := top.Inputs[0]
	if srt.Type != ir.OpSort || !srt.Params.Desc || srt.Params.SortBy[0] != "total" {
		t.Fatalf("sort = %v %+v", srt, srt.Params)
	}
	if srt.Inputs[0].Type != ir.OpAgg {
		t.Errorf("sort input = %v", srt.Inputs[0])
	}

	purchases := relation.New("purchases", catalog()["purchases"].Schema)
	for i := int64(0); i < 20; i++ {
		purchases.MustAppend(relation.Row{relation.Int(i % 5), relation.Str("EU"), relation.Float(float64(10 * (i + 1)))})
	}
	env, _, err := exec.RunDAG(dag, exec.Env{"purchases": purchases})
	if err != nil {
		t.Fatal(err)
	}
	out := env["top3"]
	if out.NumRows() != 3 || out.Rows[0][1].F < out.Rows[1][1].F {
		t.Errorf("top3 = %v", out.Rows)
	}
}

func TestOrderByWithoutLimit(t *testing.T) {
	src := `SELECT uid, value FROM purchases ORDER BY value AS sorted;`
	dag, err := Parse(src, catalog())
	if err != nil {
		t.Fatal(err)
	}
	if dag.ByOut("sorted").Type != ir.OpSort {
		t.Errorf("sorted = %v", dag.ByOut("sorted"))
	}
}

func TestLimitOnly(t *testing.T) {
	src := `SELECT * FROM purchases LIMIT 2 AS sample;`
	dag, err := Parse(src, catalog())
	if err != nil {
		t.Fatal(err)
	}
	if dag.ByOut("sample").Type != ir.OpLimit {
		t.Errorf("sample = %v", dag.ByOut("sample"))
	}
}
