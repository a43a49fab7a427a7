package pig

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

// maxPropertyPrice is the paper's Listing 1 workflow in Pig Latin.
const maxPropertyPrice = `
locs = FOREACH properties GENERATE id, street, town;
j    = JOIN locs BY id, prices BY id;
g    = GROUP j BY (street, town);
best = FOREACH g GENERATE group, MAX(j.price) AS max_price;
`

func TestMaxPropertyPriceTranslation(t *testing.T) {
	dag, err := Parse(maxPropertyPrice, catalog())
	if err != nil {
		t.Fatal(err)
	}
	if dag.ByOut("locs").Type != ir.OpProject {
		t.Error("locs should be PROJECT")
	}
	if dag.ByOut("j").Type != ir.OpJoin {
		t.Error("j should be JOIN")
	}
	best := dag.ByOut("best")
	if best.Type != ir.OpAgg {
		t.Fatalf("best = %v", best)
	}
	if len(best.Params.GroupBy) != 2 || best.Params.Aggs[0].Func != ir.AggMax {
		t.Errorf("agg params = %+v", best.Params)
	}
	schemas, err := dag.InferSchemas()
	if err != nil {
		t.Fatal(err)
	}
	want := relation.NewSchema("street:string", "town:string", "max_price:float")
	if !schemas[best].Equal(want) {
		t.Errorf("schema = %s, want %s", schemas[best], want)
	}
}

func TestPigExecutesSameAsHive(t *testing.T) {
	dag, err := Parse(maxPropertyPrice, catalog())
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
	out := env["best"]
	if out.NumRows() != 1 || out.Rows[0][2].F != 300 {
		t.Errorf("best = %v", out.Rows)
	}
}

func TestFilterAndArithmetic(t *testing.T) {
	src := `
eu  = FILTER purchases BY region == 'EU' AND value > 10;
tax = FOREACH eu GENERATE uid, value * 0.2 AS vat;
`
	dag, err := Parse(src, catalog())
	if err != nil {
		t.Fatal(err)
	}
	purchases := relation.New("purchases", catalog()["purchases"].Schema)
	purchases.MustAppend(relation.Row{relation.Int(1), relation.Str("EU"), relation.Float(100)})
	purchases.MustAppend(relation.Row{relation.Int(2), relation.Str("US"), relation.Float(100)})
	purchases.MustAppend(relation.Row{relation.Int(3), relation.Str("EU"), relation.Float(5)})
	env, _, err := exec.RunDAG(dag, exec.Env{"purchases": purchases})
	if err != nil {
		t.Fatal(err)
	}
	out := env["tax"]
	if out.NumRows() != 1 || out.Rows[0][1].F != 20 {
		t.Errorf("tax = %v (%s)", out.Rows, out.Schema)
	}
}

func TestUnionDistinctCount(t *testing.T) {
	src := `
a = FILTER purchases BY region == 'EU';
b = FILTER purchases BY region == 'US';
u = UNION a, b;
d = DISTINCT u;
g = GROUP d BY region;
n = FOREACH g GENERATE group, COUNT(*) AS n, SUM(value) AS total;
`
	dag, err := Parse(src, catalog())
	if err != nil {
		t.Fatal(err)
	}
	n := dag.ByOut("n")
	if n.Type != ir.OpAgg || n.Params.Aggs[0].Func != ir.AggCount || n.Params.Aggs[1].Func != ir.AggSum {
		t.Errorf("n = %+v", n.Params)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown rel":       `x = FILTER nope BY a > 1;`,
		"unknown op":        `x = FROB purchases;`,
		"dangling group":    `g = GROUP purchases BY uid;`,
		"foreach no agg":    "g = GROUP purchases BY uid;\nx = FOREACH g GENERATE group;",
		"redefined":         "x = DISTINCT purchases;\nx = DISTINCT purchases;",
		"group redefined":   "x = DISTINCT purchases;\ng = GROUP purchases BY uid;\ng = GROUP purchases BY uid;\ny = FOREACH g GENERATE group, COUNT(*);",
		"missing semicolon": `x = DISTINCT purchases`,
		"bad agg":           "g = GROUP purchases BY uid;\nx = FOREACH g GENERATE group, MEDIAN(value);",
		"empty":             ``,
	}
	for name, src := range cases {
		if _, err := Parse(src, catalog()); err == nil {
			t.Errorf("%s: parse succeeded", name)
		}
	}
}

// FuzzParse: parsing arbitrary input and analyzing whatever parses never
// panics, and a DAG the analyzer accepts passes Validate too.
func FuzzParse(f *testing.F) {
	seeds := []string{
		maxPropertyPrice,
		"eu = FILTER purchases BY region == 'EU';",
		"x = FOREACH purchases GENERATE uid, value * 2 AS d;",
		"g = GROUP purchases BY uid;\nn = FOREACH g GENERATE group, COUNT(*);",
		"u = UNION purchases, purchases;",
		"= FILTER ;",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	cat := catalog()
	f.Fuzz(func(t *testing.T, src string) {
		dag, err := Parse(src, cat)
		if err != nil {
			return
		}
		if dag == nil {
			t.Fatal("nil DAG without error")
		}
		if analysis.Analyze(dag).Err() == nil {
			if err := dag.Validate(); err != nil {
				t.Fatalf("analyzer accepted a DAG Validate rejects: %v", err)
			}
		}
	})
}
