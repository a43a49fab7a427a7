package musketeer

import (
	"strings"
	"testing"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

func stageProperty(t *testing.T, m *Musketeer) Catalog {
	t.Helper()
	props := relation.New("properties", NewSchema("id:int", "street:string", "town:string"))
	streets := []string{"mill rd", "high st"}
	for i := int64(0); i < 20; i++ {
		props.MustAppend(relation.Row{relation.Int(i), relation.Str(streets[i%2]), relation.Str("cam")})
	}
	props.LogicalBytes = props.PhysicalBytes() * 1000
	prices := relation.New("prices", NewSchema("id:int", "price:float"))
	for i := int64(0); i < 20; i++ {
		prices.MustAppend(relation.Row{relation.Int(i), relation.Float(float64(100 + 10*i))})
	}
	prices.LogicalBytes = prices.PhysicalBytes() * 1000
	if err := m.WriteInput("in/properties", props); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteInput("in/prices", prices); err != nil {
		t.Fatal(err)
	}
	return Catalog{
		"properties": {Path: "in/properties", Schema: props.Schema},
		"prices":     {Path: "in/prices", Schema: prices.Schema},
	}
}

const maxPriceHive = `
SELECT id, street, town FROM properties AS locs;
locs JOIN prices ON locs.id = prices.id AS id_price;
SELECT street, town, MAX(price) AS max_price FROM id_price GROUP BY street AND town AS street_price;
`

func TestEndToEndHive(t *testing.T) {
	m := New(LocalCluster(7))
	cat := stageProperty(t, m)
	wf, err := m.CompileHive(maxPriceHive, cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wf.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || len(res.Jobs) == 0 {
		t.Fatalf("result: %+v", res)
	}
	out, err := m.ReadOutput("street_price")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Errorf("rows = %d", out.NumRows())
	}
}

func TestExplicitEngineTargeting(t *testing.T) {
	for _, engine := range []string{"hadoop", "spark", "naiad", "metis", "serial"} {
		m := New(LocalCluster(7))
		cat := stageProperty(t, m)
		wf, err := m.CompileHive(maxPriceHive, cat)
		if err != nil {
			t.Fatal(err)
		}
		res, err := wf.ExecuteOn(engine)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if res.Makespan <= 0 {
			t.Errorf("%s: zero makespan", engine)
		}
		out, err := m.ReadOutput("street_price")
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if out.NumRows() != 2 {
			t.Errorf("%s: rows = %d", engine, out.NumRows())
		}
	}
}

func TestUnknownEngine(t *testing.T) {
	m := New()
	cat := stageProperty(t, m)
	wf, err := m.CompileHive(maxPriceHive, cat)
	if err != nil {
		t.Fatal(err)
	}
	// "" names no engine either: only Plan auto-maps.
	for _, name := range []string{"flink", ""} {
		if _, err := wf.PlanFor(name); err == nil {
			t.Errorf("unknown engine %q accepted", name)
		}
	}
}

func TestGeneratedCodeRendering(t *testing.T) {
	m := New(LocalCluster(7))
	cat := stageProperty(t, m)
	wf, err := m.CompileHive(maxPriceHive, cat)
	if err != nil {
		t.Fatal(err)
	}
	part, err := wf.PlanFor("spark")
	if err != nil {
		t.Fatal(err)
	}
	src, err := wf.GeneratedCode(part)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"musketeer-generated spark code", "reduceByKey"} {
		if !strings.Contains(src, want) {
			t.Errorf("generated code missing %q:\n%s", want, src)
		}
	}
}

func TestPlanModesDiffer(t *testing.T) {
	m := New(LocalCluster(7))
	cat := stageProperty(t, m)
	wf, err := m.CompileHive(maxPriceHive, cat)
	if err != nil {
		t.Fatal(err)
	}
	part, err := wf.PlanFor("spark")
	if err != nil {
		t.Fatal(err)
	}
	wf.Mode = ModeOptimized
	opt, err := wf.Run(part)
	if err != nil {
		t.Fatal(err)
	}
	wf.Mode = ModeNaive
	naive, err := wf.Run(part)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Makespan <= opt.Makespan {
		t.Errorf("naive (%v) should be slower than optimized (%v)", naive.Makespan, opt.Makespan)
	}
}

func TestUnmergedPlan(t *testing.T) {
	m := New(LocalCluster(7))
	cat := stageProperty(t, m)
	wf, err := m.CompileHive(maxPriceHive, cat)
	if err != nil {
		t.Fatal(err)
	}
	part, err := wf.PlanUnmerged("spark")
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Jobs) != 3 {
		t.Errorf("unmerged jobs = %d, want 3", len(part.Jobs))
	}
}

func TestHistoryAccumulatesAcrossRuns(t *testing.T) {
	m := New(LocalCluster(7))
	cat := stageProperty(t, m)
	wf, err := m.CompileHive(maxPriceHive, cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Execute(); err != nil {
		t.Fatal(err)
	}
	id := ir.Identify(wf.DAG())
	for _, op := range wf.DAG().Ops {
		if _, ok := m.History().Lookup(id.Key(op)); ok {
			return
		}
	}
	t.Error("no history after execution")
}

func TestBEERAndGASFrontends(t *testing.T) {
	m := New(EC2(16))
	verts := relation.New("vertices", NewSchema("vertex:int", "vertex_value:float"))
	verts.MustAppend(relation.Row{relation.Int(1), relation.Float(1)})
	verts.MustAppend(relation.Row{relation.Int(2), relation.Float(1)})
	edges := relation.New("edges", NewSchema("src:int", "dst:int", "vertex_degree:int"))
	edges.MustAppend(relation.Row{relation.Int(1), relation.Int(2), relation.Int(1)})
	edges.MustAppend(relation.Row{relation.Int(2), relation.Int(1), relation.Int(1)})
	if err := m.WriteInput("in/v", verts); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteInput("in/e", edges); err != nil {
		t.Fatal(err)
	}
	cat := Catalog{
		"vertices": {Path: "in/v", Schema: verts.Schema},
		"edges":    {Path: "in/e", Schema: edges.Schema},
	}
	gasSrc := `
GATHER = { SUM(vertex_value) }
APPLY = { MUL [vertex_value, 0.85] SUM [vertex_value, 0.15] }
SCATTER = { DIV [vertex_value, vertex_degree] }
ITERATION_STOP = (iteration < 3)
`
	wf, err := m.CompileGAS(gasSrc, cat, GASConfig{Vertices: "vertices", Edges: "edges", Output: "pr"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Execute(); err != nil {
		t.Fatal(err)
	}
	out, err := m.ReadOutput("pr")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Errorf("pagerank rows = %d", out.NumRows())
	}

	beerSrc := `
doubled = SUM [vertex_value, 1] FROM vertices;
`
	wf2, err := m.CompileBEER(beerSrc, cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf2.Execute(); err != nil {
		t.Fatal(err)
	}
}

func TestLindiFrontend(t *testing.T) {
	m := New()
	cat := stageProperty(t, m)
	b := NewLindiBuilder(cat)
	b.From("prices").
		GroupBy(nil).Max("price", "top").Done().
		Named("top_price")
	wf, err := m.CompileLindi(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Execute(); err != nil {
		t.Fatal(err)
	}
	out, err := m.ReadOutput("top_price")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0][0].F != 290 {
		t.Errorf("top price = %v", out.Rows[0])
	}
}

func TestEngineNames(t *testing.T) {
	m := New()
	names := m.EngineNames()
	if len(names) != 8 {
		t.Errorf("engines = %v", names)
	}
}

func TestPigFrontend(t *testing.T) {
	m := New(LocalCluster(7))
	cat := stageProperty(t, m)
	wf, err := m.CompilePig(`
locs = FOREACH properties GENERATE id, street, town;
j    = JOIN locs BY id, prices BY id;
g    = GROUP j BY (street, town);
best = FOREACH g GENERATE group, MAX(j.price) AS max_price;
`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Execute(); err != nil {
		t.Fatal(err)
	}
	out, err := m.ReadOutput("best")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Errorf("best rows = %d", out.NumRows())
	}

	// The decoupling claim across a fifth front-end: Pig and Hive produce
	// identical results for the same logical workflow.
	m2 := New(LocalCluster(7))
	cat2 := stageProperty(t, m2)
	wf2, err := m2.CompileHive(maxPriceHive, cat2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf2.Execute(); err != nil {
		t.Fatal(err)
	}
	hiveOut, err := m2.ReadOutput("street_price")
	if err != nil {
		t.Fatal(err)
	}
	if hiveOut.Fingerprint() != out.Fingerprint() {
		t.Error("pig and hive disagree on the same workflow")
	}
}

func TestExplainAPI(t *testing.T) {
	m := New(LocalCluster(7))
	cat := stageProperty(t, m)
	wf, err := m.CompileHive(maxPriceHive, cat)
	if err != nil {
		t.Fatal(err)
	}
	part, err := wf.Plan()
	if err != nil {
		t.Fatal(err)
	}
	text, err := wf.Explain(part)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"engine costs:", "volumes:"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q:\n%s", want, text)
		}
	}
}
