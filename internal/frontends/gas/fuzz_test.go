package gas

import (
	"testing"

	"musketeer/internal/analysis"
	"musketeer/internal/frontends"
	"musketeer/internal/relation"
)

// FuzzParse asserts that parsing arbitrary input and analyzing whatever
// parses never panics, and that the analyzer is never weaker than the
// structural check: a DAG it accepts passes Validate too.
func FuzzParse(f *testing.F) {
	seeds := []string{
		listing2,
		"GATHER = { MIN(vertex_value) }\nSCATTER = { SUM [vertex_value, cost] }\nITERATION_STOP = (iteration < 4)",
		"GATHER = { SUM(vertex_value) }\nITERATION_STOP = (iteration < 1)",
		"GATHER = {",
		"ITERATION_STOP = (iteration < x)",
		"APPLY = { MUL [a, b] DIV [a, 2] SUB [a, 1] }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	cat := frontends.Catalog{
		"vertices": {Path: "in/v", Schema: relation.NewSchema("vertex:int", "vertex_value:float")},
		"edges":    {Path: "in/e", Schema: relation.NewSchema("src:int", "dst:int", "vertex_degree:int", "cost:float")},
	}
	f.Fuzz(func(t *testing.T, src string) {
		dag, err := Parse(src, cat, Config{Vertices: "vertices", Edges: "edges"})
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
