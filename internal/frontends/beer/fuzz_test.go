package beer

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
		"",
		"x = SELECT a FROM t;",
		"x = SELECT * FROM t WHERE a > 1 AND b < 2;",
		"x = JOIN t, u ON k = k;",
		"x = AGG SUM(v) AS s FROM t GROUP BY k;",
		"x = MUL [v, 0.5] FROM t;",
		"x = MUL [v, 2] AS w FROM t;",
		"x = DISTINCT t;",
		"x = UNION t, t;",
		"w = WHILE (iteration < 3) CARRY t = y { y = DISTINCT t; };",
		"w = WHILE (iteration < 3) CARRY t = y UNTILEMPTY p { y = DISTINCT t; p = SELECT * FROM y WHERE k > 0; };",
		"x = ",
		"= =",
		"x = WHILE (iteration < ) CARRY {",
		"x = UDF f(t);",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	cat := frontends.Catalog{
		"t": {Path: "in/t", Schema: relation.NewSchema("k:int", "a:int", "b:int", "v:float")},
		"u": {Path: "in/u", Schema: relation.NewSchema("k:int", "w:float")},
	}
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
