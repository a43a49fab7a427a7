package hive

import (
	"testing"

	"musketeer/internal/analysis"
	"musketeer/internal/frontends"
	"musketeer/internal/relation"
)

// FuzzParse asserts that parsing arbitrary input and analyzing whatever
// parses never panics, and that the analyzer is never weaker than the
// structural check: a DAG it accepts passes Validate too. The seed corpus
// covers the dialect's statement forms; `go test` runs the seeds,
// `go test -fuzz=FuzzParse` explores further.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		";",
		"SELECT id FROM t AS x;",
		"SELECT id, street FROM t WHERE id > 3 AS x;",
		"SELECT * FROM t WHERE a == \"b\" OR c < 0.5 AS x;",
		"t JOIN u ON t.id = u.id AS j;",
		"t JOIN u ON t.id = u.id AND t.k = u.k AS j;",
		"SELECT SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY id AS g;",
		"SELECT * FROM t WHERE a < 0.2 * b AS x;",
		"SELECT FROM WHERE AS ; JOIN ON",
		"SELECT id FROM t AS x; x JOIN t ON x.id = t.id AS y;",
		"\"unterminated",
		"SELECT id FROM t AS \x00;",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	cat := frontends.Catalog{
		"t": {Path: "in/t", Schema: relation.NewSchema("id:int", "street:string", "a:string", "b:float", "c:float", "k:int", "v:float")},
		"u": {Path: "in/u", Schema: relation.NewSchema("id:int", "k:int", "w:float")},
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
