package analysis_test

import (
	"strings"
	"testing"

	"musketeer/internal/analysis"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

func abSchema() relation.Schema { return relation.NewSchema("a:int", "b:float") }

// hasDiag reports whether the report contains a diagnostic of the given
// severity whose message contains substr.
func hasDiag(rep *analysis.Report, sev analysis.Severity, substr string) bool {
	for _, d := range rep.Diags {
		if d.Severity == sev && strings.Contains(d.Msg, substr) {
			return true
		}
	}
	return false
}

func TestCycleDetected(t *testing.T) {
	d := ir.NewDAG()
	in := d.AddInput("t", "in/t", abSchema())
	x := d.Add(ir.OpDistinct, "x", ir.Params{}, in)
	y := d.Add(ir.OpDistinct, "y", ir.Params{}, x)
	x.Inputs = append(x.Inputs, y) // close the loop
	rep := analysis.AnalyzeWithEngines(d, nil)
	if !hasDiag(rep, analysis.SevError, "cycle") {
		t.Fatalf("no cycle diagnostic:\n%s", rep)
	}
}

func TestForeignEdgeAndCloneDefect(t *testing.T) {
	other := ir.NewDAG()
	foreign := other.AddInput("f", "in/f", abSchema())
	d := ir.NewDAG()
	d.Add(ir.OpDistinct, "x", ir.Params{}, foreign)
	rep := analysis.AnalyzeWithEngines(d, nil)
	if !hasDiag(rep, analysis.SevError, "foreign edge") {
		t.Fatalf("no foreign-edge diagnostic:\n%s", rep)
	}
	// Cloning drops the foreign edge but records the defect, which the
	// analyzer replays as a structural error instead of the old panic.
	c := d.Clone()
	rep = analysis.AnalyzeWithEngines(c, nil)
	if !hasDiag(rep, analysis.SevError, "dropped while cloning") {
		t.Fatalf("clone defect not reported:\n%s", rep)
	}
}

func TestDuplicateNameInsideWhileBody(t *testing.T) {
	body := ir.NewDAG()
	bin := body.AddInput("t", "", relation.Schema{})
	body.Add(ir.OpDistinct, "u", ir.Params{}, bin)
	body.Add(ir.OpLimit, "u", ir.Params{Limit: 1}, bin) // duplicate in body scope

	d := ir.NewDAG()
	in := d.AddInput("t", "in/t", abSchema())
	d.Add(ir.OpWhile, "w", ir.Params{
		Body: body, MaxIter: 2, Carried: map[string]string{"t": "u"},
	}, in)
	rep := analysis.AnalyzeWithEngines(d, nil)
	if !hasDiag(rep, analysis.SevError, `duplicate output relation "u"`) {
		t.Fatalf("duplicate body name not reported:\n%s", rep)
	}
}

func TestMultipleSchemaErrorsReportedTogether(t *testing.T) {
	d := ir.NewDAG()
	in := d.AddInput("t", "in/t", abSchema())
	d.Add(ir.OpProject, "p", ir.Params{Columns: []string{"nope"}}, in)
	d.Add(ir.OpSort, "s", ir.Params{SortBy: []string{"ghost"}}, in)
	rep := analysis.AnalyzeWithEngines(d, nil)
	if n := len(rep.Errors()); n != 2 {
		t.Fatalf("want both schema errors, got %d:\n%s", n, rep)
	}
}

func TestCascadeSuppression(t *testing.T) {
	d := ir.NewDAG()
	in := d.AddInput("t", "in/t", abSchema())
	bad := d.Add(ir.OpProject, "p", ir.Params{Columns: []string{"nope"}}, in)
	d.Add(ir.OpDistinct, "q", ir.Params{}, bad) // consumer of the broken op
	rep := analysis.AnalyzeWithEngines(d, nil)
	if n := len(rep.Errors()); n != 1 {
		t.Fatalf("cascade not suppressed, got %d errors:\n%s", n, rep)
	}
}

func TestDeadInputWarning(t *testing.T) {
	d := ir.NewDAG()
	in := d.AddInput("t", "in/t", abSchema())
	d.AddInput("unused", "in/u", abSchema())
	d.Add(ir.OpDistinct, "x", ir.Params{}, in)
	rep := analysis.AnalyzeWithEngines(d, nil)
	if !hasDiag(rep, analysis.SevWarning, `"unused" is never read`) {
		t.Fatalf("dead input not reported:\n%s", rep)
	}
	if rep.HasErrors() {
		t.Fatalf("warnings must not fail the workflow:\n%s", rep)
	}
}

func loopDAG(carried map[string]string, condRel string, maxIter int) *ir.DAG {
	body := ir.NewDAG()
	bin := body.AddInput("t", "", relation.Schema{})
	body.Add(ir.OpDistinct, "next", ir.Params{}, bin)
	d := ir.NewDAG()
	in := d.AddInput("t", "in/t", abSchema())
	d.Add(ir.OpWhile, "w", ir.Params{
		Body: body, MaxIter: maxIter, CondRel: condRel, Carried: carried,
	}, in)
	return d
}

func TestCarriedRelationMissing(t *testing.T) {
	rep := analysis.AnalyzeWithEngines(loopDAG(map[string]string{"t": "missing"}, "", 3), nil)
	if !hasDiag(rep, analysis.SevError, `"missing" not in body`) {
		t.Fatalf("missing carried output not reported:\n%s", rep)
	}
}

func TestCarriedInputMustBeBridge(t *testing.T) {
	body := ir.NewDAG()
	bin := body.AddInput("t", "", relation.Schema{})
	body.Add(ir.OpDistinct, "mid", ir.Params{}, bin)
	body.Add(ir.OpDistinct, "next", ir.Params{}, body.ByOut("mid"))
	d := ir.NewDAG()
	in := d.AddInput("t", "in/t", abSchema())
	d.Add(ir.OpWhile, "w", ir.Params{
		Body: body, MaxIter: 3, Carried: map[string]string{"mid": "next"},
	}, in)
	rep := analysis.AnalyzeWithEngines(d, nil)
	if !hasDiag(rep, analysis.SevError, "must be a body INPUT bridge") {
		t.Fatalf("non-bridge carried input not reported:\n%s", rep)
	}
}

func TestConstantConditionWarning(t *testing.T) {
	// The stop condition is computed from a second, non-carried input, so
	// it can never change across iterations.
	body := ir.NewDAG()
	bin := body.AddInput("t", "", relation.Schema{})
	other := body.AddInput("u", "", relation.Schema{})
	body.Add(ir.OpDistinct, "next", ir.Params{}, bin)
	body.Add(ir.OpDistinct, "cond", ir.Params{}, other)
	d := ir.NewDAG()
	in := d.AddInput("t", "in/t", abSchema())
	u := d.AddInput("u", "in/u", abSchema())
	d.Add(ir.OpWhile, "w", ir.Params{
		Body: body, MaxIter: 5, CondRel: "cond",
		Carried: map[string]string{"t": "next"},
	}, in, u)
	rep := analysis.AnalyzeWithEngines(d, nil)
	if !hasDiag(rep, analysis.SevWarning, "does not depend on loop-carried state") {
		t.Fatalf("constant condition not reported:\n%s", rep)
	}
}

// A body INPUT binds to the WHILE input of its name and to nothing else:
// one the WHILE does not feed is unbound, with or without a declared
// schema, even when an outer relation of that name is in scope.
func TestUnboundBodyInputReported(t *testing.T) {
	for _, declared := range []relation.Schema{{}, abSchema()} {
		body := ir.NewDAG()
		bin := body.AddInput("t", "", relation.Schema{})
		stray := body.AddInput("u", "in/u", declared)
		body.Add(ir.OpUnion, "next", ir.Params{}, bin, stray)
		d := ir.NewDAG()
		in := d.AddInput("t", "in/t", abSchema())
		d.Add(ir.OpDistinct, "seen", ir.Params{}, d.AddInput("u", "in/u", abSchema()))
		d.Add(ir.OpWhile, "w", ir.Params{Body: body, MaxIter: 2, Carried: map[string]string{"t": "next"}}, in)
		rep := analysis.AnalyzeWithEngines(d, nil)
		if !hasDiag(rep, analysis.SevError, `body input "u" is not bound by the enclosing WHILE`) {
			t.Errorf("declared schema %s: unbound body input not reported:\n%s", declared, rep)
		}
	}
}

func TestEngineFeasibility(t *testing.T) {
	d := ir.NewDAG()
	in := d.AddInput("t", "in/t", abSchema())
	d.Add(ir.OpProject, "p", ir.Params{Columns: []string{"a"}}, in)
	// Vertex-centric engines cannot run relational operators.
	rep := analysis.AnalyzeWithEngines(d, []*engines.Engine{engines.PowerGraph()})
	if !hasDiag(rep, analysis.SevError, "no candidate engine") {
		t.Fatalf("infeasible engine set not reported:\n%s", rep)
	}
	// The standard set includes general-purpose engines, so the same DAG
	// is feasible.
	rep = analysis.AnalyzeWithEngines(d, engines.StandardEngines())
	if rep.HasErrors() {
		t.Fatalf("unexpected errors with the standard engine set:\n%s", rep)
	}
}

func TestRedundantDistinctAndSortWarnings(t *testing.T) {
	d := ir.NewDAG()
	in := d.AddInput("t", "in/t", abSchema())
	d1 := d.Add(ir.OpDistinct, "d1", ir.Params{}, in)
	d.Add(ir.OpDistinct, "d2", ir.Params{}, d1)
	s1 := d.Add(ir.OpSort, "s1", ir.Params{SortBy: []string{"a"}}, in)
	d.Add(ir.OpSort, "s2", ir.Params{SortBy: []string{"a"}}, s1)
	rep := analysis.AnalyzeWithEngines(d, nil)
	if !hasDiag(rep, analysis.SevWarning, "redundant DISTINCT") {
		t.Fatalf("redundant distinct not reported:\n%s", rep)
	}
	if !hasDiag(rep, analysis.SevWarning, "redundant SORT") {
		t.Fatalf("redundant sort not reported:\n%s", rep)
	}
}

func TestPropertyPropagation(t *testing.T) {
	d := ir.NewDAG()
	in := d.AddInput("t", "in/t", abSchema())
	dist := d.Add(ir.OpDistinct, "d", ir.Params{}, in)
	agg := d.Add(ir.OpAgg, "g", ir.Params{
		GroupBy: []string{"a"},
		Aggs:    []ir.AggSpec{{Func: ir.AggSum, Col: "b", As: "total"}},
	}, in)
	sorted := d.Add(ir.OpSort, "s", ir.Params{SortBy: []string{"a"}}, in)
	props := analysis.PropagateProperties(d)
	if !props[dist].RowsUnique {
		t.Errorf("DISTINCT output not marked unique: %+v", props[dist])
	}
	if got := props[agg].UniqueKey; len(got) != 1 || got[0] != "a" {
		t.Errorf("AGG unique key = %v, want [a]", got)
	}
	if got := props[sorted].SortedBy; len(got) != 1 || got[0] != "a" {
		t.Errorf("SORT key = %v, want [a]", got)
	}
	if !analysis.SortCovered(props[sorted], []string{"a"}, false) {
		t.Errorf("SortCovered should hold for the sort's own key")
	}
	if analysis.SortCovered(props[sorted], []string{"a"}, true) {
		t.Errorf("SortCovered must respect direction")
	}
}

func TestProjectRenameTranslatesProperties(t *testing.T) {
	d := ir.NewDAG()
	in := d.AddInput("t", "in/t", abSchema())
	agg := d.Add(ir.OpAgg, "g", ir.Params{
		GroupBy: []string{"a"},
		Aggs:    []ir.AggSpec{{Func: ir.AggSum, Col: "b", As: "total"}},
	}, in)
	ren := d.Add(ir.OpProject, "r", ir.Params{
		Columns: []string{"a", "total"}, As: []string{"key", "total"},
	}, agg)
	drop := d.Add(ir.OpProject, "q", ir.Params{Columns: []string{"total"}}, agg)
	props := analysis.PropagateProperties(d)
	if got := props[ren].UniqueKey; len(got) != 1 || got[0] != "key" {
		t.Errorf("rename did not translate unique key: %v", got)
	}
	if props[drop].RowsUnique || props[drop].UniqueKey != nil {
		t.Errorf("dropping the key column must clear uniqueness: %+v", props[drop])
	}
}

func TestReportOrderingDeterministic(t *testing.T) {
	d := ir.NewDAG()
	in := d.AddInput("t", "in/t", abSchema())
	d.AddInput("unused", "in/u", abSchema())
	d.Add(ir.OpProject, "p", ir.Params{Columns: []string{"nope"}}, in)
	rep := analysis.AnalyzeWithEngines(d, nil)
	if len(rep.Diags) < 2 {
		t.Fatalf("expected an error and a warning:\n%s", rep)
	}
	if rep.Diags[0].Severity != analysis.SevError {
		t.Errorf("errors must sort before warnings:\n%s", rep)
	}
}
