package ir_test

import (
	"slices"
	"testing"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
	"musketeer/internal/workloads"
)

// invariantNames lists the names of w's invariant body operators in body
// order.
func invariantNames(w *ir.Op) []string {
	inv := w.Invariant()
	var names []string
	for _, bop := range w.Params.Body.Ops {
		if inv[bop] {
			names = append(names, bop.Out)
		}
	}
	return names
}

// The four iterative workloads' bodies read one relation no round rewrites
// (the edges, or the points) and carry the other. Nothing computed in a
// body is invariant: each operator reads the carried relation.
func TestWorkloadLoopsInvariantAndKept(t *testing.T) {
	g := workloads.GenerateGraph("g", 100, 400, 20, 1)
	h := workloads.GenerateGraph("h", 100, 400, 20, 2)
	for _, tc := range []struct {
		w         *workloads.Workload
		invariant []string
		kept      []string
	}{
		{workloads.PageRank(g, 5), []string{"edges"}, []string{"__new_vertices"}},
		{workloads.CrossCommunityPageRank(g, h, 5), []string{"cedges"}, []string{"new_cverts"}},
		{workloads.SSSP(g, 5), []string{"edges"}, []string{"__new_vertices"}},
		{workloads.KMeans(1_000_000, 4, 5), []string{"points"}, []string{"new_centers"}},
	} {
		d, err := tc.w.Build()
		if err != nil {
			t.Fatal(err)
		}
		loops := 0
		for _, w := range d.Ops {
			if w.Type != ir.OpWhile {
				continue
			}
			loops++
			if got := invariantNames(w); !slices.Equal(got, tc.invariant) {
				t.Errorf("%s: invariant body operators %v, want %v", tc.w.Name, got, tc.invariant)
			}
			if got := w.Kept(); !slices.Equal(got, tc.kept) {
				t.Errorf("%s: kept %v, want %v", tc.w.Name, got, tc.kept)
			}
			if got := w.IterCap(); got != 5 {
				t.Errorf("%s: iteration cap %d, want 5", tc.w.Name, got)
			}
		}
		if loops != 1 {
			t.Errorf("%s: %d WHILEs, want 1", tc.w.Name, loops)
		}
	}
}

// A body operator over invariant inputs alone is invariant too, and a
// loop bounded only by its stop condition keeps it and runs up to
// MaxCondIters rounds.
func TestLoopDefinition(t *testing.T) {
	sch := relation.NewSchema("k:int")
	d := ir.NewDAG()
	outerT, outerU := d.AddInput("t", "in/t", sch), d.AddInput("u", "in/u", sch)
	body := ir.NewDAG()
	bt, bu := body.AddInput("t", "", relation.Schema{}), body.AddInput("u", "", relation.Schema{})
	stray := body.AddInput("v", "in/u", sch)
	f := body.Add(ir.OpDistinct, "f", ir.Params{}, bu)
	j := body.Add(ir.OpUnion, "j", ir.Params{}, bt, f)
	body.Add(ir.OpSelect, "cond", ir.Params{Pred: ir.Cmp(ir.ColRef("k"), ir.CmpLt, ir.LitOp(relation.Int(3)))}, j)
	w := d.Add(ir.OpWhile, "w", ir.Params{Body: body, CondRel: "cond", Carried: map[string]string{"t": "j"}}, outerT, outerU)

	if got, want := invariantNames(w), []string{"u", "v", "f"}; !slices.Equal(got, want) {
		t.Errorf("invariant %v, want %v", got, want)
	}
	if got, want := w.Kept(), []string{"j", "cond"}; !slices.Equal(got, want) {
		t.Errorf("kept %v, want %v", got, want)
	}
	if w.IterCap() != ir.MaxCondIters {
		t.Errorf("iteration cap %d, want MaxCondIters", w.IterCap())
	}
	if w.BoundInput(bt) != outerT || w.BoundInput(bu) != outerU || w.BoundInput(stray) != nil {
		t.Error("a body input must bind to the WHILE input of its name and to nothing else")
	}
	if !w.Rebinds(bt) || w.Rebinds(bu) || w.Rebinds(j) {
		t.Error("only the carried body INPUT is rebound")
	}

	// With no carry, the result is the body's sink and the only relation
	// a round hands on.
	w.Params.Carried, w.Params.CondRel, w.Params.MaxIter = nil, "", 3
	if got := w.Kept(); !slices.Equal(got, []string{"cond"}) {
		t.Errorf("kept without a carry %v, want [cond]", got)
	}
	if w.IterCap() != 3 {
		t.Errorf("iteration cap %d, want 3", w.IterCap())
	}
}
