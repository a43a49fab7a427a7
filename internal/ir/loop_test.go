package ir_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
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

// Loop is the one round loop both executors of a WHILE run. After every
// round it rebinds each carried pair in input-name order, then reads the
// stop condition; it stops once the condition is empty, runs exactly
// IterCap rounds when only the cap bounds it, and fails with a typed error
// when the cap runs out on a non-empty condition.
func TestLoopSteps(t *testing.T) {
	w := &ir.Op{Type: ir.OpWhile, Out: "w", Params: ir.Params{
		MaxIter: 4, CondRel: "cond",
		Carried: map[string]string{"c": "c2", "a": "a2", "b": "b2"},
	}}
	var steps []string
	run := func(condRows func(iter int) int, roundErr error) (int, error) {
		steps = nil
		last := -1
		return w.Loop(func(iter int) error {
			last = iter
			steps = append(steps, fmt.Sprint("round ", iter))
			if iter == 1 {
				return roundErr
			}
			return nil
		}, func(in, out string) error {
			steps = append(steps, in+"<-"+out)
			return nil
		}, func(rel string) (int, error) {
			steps = append(steps, "rows "+rel)
			return condRows(last), nil
		})
	}
	round := func(iter int) []string {
		return []string{fmt.Sprint("round ", iter), "a<-a2", "b<-b2", "c<-c2", "rows cond"}
	}

	// The condition empties after the second round.
	n, err := run(func(iter int) int { return 1 - iter }, nil)
	if want := slices.Concat(round(0), round(1)); err != nil || n != 2 || !slices.Equal(steps, want) {
		t.Errorf("empty condition: %d rounds, %v, steps %v, want 2 rounds, steps %v", n, err, steps, want)
	}

	// The condition never empties: every round runs, then the loop fails.
	n, err = run(func(int) int { return 1 }, nil)
	var nc *ir.NotConvergedError
	if !errors.As(err, &nc) || *nc != (ir.NotConvergedError{Loop: "w", Cond: "cond", Rounds: 4, Cap: 4}) || n != 4 {
		t.Errorf("exhausted cap: %d rounds, %v", n, err)
	}
	if want := slices.Concat(round(0), round(1), round(2), round(3)); !slices.Equal(steps, want) {
		t.Errorf("exhausted cap: steps %v, want %v", steps, want)
	}
	if !strings.Contains(err.Error(), "did not converge") {
		t.Errorf("exhausted cap: %q", err)
	}

	// A round's error ends the loop, wrapped with its round number.
	boom := errors.New("boom")
	n, err = run(func(int) int { return 1 }, boom)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "WHILE w iteration 2") || n != 1 {
		t.Errorf("failed round: %d rounds, %v", n, err)
	}

	// With no condition only the cap bounds the loop, and nothing is read.
	w.Params.CondRel = ""
	n, err = run(func(int) int { t.Error("read a condition the loop does not have"); return 0 }, nil)
	if err != nil || n != w.IterCap() || len(steps) != 4*w.IterCap() {
		t.Errorf("cap only: %d rounds of %d, %v, steps %v", n, w.IterCap(), err, steps)
	}
}
