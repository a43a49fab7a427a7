package engines

import (
	"fmt"

	"musketeer/internal/ir"
)

// PlanMode selects the code-generation quality (paper §4.3, §6.4).
type PlanMode uint8

const (
	// ModeOptimized is Musketeer's full code generation: operator merging,
	// shared data scans, look-ahead type inference.
	ModeOptimized PlanMode = iota
	// ModeNaive instantiates one template per operator with no fusion —
	// every operator performs its own pass over the data.
	ModeNaive
	// ModeHand represents the hand-optimized, non-portable baseline an
	// expert would write: the optimized plan with zero codegen tax.
	ModeHand
)

// String names the mode.
func (m PlanMode) String() string {
	switch m {
	case ModeNaive:
		return "naive"
	case ModeHand:
		return "hand-optimized"
	default:
		return "optimized"
	}
}

// Stage is one data pass of a physical plan: a pipeline of fused operators
// containing at most one shuffle.
type Stage struct {
	Ops     []*ir.Op
	Shuffle bool
}

// Plan is an executable physical plan for one back-end job. Run reads only
// its fields; the data passes and the generated source are derived on demand
// (Stages, Source), so executing a job never renders code.
type Plan struct {
	Engine *Engine
	Frag   *ir.Fragment
	Mode   PlanMode
	// Iterative marks a natively iterated WHILE job.
	Iterative bool
	// While is the fragment's WHILE operator, if it has one.
	While *ir.Op
}

// Stages lowers the fragment into data passes, expanding a WHILE body
// inline (general dataflow engines run the loop inside the job).
func (p *Plan) Stages() []Stage {
	var ops []*ir.Op
	for _, op := range p.Frag.ComputeOps() {
		if op.Type == ir.OpWhile {
			ops = append(ops, bodyComputeOps(op)...)
			continue
		}
		ops = append(ops, op)
	}
	return lowerOps(ops, p.Mode)
}

// NumStages returns the number of data passes the plan performs.
func (p *Plan) NumStages() int { return len(p.Stages()) }

// Source renders the generated code in the engine's language.
func (p *Plan) Source() string { return renderSource(p.Engine.dialect, p) }

// Plan lowers a fragment into a physical plan for this engine.
// The fragment must be valid for the engine, except that WHILE fragments
// are also accepted by non-native-iteration engines so the iteration driver
// can cost and render per-iteration body plans.
func (e *Engine) Plan(f *ir.Fragment, mode PlanMode) (*Plan, error) {
	p := &Plan{Engine: e, Frag: f, Mode: mode}
	if w := f.While(); w != nil {
		if !e.prof.NativeIteration && len(f.ComputeOps()) != 1 {
			// Driver-looped engines run the WHILE as its own "job" (the
			// runner expands it); merging it with batch operators is a
			// partitioning bug.
			return nil, fmt.Errorf("%s: WHILE must be planned alone", e.name)
		}
		p.Iterative = e.prof.NativeIteration
		p.While = w
	}
	return p, nil
}

func bodyComputeOps(w *ir.Op) []*ir.Op {
	var ops []*ir.Op
	if w.Params.Body == nil {
		return ops
	}
	order, err := w.Params.Body.TopoSort()
	if err != nil {
		order = w.Params.Body.Ops
	}
	for _, op := range order {
		if op.Type != ir.OpInput {
			ops = append(ops, op)
		}
	}
	return ops
}

// lowerOps fuses a topologically ordered operator pipeline into stages.
//
// Optimized/hand mode implements the paper's shared scans (§4.3.3) and
// look-ahead type inference (§4.3.4): consecutive pipelineable operators
// share one pass, and a shuffle operator absorbs both its map-side
// preparation and its reduce-side successors. Naive mode gives every
// operator its own stage — every operator re-scans its input, as
// concatenated per-operator templates would.
func lowerOps(ops []*ir.Op, mode PlanMode) []Stage {
	if mode == ModeNaive {
		stages := make([]Stage, len(ops))
		for i, op := range ops {
			stages[i] = Stage{Ops: []*ir.Op{op}, Shuffle: ir.IsShuffleOp(op.Type)}
		}
		return stages
	}
	var stages []Stage
	cur := Stage{}
	flush := func() {
		if len(cur.Ops) > 0 {
			stages = append(stages, cur)
			cur = Stage{}
		}
	}
	for _, op := range ops {
		if ir.IsShuffleOp(op.Type) {
			if cur.Shuffle {
				// A second shuffle cannot share the pass.
				flush()
			}
			cur.Ops = append(cur.Ops, op)
			cur.Shuffle = true
			continue
		}
		cur.Ops = append(cur.Ops, op)
	}
	flush()
	return stages
}
