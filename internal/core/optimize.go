package core

import (
	"musketeer/internal/ir"
)

// Optimize applies Musketeer's IR-level query rewrites (paper §4.2): it
// moves filters below the joins and projections above them, so they run
// closer to the start of the workflow, fuses stacked filters and drops
// inputs nothing reads, shrinking intermediate volumes for every back-end
// at once. No rule moves an operator later. The DAG is rewritten in place;
// the transformation preserves results (asserted by the equivalence tests).
//
// The four rules, applied to fixpoint:
//
//  1. SELECT pushdown through JOIN: a filter directly above an equi-join
//     whose predicate only references columns from one join side moves to
//     that side.
//
//  2. SELECT pushdown through PROJECT: a filter above a non-renaming
//     projection swaps below it (the projection's input has every column
//     the predicate needs).
//
//  3. SELECT fusion: two stacked filters merge into one conjunctive
//     predicate, saving an operator (and a pass, on naive back-ends).
//
//  4. Dead-input removal: INPUT operators nothing consumes are dropped —
//     the optimizer-side consumption of the analyzer's liveness pass
//     (which flags the same operators as warnings). Loop-carried body
//     inputs are kept even when unread: the carry contract names them.
//
// Rewrites only fire when the rewritten operator is the sole consumer of
// its input, so shared intermediates keep their original semantics.
func Optimize(dag *ir.DAG) int { return optimize(dag, nil) }

// optimize rewrites dag, the body of the WHILE loop or the top level when
// loop is nil.
func optimize(dag *ir.DAG, loop *ir.Op) int {
	rewrites := 0
	for {
		n := optimizePass(dag)
		rewrites += n
		if n == 0 {
			break
		}
	}
	rewrites += removeDeadInputs(dag, loop)
	for _, op := range dag.Ops {
		if op.Params.Body != nil {
			rewrites += optimize(op.Params.Body, op)
		}
	}
	return rewrites
}

// removeDeadInputs drops INPUT operators with no consumers in dag, except
// those the WHILE loop rebinds every round even if the body text never
// reads them. Returns the number of operators removed.
func removeDeadInputs(dag *ir.DAG, loop *ir.Op) int {
	removed := 0
	cons := dag.Consumers()
	live := dag.Ops[:0]
	for _, op := range dag.Ops {
		if op.Type == ir.OpInput && len(cons[op]) == 0 && (loop == nil || !loop.Rebinds(op)) {
			removed++
			continue
		}
		live = append(live, op)
	}
	dag.Ops = live
	return removed
}

func optimizePass(dag *ir.DAG) int {
	cons := dag.Consumers()
	for _, op := range dag.Ops {
		if op.Type != ir.OpSelect {
			continue
		}
		child := op.Inputs[0]
		if len(cons[child]) != 1 {
			continue // shared intermediate: unsafe to reorder
		}
		switch child.Type {
		case ir.OpJoin:
			if pushSelectIntoJoin(dag, op, child) {
				return 1
			}
		case ir.OpProject:
			if len(child.Params.As) == 0 && pushSelectBelowUnary(dag, op, child) {
				return 1
			}
		case ir.OpDistinct:
			if pushSelectBelowUnary(dag, op, child) {
				return 1
			}
		case ir.OpSelect:
			if fuseSelects(dag, op, child) {
				return 1
			}
		}
	}
	return 0
}

// pushSelectIntoJoin moves `sel` below `join` onto the side that supplies
// every predicate column:  σ(A ⋈ B) → σ(A) ⋈ B.
func pushSelectIntoJoin(dag *ir.DAG, sel, join *ir.Op) bool {
	schemas, err := dag.InferSchemas()
	if err != nil {
		return false
	}
	cols := sel.Params.Pred.Columns(nil)
	side := -1
	for i, in := range join.Inputs {
		has := true
		for _, c := range cols {
			if schemas[in].Index(c) < 0 {
				has = false
				break
			}
		}
		if has {
			side = i
			break
		}
	}
	if side < 0 {
		return false
	}
	// Rewire: join reads the filter; the filter reads the join's old side;
	// the select's consumers follow the join directly. Output names swap so
	// downstream references stay valid.
	oldSide := join.Inputs[side]
	join.Inputs[side] = sel
	sel.Inputs[0] = oldSide
	redirect(dag, sel, join)
	sel.Out, join.Out = "__pushed_"+sel.Out, sel.Out
	return true
}

// pushSelectBelowUnary swaps σ(u(X)) → u(σ(X)) for a unary operator whose
// input exposes the predicate columns unchanged.
func pushSelectBelowUnary(dag *ir.DAG, sel, child *ir.Op) bool {
	// For PROJECT the projected columns are a subset of the input's, so
	// the pushed-down filter still sees every predicate column.
	input := child.Inputs[0]
	child.Inputs[0] = sel
	sel.Inputs[0] = input
	redirect(dag, sel, child)
	sel.Out, child.Out = "__pushed_"+sel.Out, sel.Out
	return true
}

// fuseSelects merges σ_p(σ_q(X)) into σ_{q AND p}(X), removing the inner
// filter from the DAG.
func fuseSelects(dag *ir.DAG, sel, child *ir.Op) bool {
	sel.Params.Pred = ir.And(child.Params.Pred, sel.Params.Pred)
	sel.Inputs[0] = child.Inputs[0]
	for i, op := range dag.Ops {
		if op == child {
			dag.Ops = append(dag.Ops[:i], dag.Ops[i+1:]...)
			break
		}
	}
	return true
}

// redirect makes every consumer of `from` read `to` instead (except `to`
// itself).
func redirect(dag *ir.DAG, from, to *ir.Op) {
	for _, op := range dag.Ops {
		if op == to {
			continue
		}
		for i, in := range op.Inputs {
			if in == from {
				op.Inputs[i] = to
			}
		}
	}
}
