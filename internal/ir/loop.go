package ir

import (
	"maps"
	"slices"
)

// A WHILE runs its body as a successive expansion of the DAG (paper §4.2):
// every round evaluates the body against the loop's current bindings, then
// rebinds each carried input to its output. These methods are the one
// definition of what a round binds, hands on and leaves unchanged: the
// interpreter, the driver loop, the partitioner, the optimizer and the
// analyzer all ask them.

// BoundInput returns the outer relation a body INPUT of the WHILE o binds
// to: the WHILE input of the same name, or nil when there is none. A body
// INPUT binds to nothing else — no other relation in scope, no path.
func (o *Op) BoundInput(bop *Op) *Op {
	for _, in := range o.Inputs {
		if in.Out == bop.Out {
			return in
		}
	}
	return nil
}

// Rebinds reports whether bop is a body INPUT the loop rebinds every round:
// one Carried names.
func (o *Op) Rebinds(bop *Op) bool {
	_, ok := o.Params.Carried[bop.Out]
	return ok && bop.Type == OpInput
}

// Invariant returns the body operators that read no rebound input, directly
// or through other body operators: each computes the same relation in every
// round.
func (o *Op) Invariant() map[*Op]bool {
	if o.Params.Body == nil {
		return nil
	}
	memo := make(map[*Op]bool, len(o.Params.Body.Ops))
	var invariant func(*Op) bool
	invariant = func(bop *Op) bool {
		if v, ok := memo[bop]; ok {
			return v
		}
		v := !o.Rebinds(bop)
		for _, in := range bop.Inputs {
			v = invariant(in) && v
		}
		memo[bop] = v
		return v
	}
	out := make(map[*Op]bool, len(o.Params.Body.Ops))
	for _, bop := range o.Params.Body.Ops {
		if invariant(bop) {
			out[bop] = true
		}
	}
	return out
}

// Kept lists the body relations a round hands on: the carried outputs in
// name order, then the stop condition and the result when neither is one
// of them. Every other body relation lives for one round only.
func (o *Op) Kept() []string {
	kept := slices.Compact(slices.Sorted(maps.Values(o.Params.Carried)))
	for _, name := range []string{o.Params.CondRel, o.ResultRelation()} {
		if name != "" && !slices.Contains(kept, name) {
			kept = append(kept, name)
		}
	}
	return kept
}

// ResultRelation names the body relation whose final value becomes the
// WHILE's output: the lexically smallest carried output, or the body's sole
// sink when no carry is declared.
func (o *Op) ResultRelation() string {
	best := ""
	for _, outName := range o.Params.Carried {
		if best == "" || outName < best {
			best = outName
		}
	}
	if best != "" {
		return best
	}
	if o.Params.Body != nil {
		if sinks := o.Params.Body.Sinks(); len(sinks) > 0 {
			return sinks[0].Out
		}
	}
	return ""
}

// IterCap is the most rounds the WHILE may run: MaxIter, or MaxCondIters
// when only the stop condition bounds it.
func (o *Op) IterCap() int {
	if o.Params.MaxIter > 0 {
		return o.Params.MaxIter
	}
	return MaxCondIters
}
