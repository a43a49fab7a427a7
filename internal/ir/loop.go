package ir

import (
	"fmt"
	"maps"
	"slices"
)

// A WHILE runs its body as a successive expansion of the DAG (paper §4.2):
// every round evaluates the body against the loop's current bindings, then
// rebinds each carried input to its output. These methods are the one
// definition of what a round binds, hands on and leaves unchanged: the
// interpreter, the driver loop, the partitioner, the optimizer and the
// analyzer all ask them. Loop steps the rounds for both executors of a
// WHILE; each keeps only where its loop state lives.

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

// Loop runs the WHILE o round by round. round(iter) evaluates the body
// against the current bindings, iter counting from 0; rebind(in, out) then
// hands each carried output on to its input, in input-name order; and
// rows(rel) reports how many rows the stop condition holds. The loop stops
// once the condition is empty or after IterCap rounds, and returns how many
// rounds ran to completion. A loop whose condition is still non-empty when
// the cap runs out never reached its fixpoint: it returns a
// *NotConvergedError rather than present the truncated state as a result.
func (o *Op) Loop(round func(iter int) error, rebind func(in, out string) error, rows func(rel string) (int, error)) (int, error) {
	carried := slices.Sorted(maps.Keys(o.Params.Carried))
	cond, limit := o.Params.CondRel, o.IterCap()
	for iter := range limit {
		err := round(iter)
		for _, in := range carried {
			if err == nil {
				err = rebind(in, o.Params.Carried[in])
			}
		}
		n := 1 // without a stop condition only the cap ends the loop
		if err == nil && cond != "" {
			n, err = rows(cond)
		}
		if err != nil {
			return iter, fmt.Errorf("WHILE %s iteration %d: %w", o.Out, iter+1, err)
		}
		if n == 0 {
			return iter + 1, nil
		}
	}
	if cond == "" {
		return limit, nil
	}
	return limit, &NotConvergedError{Loop: o.Out, Cond: cond, Rounds: limit, Cap: limit}
}

// NotConvergedError is the failure of a WHILE whose stop condition still
// held rows when its iteration cap ran out.
type NotConvergedError struct {
	Loop        string // the WHILE's output
	Cond        string // its stop condition
	Rounds, Cap int
}

func (e *NotConvergedError) Error() string {
	return fmt.Sprintf("WHILE %s did not converge: condition %q still non-empty after %d iterations (cap %d)",
		e.Loop, e.Cond, e.Rounds, e.Cap)
}
