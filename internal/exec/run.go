package exec

import (
	"fmt"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// Env binds relation names to materialized relations during evaluation.
type Env map[string]*relation.Relation

// Clone shallow-copies the environment (relations are shared).
func (e Env) Clone() Env {
	c := make(Env, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

// UDF is a registered user-defined function: an execution body plus the
// schema transform the IR validator uses.
type UDF struct {
	Fn        func(inputs []*relation.Relation) (*relation.Relation, error)
	OutSchema ir.UDFSchemaFn
}

var udfs = map[string]UDF{}

// RegisterUDF installs a UDF under name for both execution and schema
// inference. Re-registration replaces the previous definition.
func RegisterUDF(name string, udf UDF) {
	udfs[name] = udf
	ir.RegisterUDFSchema(name, udf.OutSchema)
}

// Trace records what a DAG evaluation did; engines and the history store
// consume it for cost calibration and bound refinement.
type Trace struct {
	// OutBytes maps operator ID to the effective (logical) output size of
	// its most recent evaluation.
	OutBytes map[int]int64
	// OutRows maps operator ID to physical output row count (most recent).
	OutRows map[int]int
	// ProcBytes maps operator ID to the cumulative effective bytes it
	// processed (inputs plus produced data) — accumulated across WHILE
	// iterations, this is the PROCESS volume of the paper's cost model.
	ProcBytes map[int]int64
	// InBytes maps operator ID to cumulative effective input bytes only
	// (the volume a shuffle operator moves across the network).
	InBytes map[int]int64
	// Iterations maps WHILE operator IDs to the number of iterations run.
	Iterations map[int]int
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{OutBytes: map[int]int64{}, OutRows: map[int]int{}, ProcBytes: map[int]int64{}, InBytes: map[int]int64{}, Iterations: map[int]int{}}
}

func newTrace() *Trace { return NewTrace() }

// Merge folds another trace into t: sizes and counts take the other
// trace's latest values, processed bytes accumulate.
func (t *Trace) Merge(o *Trace) {
	for k, v := range o.OutBytes {
		t.OutBytes[k] = v
	}
	for k, v := range o.OutRows {
		t.OutRows[k] = v
	}
	for k, v := range o.ProcBytes {
		t.ProcBytes[k] += v
	}
	for k, v := range o.InBytes {
		t.InBytes[k] += v
	}
	for k, v := range o.Iterations {
		t.Iterations[k] = v
	}
}

// TotalProcBytes sums processed bytes over the given operator IDs; with a
// nil filter it sums everything.
func (t *Trace) TotalProcBytes(ids map[int]bool) int64 {
	var n int64
	for id, v := range t.ProcBytes {
		if ids == nil || ids[id] {
			n += v
		}
	}
	return n
}

// RunDAG evaluates every operator of the DAG in topological order. Input
// operators resolve from env by output name (or DFS path); every operator's
// result is added to the returned environment under its output name.
func RunDAG(d *ir.DAG, env Env) (Env, *Trace, error) {
	ops, err := d.TopoSort()
	if err != nil {
		return nil, nil, err
	}
	env = env.Clone()
	trace := newTrace()
	// RunDAG's contract is that every operator's result is readable from the
	// returned environment, so nothing may be elided here: fusion runs where
	// intermediates are known to be private — engine fragments (RunOps with
	// a Keep set) and WHILE bodies.
	if err := RunOps(ops, env, trace, RunOptions{NoFuse: true}); err != nil {
		return nil, nil, err
	}
	return env, trace, nil
}

// RunOp evaluates one operator against an environment, handling INPUT
// resolution and WHILE iteration.
func RunOp(op *ir.Op, env Env, trace *Trace) (*relation.Relation, error) {
	switch op.Type {
	case ir.OpInput:
		if rel, ok := env[op.Out]; ok {
			return rel, nil
		}
		if rel, ok := env[op.Params.Path]; ok {
			return rel, nil
		}
		return nil, fmt.Errorf("exec: input relation %q (path %q) not bound", op.Out, op.Params.Path)
	case ir.OpWhile:
		return RunWhile(op, env, trace)
	default:
		inputs := make([]*relation.Relation, len(op.Inputs))
		for i, in := range op.Inputs {
			rel, ok := env[in.Out]
			if !ok {
				return nil, fmt.Errorf("exec: %s: input relation %q not materialized", op, in.Out)
			}
			inputs[i] = rel
			if trace != nil {
				eff := rel.EffectiveBytes()
				trace.ProcBytes[op.ID] += eff
				trace.InBytes[op.ID] += eff
			}
		}
		return EvalOp(op, inputs)
	}
}

// RunWhile drives a WHILE operator: it evaluates the body DAG repeatedly,
// rebinding loop-carried relations between iterations, until MaxIter is
// reached or the condition relation becomes empty. This is the "successive
// DAG expansion" of paper §4.2 — each iteration is a fresh evaluation of
// the body against an updated environment.
func RunWhile(op *ir.Op, env Env, trace *Trace) (*relation.Relation, error) {
	return runWhile(op, env, trace, RunOptions{})
}

// runWhile implements RunWhile with evaluation options threaded through.
// Body iterations fuse eligible operator chains: only loop-carried
// relations, the stop-condition relation, and the result relation are read
// between iterations, so everything else streams.
func runWhile(op *ir.Op, env Env, trace *Trace, opts RunOptions) (*relation.Relation, error) {
	body := op.Params.Body
	if body == nil {
		return nil, fmt.Errorf("exec: %s: WHILE without body", op)
	}
	// Bind body inputs: body INPUT ops resolve by name against the outer
	// environment (the WHILE's own inputs are in scope by construction).
	loopEnv := make(Env)
	for _, bop := range body.Ops {
		if bop.Type != ir.OpInput {
			continue
		}
		rel, ok := env[bop.Out]
		if !ok {
			rel, ok = env[bop.Params.Path]
		}
		if !ok {
			return nil, fmt.Errorf("exec: %s: body input %q not bound in outer scope", op, bop.Out)
		}
		loopEnv[bop.Out] = rel
	}
	bodyOps, err := body.TopoSort()
	if err != nil {
		return nil, err
	}
	keepNames := map[string]bool{op.ResultRelation(): true}
	for _, outName := range op.Params.Carried {
		keepNames[outName] = true
	}
	if op.Params.CondRel != "" {
		keepNames[op.Params.CondRel] = true
	}
	bodyOpts := RunOptions{
		Keep:      func(bop *ir.Op) bool { return keepNames[bop.Out] },
		BatchRows: opts.BatchRows,
		Check:     opts.Check,
		NoFuse:    opts.NoFuse,
	}
	maxIter := op.Params.MaxIter
	if maxIter <= 0 {
		maxIter = 1 << 20 // condition-only loop; CondRel must terminate it
	}
	iters := 0
	converged := op.Params.CondRel == "" // bounded loops terminate by cap
	var lastOut Env
	for ; iters < maxIter; iters++ {
		outEnv := loopEnv.Clone()
		// An untraced WHILE (RunOps allows a nil trace) runs its body
		// untraced too.
		var bodyTrace *Trace
		if trace != nil {
			bodyTrace = newTrace()
		}
		if err := RunOps(bodyOps, outEnv, bodyTrace, bodyOpts); err != nil {
			return nil, fmt.Errorf("exec: %s iteration %d: %w", op, iters+1, err)
		}
		if trace != nil {
			trace.Merge(bodyTrace)
		}
		lastOut = outEnv
		// Rebind carried relations for the next iteration.
		for inName, outName := range op.Params.Carried {
			rel, ok := outEnv[outName]
			if !ok {
				return nil, fmt.Errorf("exec: %s: carried output %q missing", op, outName)
			}
			loopEnv[inName] = rel
		}
		if op.Params.CondRel != "" {
			cond, ok := outEnv[op.Params.CondRel]
			if !ok {
				return nil, fmt.Errorf("exec: %s: condition relation %q missing", op, op.Params.CondRel)
			}
			if cond.NumRows() == 0 {
				converged = true
				iters++
				break
			}
		}
	}
	if trace != nil {
		trace.Iterations[op.ID] = iters
	}
	if !converged {
		// A data-dependent loop that exhausts its iteration cap with the
		// stop condition still non-empty never reached its fixpoint;
		// returning the truncated state silently would present a wrong
		// answer as a result.
		return nil, fmt.Errorf("exec: %s: WHILE did not converge: condition %q still non-empty after %d iterations (cap %d)",
			op, op.Params.CondRel, iters, maxIter)
	}
	res := op.ResultRelation()
	// After the final rebind, the result is the carried value now bound to
	// the body input side; find it via the carry mapping.
	for inName, outName := range op.Params.Carried {
		if outName == res {
			rel := loopEnv[inName]
			out := &relation.Relation{Name: op.Out, Schema: rel.Schema, Rows: rel.Rows, LogicalBytes: rel.LogicalBytes}
			return out, nil
		}
	}
	// No carry mapping selects the result: take it from the last
	// iteration's outputs.
	if lastOut == nil {
		return nil, fmt.Errorf("exec: %s: WHILE ran zero iterations", op)
	}
	rel, ok := lastOut[res]
	if !ok {
		return nil, fmt.Errorf("exec: %s: result relation %q missing", op, res)
	}
	return &relation.Relation{Name: op.Out, Schema: rel.Schema, Rows: rel.Rows, LogicalBytes: rel.LogicalBytes}, nil
}
