package exec

import (
	"fmt"
	"slices"

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

// volume is a relation's size as the cost model sees it: the encoded bytes
// of its physical rows and the paper-scale size they stand for (0 when the
// relation is physical only). Materialized relations and the virtual
// outputs of streamed-through pipeline members are sized the same way.
type volume struct{ phys, logical int64 }

// volumeOf sizes a relation an operator reads. Untraced, only a relation
// that carries a logical size has its bytes counted (its scale ratio must
// still propagate); nothing reads the size of any other.
func (t *Trace) volumeOf(rel *relation.Relation) volume {
	if t == nil && rel.LogicalBytes <= 0 {
		return volume{}
	}
	return volume{phys: rel.PhysicalBytes(), logical: rel.LogicalBytes}
}

// eff is relation.Relation.EffectiveBytes for a volume.
func (v volume) eff() int64 {
	if v.logical > 0 {
		return v.logical
	}
	return v.phys
}

// ratio is relation.Relation.ScaleRatio for a volume.
func (v volume) ratio() float64 {
	if v.logical <= 0 || v.phys == 0 {
		return 1
	}
	return float64(v.logical) / float64(v.phys)
}

// record is the one place an operator's trace entry is computed. ins are the
// volumes op read; phys and rows measure what it emitted — taken from a tap
// for a streamed-through pipeline member, from the relation for a
// materialized output. The output's logical size is its physical bytes times
// the dominant (maximum) input scale ratio: workload generators downscale
// all inputs by a common factor, so this keeps logical volumes consistent as
// data flows through a workflow. INPUT and WHILE bind an existing relation
// (phys is then its effective size, ins empty) and count no PROCESS volume;
// for every other operator PROCESS covers inputs and produced data alike —
// materializing a generative operator's output is real work. t may be nil.
func (t *Trace) record(op *ir.Op, ins []volume, phys int64, rows int) volume {
	ratio := 1.0
	for _, in := range ins {
		if t != nil {
			t.ProcBytes[op.ID] += in.eff()
			t.InBytes[op.ID] += in.eff()
		}
		if r := in.ratio(); r > ratio {
			ratio = r
		}
	}
	out := volume{phys: phys}
	if ratio > 1 {
		out.logical = int64(float64(phys) * ratio)
	}
	if t != nil {
		t.OutBytes[op.ID] = out.eff()
		t.OutRows[op.ID] = rows
		if op.Type != ir.OpInput && op.Type != ir.OpWhile {
			t.ProcBytes[op.ID] += out.eff()
		}
	}
	return out
}

// recordOutput records op's materialized output and stamps its logical
// size. owned says out's rows are storage the evaluating goroutine has just
// built and is still the only holder of, so sizing them may cache the widths
// it measures; rows passed through by reference or of unknown provenance
// (SELECT, the set operators, SORT, LIMIT, UDF) are only read.
func (t *Trace) recordOutput(op *ir.Op, ins []volume, out *relation.Relation, owned bool) {
	scaled := false
	for _, in := range ins {
		scaled = scaled || in.logical > 0
	}
	if t == nil && !scaled {
		return // untraced and unscaled: nothing reads out's size
	}
	var phys int64
	if owned {
		phys = out.StampPhysicalBytes()
	} else {
		phys = out.PhysicalBytes()
	}
	out.LogicalBytes = t.record(op, ins, phys, len(out.Rows)).logical
}

// recordBound records the relation an INPUT or WHILE binds.
func (t *Trace) recordBound(op *ir.Op, rel *relation.Relation) {
	if t != nil {
		t.record(op, nil, rel.EffectiveBytes(), rel.NumRows())
	}
}

// RunDAG evaluates every operator of the DAG in topological order. Input
// operators resolve from env by output name (or DFS path); every operator's
// result is added to the returned environment under its output name, so
// every operator is kept: each pipeline is one member long.
func RunDAG(d *ir.DAG, env Env) (Env, *Trace, error) {
	ops, err := d.TopoSort()
	if err != nil {
		return nil, nil, err
	}
	env = env.Clone()
	trace := NewTrace()
	if err := RunOps(ops, env, trace, RunOptions{Keep: func(*ir.Op) bool { return true }}); err != nil {
		return nil, nil, err
	}
	return env, trace, nil
}

// RunOptions parameterizes a RunOps evaluation.
type RunOptions struct {
	// Keep marks operators whose outputs must materialize into the
	// environment even when a pipeline could stream through them (fragment
	// external outputs, loop-carried relations). nil keeps nothing extra:
	// every eligible interior operator is streamed through.
	Keep func(*ir.Op) bool
	// BatchRows overrides the pipeline batch size
	// (relation.DefaultBatchRows). Tests force tiny batches.
	BatchRows int
	// Check runs before each execution unit; a non-nil error aborts the run.
	// Engines use it for cancellation.
	Check func() error
	// SkipInputs skips OpInput operators instead of resolving them
	// (engines bind external inputs into env themselves).
	SkipInputs bool
	// Sources are external inputs opened but not decoded, by the name
	// operators read them under (INPUT operators resolve against env only:
	// callers set SkipInputs). RunOps decodes each batch by batch inside every
	// pipeline that scans it, or once up front into env when anything else
	// reads it (see bindSources); either way it is metered once.
	Sources map[string]*relation.Encoded
	// Sinks are external outputs being written, by the name of the (kept,
	// non-INPUT) operator producing them — the mirror of Sources. RunOps
	// stamps header fields and renders each once: batch by batch out of the
	// pipeline ending in it if no operator reads it (see runChain), else in
	// one Append of the relation its unit materialized into env.
	Sinks map[string]*relation.Writer
	// Joins, when non-nil, keeps the join tables the run builds, for the
	// next run of the same operators: a JOIN whose build side is the very
	// relation it indexed last time probes that table instead of building
	// one. A loop's rounds pass one.
	Joins JoinTables
	uses  map[string]int // nameUses(ops), when Sources or Sinks ask
}

// JoinTables holds, per JOIN operator, the table a run built and the
// build-side relation it indexes. It has one user at a time.
type JoinTables map[*ir.Op]builtJoin

// builtJoin is a join table and the build relation it indexes.
type builtJoin struct {
	rel   *relation.Relation
	table *joinTable
}

// RunOps evaluates ops — which must already be in topological order —
// against env, one execution unit at a time (see planUnits). Each unit's
// output lands in env under its output name, or in its sink; trace (which
// may be nil) records every operator's volumes, streamed through or not.
func RunOps(ops []*ir.Op, env Env, trace *Trace, opts RunOptions) error {
	keep := opts.Keep
	if len(opts.Sinks) > 0 {
		keep = func(op *ir.Op) bool { return opts.Sinks[op.Out] != nil || opts.Keep != nil && opts.Keep(op) }
	}
	units := planUnits(ops, keep)
	if len(opts.Sources) > 0 || len(opts.Sinks) > 0 {
		opts.uses = nameUses(ops)
		var err error
		if opts.Sources, err = bindSources(units, env, opts); err != nil {
			return err
		}
	}
	return runUnits(units, env, trace, opts)
}

// nameUses counts consumer edges inside ops per relation name. A WHILE reads
// its body's inputs through its own edges (see ir.Op.BoundInput).
func nameUses(ops []*ir.Op) map[string]int {
	uses := make(map[string]int, len(ops))
	for _, op := range ops {
		for _, in := range op.Inputs {
			uses[in.Out]++
		}
	}
	return uses
}

// bindSources splits opts.Sources into the inputs that stream, which it
// returns, and the rest, which it materializes into env. An input streams
// when every consumer edge of it in ops is the probe (first) input of a
// pipeline head: each of those pipelines scans it on its own, decoding a
// batch at a time into an arena it reuses, which costs less than holding
// every row between them. A JOIN build side, a breaker kernel, a self-join
// and a WHILE all need the rows to stay.
func bindSources(units [][]*ir.Op, env Env, opts RunOptions) (map[string]*relation.Encoded, error) {
	scans := make(map[string]int, len(opts.Sources))
	for _, u := range units {
		if head := u[0]; pipelined(head.Type) && len(head.Inputs) > 0 {
			scans[head.Inputs[0].Out]++
		}
	}
	streams := make(map[string]*relation.Encoded, len(opts.Sources))
	for name, src := range opts.Sources {
		if n := scans[name]; n > 0 && n == opts.uses[name] {
			streams[name] = src
			continue
		}
		rel, err := src.Materialize()
		if err != nil {
			return nil, err
		}
		env[name] = rel
	}
	return streams, nil
}

func runUnits(units [][]*ir.Op, env Env, trace *Trace, opts RunOptions) error {
	for _, u := range units {
		op := u[len(u)-1]
		if opts.SkipInputs && op.Type == ir.OpInput {
			continue
		}
		if opts.Check != nil {
			if err := opts.Check(); err != nil {
				return err
			}
		}
		rel, err := runUnit(u, env, trace, opts)
		if err != nil {
			return err
		}
		if rel == nil {
			continue // streamed into its sink
		}
		env[op.Out] = rel
		if w := opts.Sinks[op.Out]; w != nil {
			w.Schema, w.LogicalBytes = rel.Schema, rel.LogicalBytes
			w.Append(rel.Rows)
		}
	}
	return nil
}

// runUnit executes one unit — a pipeline, a breaker kernel, a WHILE loop or
// an INPUT binding — and returns the relation it materializes, if any.
func runUnit(u []*ir.Op, env Env, trace *Trace, opts RunOptions) (*relation.Relation, error) {
	op := u[len(u)-1]
	switch {
	case pipelined(op.Type):
		return runChain(u, env, trace, opts)
	case op.Type == ir.OpInput:
		rel, ok := env[op.Out]
		if !ok {
			rel, ok = env[op.Params.Path]
		}
		if !ok {
			return nil, fmt.Errorf("exec: input relation %q (path %q) not bound", op.Out, op.Params.Path)
		}
		trace.recordBound(op, rel)
		return rel, nil
	case op.Type == ir.OpWhile:
		rel, err := runWhile(op, env, trace, opts)
		if err == nil {
			trace.recordBound(op, rel)
		}
		return rel, err
	default:
		return evalBreaker(op, env, trace)
	}
}

// runWhile drives a WHILE operator: it evaluates the body DAG repeatedly,
// rebinding loop-carried relations between iterations, until its cap is
// reached or the condition relation becomes empty. This is the "successive
// DAG expansion" of paper §4.2 — each iteration is a fresh evaluation of the
// body's units against an updated environment. The body keeps what
// ir.Op.Kept lists plus whatever the caller's Keep names and streams through
// everything else. A body JOIN whose build side is the same relation as in
// the iteration before — an invariant input — probes the table built then
// (see runChain).
func runWhile(op *ir.Op, env Env, trace *Trace, opts RunOptions) (*relation.Relation, error) {
	body := op.Params.Body
	if body == nil {
		return nil, fmt.Errorf("exec: %s: WHILE without body", op)
	}
	// Bind body inputs to the outer relations the WHILE binds them to.
	loopEnv := make(Env)
	for _, bop := range body.Ops {
		if bop.Type != ir.OpInput {
			continue
		}
		src := op.BoundInput(bop)
		if src == nil {
			return nil, fmt.Errorf("exec: %s: body input %q is not bound by the WHILE", op, bop.Out)
		}
		rel, ok := env[src.Out]
		if !ok {
			return nil, fmt.Errorf("exec: %s: body input %q not bound in outer scope", op, bop.Out)
		}
		loopEnv[bop.Out] = rel
	}
	bodyOps, err := body.TopoSort()
	if err != nil {
		return nil, err
	}
	kept := op.Kept()
	bodyOpts := RunOptions{
		Keep:      func(bop *ir.Op) bool { return slices.Contains(kept, bop.Out) || opts.Keep != nil && opts.Keep(bop) },
		BatchRows: opts.BatchRows,
		Check:     opts.Check,
		Joins:     make(JoinTables),
	}
	units := planUnits(bodyOps, bodyOpts.Keep)
	maxIter := op.IterCap()
	iters := 0
	converged := op.Params.CondRel == "" // bounded loops terminate by cap
	var lastOut Env
	for ; iters < maxIter; iters++ {
		outEnv := loopEnv.Clone()
		// An untraced WHILE (RunOps allows a nil trace) runs its body
		// untraced too.
		var bodyTrace *Trace
		if trace != nil {
			bodyTrace = NewTrace()
		}
		if err := runUnits(units, outEnv, bodyTrace, bodyOpts); err != nil {
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
	// The last rebind bound a carried result to its input too: lastOut holds
	// the same relation.
	rel := lastOut[op.ResultRelation()]
	if rel == nil {
		return nil, fmt.Errorf("exec: %s: result relation %q missing", op, op.ResultRelation())
	}
	return &relation.Relation{Name: op.Out, Schema: rel.Schema, Rows: rel.Rows, LogicalBytes: rel.LogicalBytes}, nil
}
