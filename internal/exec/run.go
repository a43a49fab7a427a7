package exec

import (
	"fmt"
	"slices"
	"sync"

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

// sizes remembers the volume of the bound relations a run has sized, so a
// relation read again — by another unit, or by every round of a loop, as
// PageRank's invariant edges are — is measured once. A RunOps call keeps one,
// filled as outputs are recorded and sources materialized and handed back
// when it returns; a runWhile keeps its own across its rounds, pruned at each
// to the relations the round binds. Relations are immutable once bound, so an
// entry never goes stale. A run holds a few relations at a time, so a list
// searched from its newest entry beats a map, and costs no allocation warm.
type sizes struct {
	rels []*relation.Relation
	vols []volume
}

var sizesPool = sync.Pool{New: func() any { return new(sizes) }}

// newSizes returns an empty list from sizesPool.
func newSizes() *sizes { return sizesPool.Get().(*sizes) }

// release empties s, so the pool keeps no relation alive, and hands it back.
func (s *sizes) release() {
	clear(s.rels)
	s.rels, s.vols = s.rels[:0], s.vols[:0]
	sizesPool.Put(s)
}

// of sizes a relation an operator reads. Untraced, only a relation that
// carries a logical size has its bytes counted (its scale ratio must still
// propagate); nothing reads the size of any other. A nil list remembers
// nothing.
func (s *sizes) of(t *Trace, rel *relation.Relation) volume {
	if t == nil && rel.LogicalBytes <= 0 {
		return volume{}
	}
	if s != nil {
		for i := len(s.rels) - 1; i >= 0; i-- {
			if s.rels[i] == rel {
				return s.vols[i]
			}
		}
	}
	v := volume{phys: rel.PhysicalBytes(), logical: rel.LogicalBytes}
	s.keep(rel, v)
	return v
}

// keep records rel's volume.
func (s *sizes) keep(rel *relation.Relation, v volume) {
	if s != nil {
		s.rels, s.vols = append(s.rels, rel), append(s.vols, v)
	}
}

// retain drops every entry but env's relations'.
func (s *sizes) retain(env Env) {
	n := 0
	for i, rel := range s.rels {
		for _, bound := range env {
			if bound == rel {
				s.rels[n], s.vols[n] = rel, s.vols[i]
				n++
				break
			}
		}
	}
	clear(s.rels[n:])
	s.rels, s.vols = s.rels[:n], s.vols[:n]
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
// it measures; rows passed on by reference from a bound relation (by SELECT,
// UNION, the set operators, SORT or LIMIT) or returned by a UDF are only
// read.
func (t *Trace) recordOutput(op *ir.Op, ins []volume, out *relation.Relation, owned bool, sizes *sizes) {
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
	sizes.keep(out, volume{phys: phys, logical: out.LogicalBytes})
}

// recordBound records the relation an INPUT or WHILE binds.
func (t *Trace) recordBound(op *ir.Op, rel *relation.Relation, sizes *sizes) {
	if t != nil {
		t.record(op, nil, sizes.of(t, rel).eff(), rel.NumRows())
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
	// relation or opened file (Sources) it indexed last time probes that
	// table instead of building one, and a table replaced by one over
	// another input is recycled.
	// A loop's rounds pass one. Without it, a chain recycles the tables it
	// built when it finishes.
	Joins JoinTables
	// recycleJoins says the caller releases Joins' tables when it is done
	// with them (runWhile does), so they may come from the pools.
	recycleJoins bool
	uses         map[string]int // nameUses(ops), when Sources or Sinks ask
	sizes        *sizes
}

// JoinTables holds, per JOIN operator, the table a run built and the
// build-side relation it indexes. It has one user at a time.
type JoinTables map[*ir.Op]builtJoin

// release recycles every table: no run may probe them after.
func (j JoinTables) release() {
	for op, built := range j {
		built.table.release()
		delete(j, op)
	}
}

// builtJoin is a join table and the build side it indexes: a bound relation,
// or a file it was built from as the file streamed.
type builtJoin struct {
	rel   *relation.Relation
	file  *relation.Encoded
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
	opts.sizes = newSizes()
	defer opts.sizes.release()
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
// when every consumer edge of it in ops is a scan — the first input of a
// pipeline head, the second of a UNION head or the right input of a set
// operator — or a JOIN or CROSS JOIN build side. Each of those reads it on
// its own, decoding a batch at a time into vectors it reuses — a set operator
// hashing its key set, keeping no row, a build copying its kept columns into
// its table — which costs less than holding every row between them. A UDF's
// further inputs and a WHILE need the rows to stay.
func bindSources(units [][]*ir.Op, env Env, opts RunOptions) (map[string]*relation.Encoded, error) {
	scans := make(map[string]int, len(opts.Sources))
	for _, u := range units {
		if head := u[0]; pipelined(head.Type) && len(head.Inputs) > 0 {
			scans[head.Inputs[0].Out]++
		}
		for _, op := range u { // a UNION only heads, a set operator only ends
			switch op.Type {
			case ir.OpUnion, ir.OpIntersect, ir.OpDifference, ir.OpJoin, ir.OpCrossJoin:
				if len(op.Inputs) == 2 {
					scans[op.Inputs[1].Out]++
				}
			}
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
		opts.sizes.keep(rel, volume{phys: src.PhysicalBytes(), logical: rel.LogicalBytes})
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

// runUnit executes one unit — a pipeline, an INPUT binding or a WHILE loop —
// and returns the relation it materializes, if any.
func runUnit(u []*ir.Op, env Env, trace *Trace, opts RunOptions) (*relation.Relation, error) {
	op := u[len(u)-1]
	switch op.Type {
	case ir.OpInput:
		rel, ok := env[op.Out]
		if !ok {
			rel, ok = env[op.Params.Path]
		}
		if !ok {
			return nil, fmt.Errorf("exec: input relation %q (path %q) not bound", op.Out, op.Params.Path)
		}
		trace.recordBound(op, rel, opts.sizes)
		return rel, nil
	case ir.OpWhile:
		rel, err := runWhile(op, env, trace, opts)
		if err == nil {
			trace.recordBound(op, rel, opts.sizes)
		}
		return rel, err
	}
	return runChain(u, env, trace, opts)
}

// runWhile drives a WHILE operator in memory: ir.Op.Loop steps the rounds
// (cap, rebinding, stop test), and each round is a fresh evaluation of the
// body's units against the loop's current environment — the "successive
// DAG expansion" of paper §4.2. The body keeps what ir.Op.Kept lists plus
// whatever the caller's Keep names and streams through everything else. A
// body JOIN whose build side is the same relation as in the iteration
// before — an invariant input — probes the table built then (see runChain);
// the tables go back to their pool when the loop returns.
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

		recycleJoins: true,
		sizes:        newSizes(),
	}
	defer bodyOpts.Joins.release()
	defer bodyOpts.sizes.release()
	units := planUnits(bodyOps, bodyOpts.Keep)
	// Each round evaluates the body in a clone of the loop's bindings;
	// lastOut is the latest round's.
	var lastOut Env
	iters, err := op.Loop(func(int) error {
		bodyOpts.sizes.retain(loopEnv)
		lastOut = loopEnv.Clone()
		// An untraced WHILE (RunOps allows a nil trace) runs its body
		// untraced too.
		var bodyTrace *Trace
		if trace != nil {
			bodyTrace = NewTrace()
		}
		if err := runUnits(units, lastOut, bodyTrace, bodyOpts); err != nil {
			return err
		}
		if trace != nil {
			trace.Merge(bodyTrace)
		}
		return nil
	}, func(in, out string) error {
		rel, ok := lastOut[out]
		if !ok {
			return fmt.Errorf("carried output %q missing", out)
		}
		loopEnv[in] = rel
		return nil
	}, func(cond string) (int, error) {
		rel, ok := lastOut[cond]
		if !ok {
			return 0, fmt.Errorf("condition relation %q missing", cond)
		}
		return rel.NumRows(), nil
	})
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	if trace != nil {
		trace.Iterations[op.ID] = iters
	}
	// The last rebind bound a carried result to its input too: lastOut holds
	// the same relation.
	rel := lastOut[op.ResultRelation()]
	if rel == nil {
		return nil, fmt.Errorf("exec: %s: result relation %q missing", op, op.ResultRelation())
	}
	return &relation.Relation{Name: op.Out, Schema: rel.Schema, Rows: rel.Rows, LogicalBytes: rel.LogicalBytes}, nil
}
