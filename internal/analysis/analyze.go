package analysis

import (
	"maps"
	"slices"
	"strings"

	"musketeer/internal/engines"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// init installs the analyzer as ir.DAG.Validate's implementation wherever
// this package is linked in: front-ends and core get multi-diagnostic
// validation without ir importing analysis (which would cycle).
func init() {
	ir.RegisterAnalyzer(func(d *ir.DAG) error { return Analyze(d).Err() })
}

// Analyze runs every pass against the standard engine set and returns the
// full report, errors and warnings both, in deterministic order.
func Analyze(d *ir.DAG) *Report {
	return AnalyzeWithEngines(d, engines.StandardEngines())
}

// AnalyzeWithEngines analyzes the workflow with an explicit candidate
// engine set for the feasibility pass (pass order: structure, schema,
// loop, liveness, engines, properties). A nil or empty engine set skips
// the feasibility pass.
func AnalyzeWithEngines(d *ir.DAG, engs []*engines.Engine) *Report {
	a := &analyzer{rep: &Report{}, schemas: map[*ir.Op]relation.Schema{}}
	// Pass 1 (structure). Cycles or foreign edges make a topological walk
	// impossible, so the remaining passes only run on structurally sound
	// DAGs — their absence is not a lost diagnostic, the structural errors
	// are the diagnostics.
	if a.structural(d) {
		a.schemaPass(d, nil) // pass 2 (types/schemas)
		a.loopPass(d)        // pass 4 (loop checks)
		a.livenessPass(d)    // pass 3 (dead operators)
		if len(engs) > 0 {
			a.enginePass(d, engs) // pass 5 (engine feasibility)
		}
		a.propertyPass(d, PropagateProperties(d)) // pass 6 (properties)
	}
	a.rep.sortDiags()
	return a.rep
}

// CheckEngines runs only the engine-feasibility pass; core's mappers use it
// to reject impossible engine choices before the partition search starts.
func CheckEngines(d *ir.DAG, engs []*engines.Engine) *Report {
	a := &analyzer{rep: &Report{}, schemas: map[*ir.Op]relation.Schema{}}
	a.enginePass(d, engs)
	a.rep.sortDiags()
	return a.rep
}

type analyzer struct {
	rep *Report
	// schemas accumulates inferred output schemas across the top-level DAG
	// and every WHILE body (operator pointers are unique throughout).
	schemas map[*ir.Op]relation.Schema
}

func (a *analyzer) errf(pass string, op *ir.Op, format string, args ...any) {
	a.rep.add(SevError, pass, op, format, args...)
}

func (a *analyzer) warnf(pass string, op *ir.Op, format string, args ...any) {
	a.rep.add(SevWarning, pass, op, format, args...)
}

// structural is pass 1: recorded defects, edges to operators outside the
// DAG, cycles, empty and duplicate relation names — descending into WHILE
// bodies, each of which is its own name scope (bodies deliberately reuse
// outer relation names for their input bridges). Returns whether the DAG is
// sound enough (acyclic, no foreign edges) for topological-order passes.
func (a *analyzer) structural(d *ir.DAG) bool {
	sound := true
	for _, def := range d.Defects() {
		a.errf("structure", nil, "%s", def)
	}
	inDAG := make(map[*ir.Op]bool, len(d.Ops))
	for _, op := range d.Ops {
		inDAG[op] = true
	}
	for _, op := range d.Ops {
		for _, in := range op.Inputs {
			if !inDAG[in] {
				a.errf("structure", op, "input %s is outside the DAG (foreign edge)", in)
				sound = false
			}
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[*ir.Op]int, len(d.Ops))
	var visit func(op *ir.Op)
	visit = func(op *ir.Op) {
		switch color[op] {
		case black:
			return
		case gray:
			a.errf("structure", op, "operators form a cycle through %q", op.Out)
			sound = false
			return
		}
		color[op] = gray
		for _, in := range op.Inputs {
			if inDAG[in] {
				visit(in)
			}
		}
		color[op] = black
	}
	for _, op := range d.Ops {
		visit(op)
	}
	first := make(map[string]*ir.Op, len(d.Ops))
	for _, op := range d.Ops {
		if op.Out == "" {
			a.errf("structure", op, "empty output relation name")
			continue
		}
		if prev, ok := first[op.Out]; ok {
			a.errf("structure", op, "duplicate output relation %q (also produced by %s)", op.Out, prev)
			continue
		}
		first[op.Out] = op
	}
	for _, op := range d.Ops {
		if op.Params.Body != nil {
			if !a.structural(op.Params.Body) {
				sound = false
			}
		}
	}
	return sound
}

// schemaPass is pass 2: a topological walk inferring every operator's
// output schema, reporting every column-resolution and type error instead
// of stopping at the first. Operators whose inputs failed to infer are
// skipped silently — the producer already carries the diagnostic, and
// cascade errors would only bury it.
// In the body of the WHILE loop (nil at the top level), an INPUT takes the
// schema of the outer relation it binds (ir.Op.BoundInput) here rather than
// having it bound onto the operator: the analyzer must not mutate the DAG
// it inspects, because a compiled workflow may be analyzed by several
// concurrent executions at once.
func (a *analyzer) schemaPass(d *ir.DAG, loop *ir.Op) {
	ops, err := d.TopoSort()
	if err != nil {
		return // unreachable for structurally sound DAGs
	}
	for _, op := range ops {
		switch {
		case op.Type == ir.OpInput && loop != nil:
			if src := loop.BoundInput(op); src == nil {
				a.errf("schema", op, "body input %q is not bound by the enclosing WHILE", op.Out)
			} else if s, ok := a.schemas[src]; ok {
				a.schemas[op] = s
			}
		case op.Type == ir.OpInput:
			if op.Params.Schema.Arity() == 0 {
				a.errf("schema", op, "input without schema")
				continue
			}
			a.schemas[op] = op.Params.Schema
		case op.Type == ir.OpWhile:
			a.whileSchema(op)
		default:
			ready := true
			for _, in := range op.Inputs {
				if _, ok := a.schemas[in]; !ok {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			s, err := ir.OutputSchema(op, a.schemas)
			if err != nil {
				a.errf("schema", op, "%s", stripOpPrefix(err, op))
				continue
			}
			a.schemas[op] = s
		}
	}
}

// whileSchema infers a WHILE operator: analyzes the body with its inputs
// bound to the outer schemas (collecting all its diagnostics), and takes
// the result relation's schema as the loop's own output schema.
func (a *analyzer) whileSchema(w *ir.Op) {
	body := w.Params.Body
	if body == nil {
		a.errf("schema", w, "WHILE without body")
		return
	}
	a.schemaPass(body, w)
	res := w.ResultRelation()
	if res == "" {
		a.errf("schema", w, "WHILE has no result relation (no carried outputs and no unique body sink)")
		return
	}
	resOp := body.ByOut(res)
	if resOp == nil {
		a.errf("schema", w, "result relation %q not in body", res)
		return
	}
	if s, ok := a.schemas[resOp]; ok {
		a.schemas[w] = s
	}
}

// stripOpPrefix removes inferOp's "ir: <op>: " prefix — the diagnostic
// already renders the operator and would otherwise repeat it.
func stripOpPrefix(err error, op *ir.Op) string {
	msg := strings.TrimPrefix(err.Error(), "ir: ")
	return strings.TrimPrefix(msg, op.String()+": ")
}

// loopPass is pass 4: stop-condition presence, carried-variable
// consistency (both ends exist, the input end is a body INPUT bridge,
// schemas match), and the constant-condition lint — a stop condition that
// does not depend on loop-carried state can never change across
// iterations, so the loop is either trivial or non-terminating.
func (a *analyzer) loopPass(d *ir.DAG) {
	for _, op := range d.Ops {
		if op.Type == ir.OpWhile {
			a.checkLoop(op)
		}
		if op.Params.Body != nil {
			a.loopPass(op.Params.Body)
		}
	}
}

func (a *analyzer) checkLoop(w *ir.Op) {
	body := w.Params.Body
	if body == nil {
		return // schema pass already reported the missing body
	}
	if w.Params.MaxIter <= 0 && w.Params.CondRel == "" {
		a.errf("loop", w, "WHILE without stop condition")
	}
	for _, inName := range slices.Sorted(maps.Keys(w.Params.Carried)) {
		outName := w.Params.Carried[inName]
		inOp, outOp := body.ByOut(inName), body.ByOut(outName)
		switch {
		case inOp == nil:
			a.errf("loop", w, "carried %q->%q: %q not in body", inName, outName, inName)
		case inOp.Type != ir.OpInput:
			a.errf("loop", w, "carried input %q must be a body INPUT bridge, not %s", inName, inOp.Type)
		}
		if outOp == nil {
			a.errf("loop", w, "carried %q->%q: %q not in body", inName, outName, outName)
		}
		if inOp != nil && outOp != nil {
			si, iok := a.schemas[inOp]
			so, ook := a.schemas[outOp]
			if iok && ook && !si.Equal(so) {
				a.errf("loop", w, "carried %q (%s) incompatible with %q (%s)", outName, so, inName, si)
			}
		}
	}
	if w.Params.CondRel == "" {
		return
	}
	condOp := body.ByOut(w.Params.CondRel)
	if condOp == nil {
		a.errf("loop", w, "stop-condition relation %q not in body", w.Params.CondRel)
		return
	}
	if w.Invariant()[condOp] {
		if w.Params.MaxIter > 0 {
			a.warnf("loop", w, "stop condition %q does not depend on loop-carried state; it is constant across iterations", w.Params.CondRel)
		} else {
			a.warnf("loop", w, "stop condition %q does not depend on loop-carried state and no iteration bound is set; the loop is trivially non-terminating unless %q starts empty", w.Params.CondRel, w.Params.CondRel)
		}
	}
}

// livenessPass is pass 3: operators whose output nothing uses. At the top
// level only unconsumed INPUTs are dead (unconsumed compute operators are
// the workflow's results); inside a WHILE body anything that is neither
// consumed, carried, the stop condition, nor the result is recomputed
// every iteration for nothing. Warnings only — dead code is wasteful, not
// wrong — and the optimizer's dead-input removal consumes the same facts.
func (a *analyzer) livenessPass(d *ir.DAG) {
	cons := d.Consumers()
	for _, op := range d.Ops {
		if op.Type == ir.OpInput && len(cons[op]) == 0 {
			a.warnf("liveness", op, "input relation %q is never read (dead operator)", op.Out)
		}
		if op.Params.Body != nil {
			a.bodyLiveness(op)
		}
	}
}

func (a *analyzer) bodyLiveness(w *ir.Op) {
	body := w.Params.Body
	kept := w.Kept()
	cons := body.Consumers()
	for _, op := range body.Ops {
		if op.Type == ir.OpInput {
			if len(cons[op]) == 0 {
				a.warnf("liveness", op, "body input %q is never read inside the loop", op.Out)
			}
			continue
		}
		if len(cons[op]) == 0 && !slices.Contains(kept, op.Out) {
			a.warnf("liveness", op, "dead loop-body operator: %q is recomputed every iteration but never used", op.Out)
		}
		if op.Params.Body != nil {
			a.bodyLiveness(op)
		}
	}
}

// enginePass is pass 5: every compute operator must be executable by at
// least one candidate engine as a job of its own (ValidOps), so that
// impossible mappings fail here with a per-operator diagnostic instead of
// deep inside the partition search as "no feasible partitioning".
func (a *analyzer) enginePass(d *ir.DAG, engs []*engines.Engine) {
	for _, op := range d.Ops {
		if op.Type == ir.OpInput {
			continue
		}
		var reasons []string
		supported := false
		for _, e := range engs {
			if err := e.ValidOps([]*ir.Op{op}); err == nil {
				supported = true
				break
			} else {
				reasons = append(reasons, err.Error())
			}
		}
		if !supported {
			a.errf("engines", op, "no candidate engine can execute this operator: %s", strings.Join(reasons, "; "))
		}
	}
}

// propertyPass is pass 6's lint side: operators whose work is provably
// redundant given the propagated uniqueness/sortedness facts. The cost
// estimator consumes the same facts to drop shuffle surcharges.
func (a *analyzer) propertyPass(d *ir.DAG, props map[*ir.Op]Props) {
	for _, op := range d.Ops {
		if len(op.Inputs) == 1 {
			p, ok := props[op.Inputs[0]]
			if ok {
				switch op.Type {
				case ir.OpDistinct:
					if p.RowsUnique {
						a.warnf("properties", op, "redundant DISTINCT: input %q rows are already unique", op.Inputs[0].Out)
					}
				case ir.OpSort:
					if SortCovered(p, op.Params.SortBy, op.Params.Desc) {
						a.warnf("properties", op, "redundant SORT: input %q is already sorted by (%s)", op.Inputs[0].Out, strings.Join(op.Params.SortBy, ", "))
					}
				}
			}
		}
		if op.Params.Body != nil {
			a.propertyPass(op.Params.Body, props)
		}
	}
}
