package ir

import (
	"fmt"

	"musketeer/internal/relation"
)

// AddInput adds a source operator reading path with the declared schema.
// The output relation name defaults to the path when out is empty.
func (d *DAG) AddInput(out, path string, schema relation.Schema) *Op {
	if out == "" {
		out = path
	}
	return d.Add(OpInput, out, Params{Path: path, Schema: schema})
}

// UDFSchemaFn computes a UDF's output schema from its input schemas.
type UDFSchemaFn func(inputs []relation.Schema) (relation.Schema, error)

// udfSchemas is the registry of schema transforms for UDF operators;
// the execution registry lives in internal/exec.
var udfSchemas = map[string]UDFSchemaFn{}

// RegisterUDFSchema declares the schema transform of a named UDF.
// Re-registration replaces the previous entry (tests rely on this).
func RegisterUDFSchema(name string, fn UDFSchemaFn) {
	udfSchemas[name] = fn
}

// InferSchemas computes the output schema of every operator, validating
// column references along the way. WHILE bodies are validated recursively:
// each body input takes the schema of the outer relation it binds (see
// BoundInput).
func (d *DAG) InferSchemas() (map[*Op]relation.Schema, error) {
	d.inferMu.Lock()
	defer d.inferMu.Unlock()
	return d.inferLocked()
}

func (d *DAG) inferLocked() (map[*Op]relation.Schema, error) {
	ops, err := d.TopoSort()
	if err != nil {
		return nil, err
	}
	out := make(map[*Op]relation.Schema, len(ops))
	for _, op := range ops {
		s, err := inferOp(op, out)
		if err != nil {
			return nil, err
		}
		out[op] = s
	}
	return out, nil
}

// inferBody binds the schema of each outer relation onto the body INPUT
// that BoundInput binds to it and infers the WHILE's body, all under the
// body DAG's lock — the binding mutates shared ops, and concurrent jobs of
// one workflow may infer over the same body.
func (o *Op) inferBody(known map[*Op]relation.Schema) (map[*Op]relation.Schema, error) {
	d := o.Params.Body
	d.inferMu.Lock()
	defer d.inferMu.Unlock()
	for _, bop := range d.Ops {
		if bop.Type != OpInput {
			continue
		}
		src := o.BoundInput(bop)
		if src == nil {
			return nil, fmt.Errorf("ir: %s: body input %q is not bound by the WHILE", bop, bop.Out)
		}
		bop.Params.Schema = known[src]
	}
	return d.inferLocked()
}

// OutputSchema returns the schema of a single operator given the inferred
// schemas of its inputs (convenience for code generators).
func OutputSchema(op *Op, schemas map[*Op]relation.Schema) (relation.Schema, error) {
	return inferOp(op, schemas)
}

func inferOp(op *Op, known map[*Op]relation.Schema) (relation.Schema, error) {
	in := make([]relation.Schema, len(op.Inputs))
	for i, input := range op.Inputs {
		s, ok := known[input]
		if !ok {
			return relation.Schema{}, fmt.Errorf("ir: %s: input %s has no inferred schema", op, input)
		}
		in[i] = s
	}
	switch op.Type {
	case OpInput:
		if op.Params.Schema.Arity() == 0 {
			return relation.Schema{}, fmt.Errorf("ir: %s: input without schema", op)
		}
		return op.Params.Schema, nil

	case OpSelect:
		if err := wantInputs(op, in, 1); err != nil {
			return relation.Schema{}, err
		}
		for _, col := range op.Params.Pred.Columns(nil) {
			if in[0].Index(col) < 0 {
				return relation.Schema{}, fmt.Errorf("ir: %s: predicate references unknown column %q in %s", op, col, in[0])
			}
		}
		return in[0], nil

	case OpProject:
		if err := wantInputs(op, in, 1); err != nil {
			return relation.Schema{}, err
		}
		idx := make([]int, len(op.Params.Columns))
		for i, col := range op.Params.Columns {
			j := in[0].Index(col)
			if j < 0 {
				return relation.Schema{}, fmt.Errorf("ir: %s: unknown column %q in %s", op, col, in[0])
			}
			idx[i] = j
		}
		out := in[0].Project(idx)
		if len(op.Params.As) > 0 {
			if len(op.Params.As) != len(op.Params.Columns) {
				return relation.Schema{}, fmt.Errorf("ir: %s: %d AS names for %d columns", op, len(op.Params.As), len(op.Params.Columns))
			}
			for i, name := range op.Params.As {
				out.Cols[i].Name = name
			}
		}
		return out, nil

	case OpUnion, OpIntersect, OpDifference:
		if err := wantInputs(op, in, 2); err != nil {
			return relation.Schema{}, err
		}
		if in[0].Arity() != in[1].Arity() {
			return relation.Schema{}, fmt.Errorf("ir: %s: arity mismatch %d vs %d", op, in[0].Arity(), in[1].Arity())
		}
		for i := range in[0].Cols {
			if in[0].Cols[i].Kind != in[1].Cols[i].Kind {
				return relation.Schema{}, fmt.Errorf("ir: %s: column %d kind mismatch", op, i)
			}
		}
		return in[0], nil

	case OpJoin:
		if err := wantInputs(op, in, 2); err != nil {
			return relation.Schema{}, err
		}
		if len(op.Params.LeftCols) == 0 || len(op.Params.LeftCols) != len(op.Params.RightCols) {
			return relation.Schema{}, fmt.Errorf("ir: %s: bad join keys %v / %v", op, op.Params.LeftCols, op.Params.RightCols)
		}
		rightKeep := make([]int, 0, in[1].Arity())
		for i := range in[1].Cols {
			if !contains(op.Params.RightCols, in[1].Cols[i].Name) {
				rightKeep = append(rightKeep, i)
			}
		}
		for _, c := range op.Params.LeftCols {
			if in[0].Index(c) < 0 {
				return relation.Schema{}, fmt.Errorf("ir: %s: unknown left key %q in %s", op, c, in[0])
			}
		}
		for _, c := range op.Params.RightCols {
			if in[1].Index(c) < 0 {
				return relation.Schema{}, fmt.Errorf("ir: %s: unknown right key %q in %s", op, c, in[1])
			}
		}
		return in[0].Concat(in[1].Project(rightKeep)), nil

	case OpCrossJoin:
		if err := wantInputs(op, in, 2); err != nil {
			return relation.Schema{}, err
		}
		return in[0].Concat(in[1]), nil

	case OpAgg:
		if err := wantInputs(op, in, 1); err != nil {
			return relation.Schema{}, err
		}
		out := relation.Schema{}
		for _, g := range op.Params.GroupBy {
			j := in[0].Index(g)
			if j < 0 {
				return relation.Schema{}, fmt.Errorf("ir: %s: unknown group-by column %q", op, g)
			}
			out.Cols = append(out.Cols, in[0].Cols[j])
		}
		if len(op.Params.Aggs) == 0 {
			return relation.Schema{}, fmt.Errorf("ir: %s: AGG without aggregators", op)
		}
		for _, a := range op.Params.Aggs {
			kind := relation.KindFloat
			switch a.Func {
			case AggCount:
				kind = relation.KindInt
			case AggSum, AggMin, AggMax:
				j := in[0].Index(a.Col)
				if j < 0 {
					return relation.Schema{}, fmt.Errorf("ir: %s: unknown agg column %q", op, a.Col)
				}
				kind = in[0].Cols[j].Kind
				if kind == relation.KindString && a.Func == AggSum {
					return relation.Schema{}, fmt.Errorf("ir: %s: SUM over string column %q", op, a.Col)
				}
			case AggAvg:
				if in[0].Index(a.Col) < 0 {
					return relation.Schema{}, fmt.Errorf("ir: %s: unknown agg column %q", op, a.Col)
				}
			}
			name := a.As
			if name == "" {
				return relation.Schema{}, fmt.Errorf("ir: %s: aggregator missing AS name", op)
			}
			out.Cols = append(out.Cols, relation.Column{Name: name, Kind: kind})
		}
		return out, nil

	case OpArith:
		if err := wantInputs(op, in, 1); err != nil {
			return relation.Schema{}, err
		}
		for _, operand := range []Operand{op.Params.ALeft, op.Params.ARght} {
			if operand.IsCol && in[0].Index(operand.Col) < 0 {
				return relation.Schema{}, fmt.Errorf("ir: %s: unknown operand column %q", op, operand.Col)
			}
		}
		if op.Params.Dst == "" {
			return relation.Schema{}, fmt.Errorf("ir: %s: ARITH without destination column", op)
		}
		if in[0].Index(op.Params.Dst) >= 0 {
			// In-place update: schema unchanged except a DIV result
			// becomes float.
			out := relation.Schema{Cols: append([]relation.Column(nil), in[0].Cols...)}
			if op.Params.AOp == ArithDiv {
				out.Cols[out.Index(op.Params.Dst)].Kind = relation.KindFloat
			}
			return out, nil
		}
		kind := relation.KindFloat
		if op.Params.AOp != ArithDiv && op.Params.ALeft.IsCol && op.Params.ARght.IsCol {
			lk := in[0].Cols[in[0].Index(op.Params.ALeft.Col)].Kind
			rk := in[0].Cols[in[0].Index(op.Params.ARght.Col)].Kind
			if lk == relation.KindInt && rk == relation.KindInt {
				kind = relation.KindInt
			}
		}
		out := relation.Schema{Cols: append([]relation.Column(nil), in[0].Cols...)}
		out.Cols = append(out.Cols, relation.Column{Name: op.Params.Dst, Kind: kind})
		return out, nil

	case OpDistinct:
		if err := wantInputs(op, in, 1); err != nil {
			return relation.Schema{}, err
		}
		return in[0], nil

	case OpSort:
		if err := wantInputs(op, in, 1); err != nil {
			return relation.Schema{}, err
		}
		if len(op.Params.SortBy) == 0 {
			return relation.Schema{}, fmt.Errorf("ir: %s: SORT without key columns", op)
		}
		for _, c := range op.Params.SortBy {
			if in[0].Index(c) < 0 {
				return relation.Schema{}, fmt.Errorf("ir: %s: unknown sort column %q", op, c)
			}
		}
		return in[0], nil

	case OpLimit:
		if err := wantInputs(op, in, 1); err != nil {
			return relation.Schema{}, err
		}
		if op.Params.Limit <= 0 {
			return relation.Schema{}, fmt.Errorf("ir: %s: LIMIT must be positive", op)
		}
		return in[0], nil

	case OpUDF:
		fn, ok := udfSchemas[op.Params.UDFName]
		if !ok {
			return relation.Schema{}, fmt.Errorf("ir: %s: unregistered UDF %q", op, op.Params.UDFName)
		}
		return fn(in)

	case OpWhile:
		if op.Params.Body == nil {
			return relation.Schema{}, fmt.Errorf("ir: %s: WHILE without body", op)
		}
		if op.Params.MaxIter <= 0 && op.Params.CondRel == "" {
			return relation.Schema{}, fmt.Errorf("ir: %s: WHILE without stop condition", op)
		}
		// Body inputs adopt the schemas of the outer relations they bind.
		body := op.Params.Body
		bodySchemas, err := op.inferBody(known)
		if err != nil {
			return relation.Schema{}, fmt.Errorf("ir: %s body: %w", op, err)
		}
		// Surface body schemas to the caller's map so code generators see
		// types for loop-body operators too.
		for bop, s := range bodySchemas {
			known[bop] = s
		}
		// Loop-carried outputs must be schema-compatible with their
		// corresponding inputs.
		for inName, outName := range op.Params.Carried {
			inOp, outOp := body.ByOut(inName), body.ByOut(outName)
			if inOp == nil || outOp == nil {
				return relation.Schema{}, fmt.Errorf("ir: %s: carried %q->%q not in body", op, inName, outName)
			}
			if !bodySchemas[inOp].Equal(bodySchemas[outOp]) {
				return relation.Schema{}, fmt.Errorf("ir: %s: carried %q (%s) incompatible with %q (%s)",
					op, outName, bodySchemas[outOp], inName, bodySchemas[inOp])
			}
		}
		// The WHILE's own output is the final value of the designated
		// result relation: the first carried output, or the body's sole
		// sink when no carry is declared.
		res := op.ResultRelation()
		resOp := body.ByOut(res)
		if resOp == nil {
			return relation.Schema{}, fmt.Errorf("ir: %s: result relation %q not in body", op, res)
		}
		return bodySchemas[resOp], nil

	default:
		return relation.Schema{}, fmt.Errorf("ir: %s: unknown operator type", op)
	}
}

func wantInputs(op *Op, in []relation.Schema, n int) error {
	if len(in) != n {
		return fmt.Errorf("ir: %s: want %d inputs, have %d", op, n, len(in))
	}
	return nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
