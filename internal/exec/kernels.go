// Package exec implements the operator semantics of the Musketeer IR: one
// implementation per operator, the unit interpreter that runs an operator
// list, and the dynamic WHILE-loop driver.
//
// Every back-end engine executes its generated jobs through this package,
// so a single source of truth defines what each operator computes; the
// engines differ in *how* work is split into jobs, what gets materialized
// where, and what the simulated execution costs. This mirrors the paper's
// property that all back-ends implement the same operator set and lets the
// test suite assert cross-engine result equality.
//
// RunOps is one loop over execution units (fuse.go): a pipeline of
// SELECT/PROJECT/ARITH/JOIN-probe/AGG pull stages (stream.go) of length ≥ 1,
// a breaker kernel (this file: the set operators, CROSS JOIN, DISTINCT,
// SORT, LIMIT, UDF), a WHILE loop, or an INPUT binding (run.go). Pipelines
// stream through their interior members, metering them with taps, and every
// unit materializes exactly one relation; Trace.record (run.go) computes
// every operator's trace entry, from a tap or from the relation alike.
package exec

import (
	"fmt"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// EvalPred evaluates a predicate against a row.
func EvalPred(p *ir.Pred, schema relation.Schema, row relation.Row) (bool, error) {
	if p == nil {
		return true, nil
	}
	switch p.Kind {
	case ir.PredAnd:
		l, err := EvalPred(p.Left, schema, row)
		if err != nil || !l {
			return false, err
		}
		return EvalPred(p.Right, schema, row)
	case ir.PredOr:
		l, err := EvalPred(p.Left, schema, row)
		if err != nil || l {
			return l, err
		}
		return EvalPred(p.Right, schema, row)
	default:
		lhs, err := operandValue(p.LHS, schema, row)
		if err != nil {
			return false, err
		}
		rhs, err := operandValue(p.RHS, schema, row)
		if err != nil {
			return false, err
		}
		return p.Cmp.Eval(lhs.Compare(rhs)), nil
	}
}

func operandValue(o ir.Operand, schema relation.Schema, row relation.Row) (relation.Value, error) {
	if !o.IsCol {
		return o.Lit, nil
	}
	i := schema.Index(o.Col)
	if i < 0 {
		return relation.Value{}, fmt.Errorf("exec: unknown column %q in %s", o.Col, schema)
	}
	v := row[i]
	if o.Scale != 0 && o.Scale != 1 {
		v = relation.Float(v.AsFloat() * o.Scale)
	}
	return v, nil
}

// EvalOp executes a single operator on its input relations, as the one-unit
// run it is. The output relation is named op.Out and inherits a logical size
// scaled by the dominant input's scale ratio (see Trace.record).
func EvalOp(op *ir.Op, inputs []*relation.Relation) (*relation.Relation, error) {
	env := make(Env, len(inputs))
	for i, in := range op.Inputs {
		if i < len(inputs) {
			env[in.Out] = inputs[i]
		}
	}
	return runUnit([]*ir.Op{op}, env, nil, RunOptions{})
}

// evalBreaker runs a pipeline breaker — an operator that needs its whole
// input (or both inputs) before it can emit — as a materialized kernel.
func evalBreaker(op *ir.Op, env Env, trace *Trace) (*relation.Relation, error) {
	inputs := make([]*relation.Relation, len(op.Inputs))
	ins := make([]volume, len(op.Inputs))
	schemas := make(map[*ir.Op]relation.Schema, len(op.Inputs))
	for i, in := range op.Inputs {
		rel, ok := env[in.Out]
		if !ok {
			return nil, fmt.Errorf("exec: %s: input relation %q not materialized", op, in.Out)
		}
		inputs[i], ins[i], schemas[in] = rel, trace.volumeOf(rel), rel.Schema
	}
	outSchema, err := ir.OutputSchema(op, schemas)
	if err != nil {
		return nil, err
	}
	out := relation.New(op.Out, outSchema)

	switch op.Type {
	case ir.OpUnion:
		out.Rows = make([]relation.Row, 0, len(inputs[0].Rows)+len(inputs[1].Rows))
		out.Rows = append(out.Rows, inputs[0].Rows...)
		out.Rows = append(out.Rows, inputs[1].Rows...)

	case ir.OpIntersect:
		rcols := allCols(inputs[1])
		right := newKeySet(len(inputs[1].Rows))
		for _, row := range inputs[1].Rows {
			right.add(row, rcols)
		}
		cols := allCols(inputs[0])
		seen := newKeySet(len(inputs[1].Rows))
		for _, row := range inputs[0].Rows {
			if right.contains(row, cols) && seen.add(row, cols) {
				out.Rows = append(out.Rows, row)
			}
		}

	case ir.OpDifference:
		rcols := allCols(inputs[1])
		right := newKeySet(len(inputs[1].Rows))
		for _, row := range inputs[1].Rows {
			right.add(row, rcols)
		}
		cols := allCols(inputs[0])
		seen := newKeySet(len(inputs[0].Rows))
		for _, row := range inputs[0].Rows {
			if !right.contains(row, cols) && seen.add(row, cols) {
				out.Rows = append(out.Rows, row)
			}
		}

	case ir.OpCrossJoin:
		l, r := inputs[0], inputs[1]
		out.Rows = make([]relation.Row, 0, len(l.Rows)*len(r.Rows))
		arity := outSchema.Arity()
		vals := make([]relation.Value, cap(out.Rows)*arity)
		for _, lr := range l.Rows {
			for _, rr := range r.Rows {
				nr := relation.Row(vals[:arity:arity])
				vals = vals[arity:]
				copy(nr[copy(nr, lr):], rr)
				out.Rows = append(out.Rows, nr)
			}
		}

	case ir.OpDistinct:
		seen := newKeySet(len(inputs[0].Rows))
		cols := allCols(inputs[0])
		for _, row := range inputs[0].Rows {
			if seen.add(row, cols) {
				out.Rows = append(out.Rows, row)
			}
		}

	case ir.OpSort:
		idx := make([]int, len(op.Params.SortBy))
		for i, c := range op.Params.SortBy {
			idx[i] = inputs[0].Schema.Index(c)
		}
		out.Rows = sortRowsBy(inputs[0].Rows, idx, op.Params.Desc)

	case ir.OpLimit:
		n := op.Params.Limit
		if n > len(inputs[0].Rows) {
			n = len(inputs[0].Rows)
		}
		out.Rows = append(out.Rows, inputs[0].Rows[:n]...)

	case ir.OpUDF:
		udf, ok := udfs[op.Params.UDFName]
		if !ok {
			return nil, fmt.Errorf("exec: unregistered UDF %q", op.Params.UDFName)
		}
		res, err := udf.Fn(inputs)
		if err != nil {
			return nil, fmt.Errorf("exec: UDF %q: %w", op.Params.UDFName, err)
		}
		if res == nil {
			return nil, fmt.Errorf("exec: UDF %q returned no relation", op.Params.UDFName)
		}
		out.Rows = res.Rows
		out.Schema = res.Schema

	default:
		return nil, fmt.Errorf("exec: unknown operator %s", op)
	}

	// Only CROSS JOIN emits rows in storage it allocates itself; the other
	// breakers pass their inputs' rows through by reference, and a UDF's are
	// of unknown provenance.
	trace.recordOutput(op, ins, out, op.Type == ir.OpCrossJoin)
	return out, nil
}

func allCols(r *relation.Relation) []int {
	cols := make([]int, r.Schema.Arity())
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// joinSpec is a join's resolved column indexes: probe keys, build keys, and
// the build-side columns the output keeps.
type joinSpec struct {
	lIdx, rIdx, rKeep []int
}

func resolveJoinSpec(op *ir.Op, l, r relation.Schema) (joinSpec, error) {
	var js joinSpec
	js.lIdx = make([]int, len(op.Params.LeftCols))
	for i, c := range op.Params.LeftCols {
		j := l.Index(c)
		if j < 0 {
			return js, fmt.Errorf("exec: %s: unknown left key %q", op, c)
		}
		js.lIdx[i] = j
	}
	js.rIdx = make([]int, len(op.Params.RightCols))
	rKeyCol := make(map[int]bool)
	for i, c := range op.Params.RightCols {
		j := r.Index(c)
		if j < 0 {
			return js, fmt.Errorf("exec: %s: unknown right key %q", op, c)
		}
		js.rIdx[i] = j
		rKeyCol[j] = true
	}
	js.rKeep = make([]int, 0, r.Arity())
	for i := 0; i < r.Arity(); i++ {
		if !rKeyCol[i] {
			js.rKeep = append(js.rKeep, i)
		}
	}
	return js, nil
}

// aggSpec is an aggregation's resolved column indexes: group-by columns and
// one aggregated column per AggSpec (-1 for COUNT, which keeps no cell).
// cIdx is aIdx's counterpart for folding one table's cells into another's:
// the cell's own position, or -1.
type aggSpec struct {
	aggs             []ir.AggSpec
	gIdx, aIdx, cIdx []int
}

func resolveAggSpec(op *ir.Op, in relation.Schema) (aggSpec, error) {
	sp := aggSpec{aggs: op.Params.Aggs}
	sp.gIdx = make([]int, len(op.Params.GroupBy))
	for i, c := range op.Params.GroupBy {
		j := in.Index(c)
		if j < 0 {
			return sp, fmt.Errorf("exec: %s: unknown group-by column %q", op, c)
		}
		sp.gIdx[i] = j
	}
	sp.aIdx = make([]int, len(sp.aggs))
	sp.cIdx = make([]int, len(sp.aggs))
	for i, a := range sp.aggs {
		if a.Func == ir.AggCount {
			sp.aIdx[i], sp.cIdx[i] = -1, -1
			continue
		}
		j := in.Index(a.Col)
		if j < 0 {
			return sp, fmt.Errorf("exec: %s: unknown aggregation column %q", op, a.Col)
		}
		sp.aIdx[i], sp.cIdx[i] = j, i
	}
	return sp, nil
}

// emitAggRows renders a fully-accumulated aggregation table into out, in
// the table's first-appearance order. inRows is the number of input rows the
// table saw: an empty-group-by aggregation over an empty input still yields
// one row of zeros/identities in SQL semantics, so AVG/COUNT pipelines stay
// total.
func emitAggRows(in relation.Schema, table *aggTable, inRows int, out *relation.Relation) {
	sp := table.sp
	if inRows == 0 && len(sp.gIdx) == 0 {
		row := make(relation.Row, len(sp.aggs))
		for i, a := range sp.aggs {
			if a.Func == ir.AggCount {
				row[i] = relation.Int(0)
			} else {
				row[i] = relation.Float(0)
			}
		}
		out.Rows = append(out.Rows, row)
		return
	}
	nk, arity := len(sp.gIdx), len(sp.gIdx)+len(sp.aggs)
	out.Rows = make([]relation.Row, len(table.states))
	vals := make([]relation.Value, len(table.states)*arity)
	for g := range table.states {
		st := &table.states[g]
		row := relation.Row(vals[:arity:arity])
		vals = vals[arity:]
		copy(row, st.key)
		for i, a := range sp.aggs {
			v := relation.Int(st.n)
			switch a.Func {
			case ir.AggSum:
				v = st.cells[i]
				// Keep integer sums integral.
				if in.Cols[sp.aIdx[i]].Kind == relation.KindInt {
					v = relation.Int(int64(v.AsFloat()))
				}
			case ir.AggMin, ir.AggMax:
				v = st.cells[i]
			case ir.AggAvg:
				v = relation.Float(st.cells[i].AsFloat() / float64(st.n))
			}
			row[nk+i] = v
		}
		out.Rows[g] = row
	}
}
