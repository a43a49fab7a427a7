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
// RunOps is one loop over execution units (fuse.go): a WHILE loop, an INPUT
// binding (run.go), or a pipeline of length ≥ 1 of any other operators. A
// pipeline's members are SELECT, PROJECT, ARITH, JOIN and CROSS JOIN pull
// stages (stream.go); a UNION may head it, scanning its two inputs end to
// end, and a table (AGG, or the distinct table of DISTINCT, INTERSECT and
// DIFFERENCE), SORT, LIMIT or UDF may end it, the last three finishing the
// rows the drain collected (this file). Pipelines stream through their
// interior members, metering them with taps, and every unit materializes
// exactly one relation; Trace.record (run.go) computes every operator's trace
// entry, from a tap or from the relation alike.
package exec

import (
	"fmt"
	"math"
	"slices"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// operand is an ir.Operand bound to the schema of the rows it reads: a column
// position and its scale (1 when unscaled), or the literal when col < 0.
type operand struct {
	col   int
	lit   relation.Value
	scale float64
}

func bindOperand(o ir.Operand, in relation.Schema) (operand, error) {
	if !o.IsCol {
		return operand{col: -1, lit: o.Lit}, nil
	}
	b := operand{col: in.Index(o.Col), scale: o.Scale}
	if b.col < 0 {
		return b, fmt.Errorf("unknown column %q in %s", o.Col, in)
	}
	if b.scale == 0 {
		b.scale = 1
	}
	return b, nil
}

// value is the operand's value at row i of b.
func (o *operand) value(b *relation.Batch, i int) relation.Value {
	switch {
	case o.col < 0:
		return o.lit
	case o.scale != 1:
		return relation.Float(b.Cols[o.col].AsFloat(i) * o.scale)
	}
	return b.Cols[o.col].Cell(i)
}

// isInt reports whether the operand is an int at every row of b.
func (o *operand) isInt(b *relation.Batch) bool {
	if o.col < 0 {
		return o.lit.Kind == relation.KindInt
	}
	return o.scale == 1 && b.Cols[o.col].Is(relation.KindInt)
}

// mixed reports whether the operand's kind varies over the rows of b.
func (o *operand) mixed(b *relation.Batch) bool {
	return o.col >= 0 && o.scale == 1 && b.Cols[o.col].Vals != nil
}

// ints returns the operand over b's rows when isInt holds: a column's vector,
// or a literal's value with nil.
func (o *operand) ints(b *relation.Batch) ([]int64, int64) {
	if o.col < 0 {
		return nil, o.lit.I
	}
	return b.Cols[o.col].Ints[:b.N], 0
}

// floats returns the AsFloat of the operand over b's rows: a float column's
// vector, one computed into buf, or a literal's value with nil.
func (o *operand) floats(b *relation.Batch, buf *relation.VecBuf) ([]float64, float64) {
	if o.col < 0 {
		return nil, o.lit.AsFloat()
	}
	v := &b.Cols[o.col]
	if o.scale == 1 && v.Is(relation.KindFloat) {
		return v.Floats[:b.N], 0
	}
	out, _ := buf.Floats(b.N)
	if v.Is(relation.KindInt) {
		for i, x := range v.Ints[:b.N] {
			out[i] = float64(x)
		}
	} else {
		for i := range out {
			out[i] = v.AsFloat(i)
		}
	}
	if o.scale != 1 {
		for i := range out {
			out[i] *= o.scale
		}
	}
	return out, 0
}

// arithSpec is a bound ARITH: column dst — an input column's place, or one
// past them — becomes l op r.
type arithSpec struct {
	op   ir.ArithOp
	l, r operand
	dst  int
}

func bindArith(p *ir.Params, in relation.Schema) (*arithSpec, error) {
	a := &arithSpec{op: p.AOp, dst: in.Index(p.Dst)}
	if a.dst < 0 {
		a.dst = in.Arity()
	}
	var err error
	if a.l, err = bindOperand(p.ALeft, in); err == nil {
		a.r, err = bindOperand(p.ARght, in)
	}
	return a, err
}

// compute returns l op r over b's rows as one vector in bufs[0], under
// exactly ir.ArithOp.Apply's kind and bit rules: ints when both operands are
// ints and op is not DIV, wrapping on overflow; else floats of their AsFloat,
// a DIV by zero giving 0. An operand whose kind varies over the batch is
// applied cell by cell.
func (a *arithSpec) compute(b *relation.Batch, bufs []relation.VecBuf) relation.Vec {
	n := b.N
	switch {
	case a.l.mixed(b) || a.r.mixed(b):
		out := bufs[0].Values(n)
		for i := range out {
			out[i] = a.op.Apply(a.l.value(b, i), a.r.value(b, i))
		}
		return relation.Vec{Vals: out}
	case a.op != ir.ArithDiv && a.l.isInt(b) && a.r.isInt(b):
		ls, lc := a.l.ints(b)
		rs, rc := a.r.ints(b)
		out, ws := bufs[0].Ints(n)
		clear(ws)
		for i := range out {
			x, y := lc, rc
			if ls != nil {
				x = ls[i]
			}
			if rs != nil {
				y = rs[i]
			}
			switch a.op {
			case ir.ArithAdd:
				out[i] = x + y
			case ir.ArithSub:
				out[i] = x - y
			default:
				out[i] = x * y
			}
		}
		return relation.Vec{Kind: relation.KindInt, Ints: out, Widths: ws}
	}
	ls, lc := a.l.floats(b, &bufs[1])
	rs, rc := a.r.floats(b, &bufs[2])
	out, ws := bufs[0].Floats(n)
	clear(ws)
	for i := range out {
		x, y := lc, rc
		if ls != nil {
			x = ls[i]
		}
		if rs != nil {
			y = rs[i]
		}
		switch a.op {
		case ir.ArithAdd:
			out[i] = x + y
		case ir.ArithSub:
			out[i] = x - y
		case ir.ArithMul:
			out[i] = x * y
		default:
			if y == 0 {
				out[i] = 0
			} else {
				out[i] = x / y
			}
		}
	}
	return relation.Vec{Kind: relation.KindFloat, Floats: out, Widths: ws}
}

// boundPred is an ir.Pred whose operands are bound; nil is true.
type boundPred struct {
	kind        ir.PredKind
	cmp         ir.CmpOp
	left, right *boundPred
	lhs, rhs    operand
}

func bindPred(p *ir.Pred, in relation.Schema) (*boundPred, error) {
	if p == nil {
		return nil, nil
	}
	b := &boundPred{kind: p.Kind, cmp: p.Cmp}
	var err error
	if p.Kind == ir.PredCmp {
		if b.lhs, err = bindOperand(p.LHS, in); err == nil {
			b.rhs, err = bindOperand(p.RHS, in)
		}
	} else if b.left, err = bindPred(p.Left, in); err == nil {
		b.right, err = bindPred(p.Right, in)
	}
	return b, err
}

// filter appends to sel the rows of b the predicate holds for.
func (p *boundPred) filter(b *relation.Batch, sel []int32) []int32 {
	for i := 0; i < b.N; i++ {
		if p.eval(b, i) {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

func (p *boundPred) eval(b *relation.Batch, i int) bool {
	switch {
	case p == nil:
		return true
	case p.kind == ir.PredAnd:
		return p.left.eval(b, i) && p.right.eval(b, i)
	case p.kind == ir.PredOr:
		return p.left.eval(b, i) || p.right.eval(b, i)
	}
	return p.cmp.Eval(p.lhs.value(b, i).Compare(p.rhs.value(b, i)))
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

// finish ends a pipeline whose last member needs every row before it emits
// one, given the rows the drain collected in out: SORT orders them in place,
// stably, LIMIT keeps the first n in range order, and a UDF is called with
// them and its other inputs, all bound, and its result becomes out.
func finish(sp *stagePlan, out *relation.Relation, env Env) error {
	op := sp.op
	switch op.Type {
	case ir.OpSort:
		sortRowsBy(out.Rows, sp.idx, op.Params.Desc)
	case ir.OpLimit:
		n := min(op.Params.Limit, len(out.Rows))
		clear(out.Rows[n:]) // the dropped rows are not kept alive
		out.Rows = out.Rows[:n:n]
	case ir.OpUDF:
		udf, ok := udfs[op.Params.UDFName]
		if !ok {
			return fmt.Errorf("exec: unregistered UDF %q", op.Params.UDFName)
		}
		args := []*relation.Relation{{Name: op.Inputs[0].Out, Schema: sp.inSch, Rows: out.Rows}}
		for _, in := range op.Inputs[1:] {
			args = append(args, env[in.Out])
		}
		res, err := udf.Fn(args)
		if err != nil {
			return fmt.Errorf("exec: UDF %q: %w", op.Params.UDFName, err)
		}
		if res == nil {
			return fmt.Errorf("exec: UDF %q returned no relation", op.Params.UDFName)
		}
		out.Rows, out.Schema = res.Rows, res.Schema
	}
	return nil
}

// sortRowsBy orders rows stably by the key columns, in place.
func sortRowsBy(rows []relation.Row, keyIdx []int, desc bool) {
	slices.SortStableFunc(rows, func(a, b relation.Row) int {
		for _, k := range keyIdx {
			if c := a[k].Compare(b[k]); c != 0 {
				if desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
}

// allCols lists the column positions of a row of the given arity.
func allCols(arity int) []int {
	cols := make([]int, arity)
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

// aggSpec is an aggregation resolved against its input: the group-by columns
// and what a group accumulates — a sum per SUM and AVG, in the order of aggs,
// and an extreme per MIN and MAX, kept in its output column (COUNT keeps
// nothing but the group's row count).
//
// DISTINCT is the aggregation grouped by every column with no aggregates, and
// INTERSECT and DIFFERENCE are DISTINCT over the left rows whose key filter
// holds (keepIn) or lacks: the key set of the right input. byRef keeps a
// group's first row itself instead of a copy, for rows that outlive the
// pipeline (see runChain).
type aggSpec struct {
	aggs   []ir.AggSpec
	gIdx   []int
	sums   []summand
	ext    []extreme
	filter *keySet
	keepIn bool
	byRef  bool
}

// summand is the input column a SUM or AVG adds up: as an int64, exactly,
// when it is an int column, else as a float.
type summand struct {
	col   int
	exact bool
}

// extreme is a MIN (sign -1) or MAX (sign +1) over input column col, kept in
// the table's output column cell (relation.Vec.Keep).
type extreme struct{ cell, col, sign int }

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
	for i, a := range sp.aggs {
		j, cell := in.Index(a.Col), len(sp.gIdx)+i
		switch {
		case a.Func == ir.AggCount:
		case j < 0:
			return sp, fmt.Errorf("exec: %s: unknown aggregation column %q", op, a.Col)
		case a.Func == ir.AggMin:
			sp.ext = append(sp.ext, extreme{cell: cell, col: j, sign: -1})
		case a.Func == ir.AggMax:
			sp.ext = append(sp.ext, extreme{cell: cell, col: j, sign: 1})
		default:
			sp.sums = append(sp.sums, summand{col: j, exact: in.Cols[j].Kind == relation.KindInt})
		}
	}
	return sp, nil
}

// emitAggRows hands a fully-accumulated aggregation table's groups to out as
// rows, in the table's first-appearance order, cut exactly sized from the
// table's columns (a distinct table's bound rows by reference), and releases
// the table. inRows is the number of input rows the table saw: an
// empty-group-by aggregation over an empty input still yields one row of
// zeros in SQL semantics, so AVG/COUNT pipelines stay total — each the zero of
// its declared kind in out's schema (a string MIN or MAX is ""). A distinct
// table, which aggregates nothing, emits no row for no input.
func emitAggRows(table *aggTable, inRows int, out *relation.Relation) {
	defer table.release()
	switch {
	case table.emitsZeroRow(inRows):
		out.Rows = []relation.Row{zeroRow(out.Schema)}
	case table.sp.byRef:
		out.Rows = slices.Clone(table.refs)
	default:
		b := table.batch()
		out.Rows = b.AppendRows(nil)
	}
}

// emitAggPart is emitAggRows for a table whose groups only a sink reads: it
// writes the table's columns into part, rows of schema sch, with no row built.
func emitAggPart(table *aggTable, inRows int, sch relation.Schema, part *relation.Part) {
	defer table.release()
	if table.emitsZeroRow(inRows) {
		part.Append([]relation.Row{zeroRow(sch)})
		return
	}
	b := table.batch()
	part.AppendBatch(&b)
}

// emitsZeroRow reports whether the table emits the one row of zeros: it
// aggregates with no GROUP BY, and saw no input row.
func (t *aggTable) emitsZeroRow(inRows int) bool {
	return inRows == 0 && len(t.sp.gIdx) == 0 && len(t.sp.aggs) > 0
}

// zeroRow is a row of the zero of every column's declared kind.
func zeroRow(sch relation.Schema) relation.Row {
	row := make(relation.Row, sch.Arity())
	for i := range row {
		switch sch.Cols[i].Kind {
		case relation.KindInt:
			row[i] = relation.Int(0)
		case relation.KindFloat:
			row[i] = relation.Float(0)
		default:
			row[i] = relation.Str("")
		}
	}
	return row
}

// batch returns the table's groups as a batch of the output's columns, once
// it has filled in the COUNT, SUM and AVG vectors: a count and an int column's
// SUM as ints, any other SUM and every AVG as floats.
func (t *aggTable) batch() relation.Batch {
	n, nk, ns := t.groups(), len(t.sp.gIdx), len(t.sp.sums)
	bufs := t.set.Bufs(len(t.cols))
	si := 0 // the next sum, in aggs order
	for i, a := range t.sp.aggs {
		c := nk + i
		switch a.Func {
		case ir.AggCount:
			out, ws := bufs[c].Ints(n)
			clear(ws)
			copy(out, t.counts)
			t.cols[c] = relation.Vec{Kind: relation.KindInt, Ints: out, Widths: ws}
		case ir.AggSum, ir.AggAvg:
			exact := t.sp.sums[si].exact
			if exact && a.Func == ir.AggSum {
				out, ws := bufs[c].Ints(n)
				clear(ws)
				for g := range out {
					out[g] = int64(t.sums[g*ns+si])
				}
				t.cols[c] = relation.Vec{Kind: relation.KindInt, Ints: out, Widths: ws}
			} else {
				out, ws := bufs[c].Floats(n)
				clear(ws)
				for g := range out {
					sum := t.sums[g*ns+si]
					f := math.Float64frombits(sum)
					if exact {
						f = float64(int64(sum))
					}
					if a.Func == ir.AggAvg {
						f /= float64(t.counts[g])
					}
					out[g] = f
				}
				t.cols[c] = relation.Vec{Kind: relation.KindFloat, Floats: out, Widths: ws}
			}
			si++
		}
	}
	return relation.Batch{N: n, Cols: t.cols}
}
