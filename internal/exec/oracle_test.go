package exec

import (
	"fmt"
	"sort"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// The oracle is a deliberately naive reference interpreter for all fifteen
// operator kinds: plain loops, nested-loop joins, map[string] keys, one
// relation materialized per operator, no arenas, no batches, no goroutines,
// no size accounting. It shares nothing with the interpreter it checks but
// the IR's schema inference, and it emits rows in the serial order the
// interpreter promises, so LIMIT after any operator stays comparable.

// oracleRun evaluates ops (topologically ordered) and returns every
// operator's output by name.
func oracleRun(ops []*ir.Op, env map[string]*relation.Relation) (map[string]*relation.Relation, error) {
	out := make(map[string]*relation.Relation, len(env)+len(ops))
	for name, rel := range env {
		out[name] = rel
	}
	for _, op := range ops {
		rel, err := oracleOp(op, out)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", op, err)
		}
		out[op.Out] = rel
	}
	return out, nil
}

func oracleOp(op *ir.Op, env map[string]*relation.Relation) (*relation.Relation, error) {
	if op.Type == ir.OpInput {
		if rel, ok := env[op.Out]; ok {
			return rel, nil
		}
		if rel, ok := env[op.Params.Path]; ok {
			return rel, nil
		}
		return nil, fmt.Errorf("unbound input")
	}
	if op.Type == ir.OpWhile {
		return oracleWhile(op, env)
	}
	var in []*relation.Relation
	schemas := map[*ir.Op]relation.Schema{}
	for _, producer := range op.Inputs {
		rel, ok := env[producer.Out]
		if !ok {
			return nil, fmt.Errorf("input %q missing", producer.Out)
		}
		in = append(in, rel)
		schemas[producer] = rel.Schema
	}
	sch, err := ir.OutputSchema(op, schemas)
	if err != nil {
		return nil, err
	}
	out := relation.New(op.Out, sch)
	p := op.Params
	switch op.Type {
	case ir.OpSelect:
		for _, row := range in[0].Rows {
			if oraclePred(p.Pred, in[0].Schema, row) {
				out.Rows = append(out.Rows, row)
			}
		}
	case ir.OpProject:
		for _, row := range in[0].Rows {
			var nr relation.Row
			for _, col := range p.Columns {
				nr = append(nr, row[in[0].Schema.Index(col)])
			}
			out.Rows = append(out.Rows, nr)
		}
	case ir.OpUnion:
		out.Rows = append(append(out.Rows, in[0].Rows...), in[1].Rows...)
	case ir.OpIntersect, ir.OpDifference, ir.OpDistinct:
		// Set semantics: a left row is emitted at its first appearance,
		// subject to membership in the right input.
		right := map[string]bool{}
		if op.Type != ir.OpDistinct {
			for _, row := range in[1].Rows {
				right[oracleKey(row)] = true
			}
		}
		seen := map[string]bool{}
		for _, row := range in[0].Rows {
			k := oracleKey(row)
			if seen[k] || op.Type == ir.OpIntersect && !right[k] || op.Type == ir.OpDifference && right[k] {
				continue
			}
			seen[k] = true
			out.Rows = append(out.Rows, row)
		}
	case ir.OpJoin:
		for _, l := range in[0].Rows {
			for _, r := range in[1].Rows {
				match := true
				for i := range p.LeftCols {
					lv := l[in[0].Schema.Index(p.LeftCols[i])]
					rv := r[in[1].Schema.Index(p.RightCols[i])]
					match = match && lv.String() == rv.String()
				}
				if !match {
					continue
				}
				nr := append(relation.Row(nil), l...)
				for j, c := range in[1].Schema.Cols {
					isKey := false
					for _, k := range p.RightCols {
						isKey = isKey || k == c.Name
					}
					if !isKey {
						nr = append(nr, r[j])
					}
				}
				out.Rows = append(out.Rows, nr)
			}
		}
	case ir.OpCrossJoin:
		for _, l := range in[0].Rows {
			for _, r := range in[1].Rows {
				out.Rows = append(out.Rows, append(append(relation.Row(nil), l...), r...))
			}
		}
	case ir.OpAgg:
		out.Rows = oracleAgg(p, in[0])
	case ir.OpArith:
		dst := in[0].Schema.Index(p.Dst)
		for _, row := range in[0].Rows {
			v := p.AOp.Apply(oracleOperand(p.ALeft, in[0].Schema, row), oracleOperand(p.ARght, in[0].Schema, row))
			nr := append(relation.Row(nil), row...)
			if dst >= 0 {
				nr[dst] = v
			} else {
				nr = append(nr, v)
			}
			out.Rows = append(out.Rows, nr)
		}
	case ir.OpSort:
		out.Rows = append(out.Rows, in[0].Rows...)
		sort.SliceStable(out.Rows, func(i, j int) bool {
			for _, col := range p.SortBy {
				k := in[0].Schema.Index(col)
				if c := out.Rows[i][k].Compare(out.Rows[j][k]); c != 0 {
					return c < 0 != p.Desc
				}
			}
			return false
		})
	case ir.OpLimit:
		for i := 0; i < p.Limit && i < len(in[0].Rows); i++ {
			out.Rows = append(out.Rows, in[0].Rows[i])
		}
	case ir.OpUDF:
		// The UDF body is the user's code, not the interpreter's.
		res, err := udfs[p.UDFName].Fn(in)
		if err != nil {
			return nil, err
		}
		out.Rows, out.Schema = res.Rows, res.Schema
	default:
		return nil, fmt.Errorf("unknown operator")
	}
	return out, nil
}

// oracleKey is a whole row's set-membership key: the length-prefixed text
// of every field.
func oracleKey(row relation.Row) string {
	k := ""
	for _, v := range row {
		k += fmt.Sprintf("%d:%s", len(v.String()), v.String())
	}
	return k
}

func oracleOperand(o ir.Operand, sch relation.Schema, row relation.Row) relation.Value {
	if !o.IsCol {
		return o.Lit
	}
	v := row[sch.Index(o.Col)]
	if o.Scale != 0 && o.Scale != 1 {
		v = relation.Float(v.AsFloat() * o.Scale)
	}
	return v
}

func oraclePred(p *ir.Pred, sch relation.Schema, row relation.Row) bool {
	switch {
	case p == nil:
		return true
	case p.Kind == ir.PredAnd:
		return oraclePred(p.Left, sch, row) && oraclePred(p.Right, sch, row)
	case p.Kind == ir.PredOr:
		return oraclePred(p.Left, sch, row) || oraclePred(p.Right, sch, row)
	}
	return p.Cmp.Eval(oracleOperand(p.LHS, sch, row).Compare(oracleOperand(p.RHS, sch, row)))
}

// oracleAgg groups rows by the text of their GROUP BY fields, in order of
// first appearance, and folds each group's column values one at a time.
func oracleAgg(p ir.Params, in *relation.Relation) []relation.Row {
	groups := map[string][]relation.Row{}
	var order []string
	for _, row := range in.Rows {
		var key relation.Row
		for _, g := range p.GroupBy {
			key = append(key, row[in.Schema.Index(g)])
		}
		k := oracleKey(key)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], row)
	}
	if len(in.Rows) == 0 && len(p.GroupBy) == 0 {
		order, groups = []string{""}, map[string][]relation.Row{"": nil}
	}
	var out []relation.Row
	for _, k := range order {
		rows := groups[k]
		var nr relation.Row
		for _, g := range p.GroupBy {
			nr = append(nr, rows[0][in.Schema.Index(g)])
		}
		for _, a := range p.Aggs {
			if a.Func == ir.AggCount {
				nr = append(nr, relation.Int(int64(len(rows))))
				continue
			}
			col := in.Schema.Index(a.Col)
			sum, lo, hi := 0.0, relation.Value{}, relation.Value{}
			for i, row := range rows {
				v := row[col]
				sum += v.AsFloat()
				if i == 0 || v.Compare(lo) < 0 {
					lo = v
				}
				if i == 0 || v.Compare(hi) > 0 {
					hi = v
				}
			}
			switch {
			case len(rows) == 0:
				nr = append(nr, relation.Float(0))
			case a.Func == ir.AggSum && in.Schema.Cols[col].Kind == relation.KindInt:
				nr = append(nr, relation.Int(int64(sum)))
			case a.Func == ir.AggSum:
				nr = append(nr, relation.Float(sum))
			case a.Func == ir.AggMin:
				nr = append(nr, lo)
			case a.Func == ir.AggMax:
				nr = append(nr, hi)
			default:
				nr = append(nr, relation.Float(sum/float64(len(rows))))
			}
		}
		out = append(out, nr)
	}
	return out
}

// oracleWhile re-evaluates the body from scratch each iteration, rebinding
// carried relations, until MaxIter or an empty condition relation.
func oracleWhile(op *ir.Op, env map[string]*relation.Relation) (*relation.Relation, error) {
	p := op.Params
	bodyOps, err := p.Body.TopoSort()
	if err != nil {
		return nil, err
	}
	scope := map[string]*relation.Relation{}
	for name, rel := range env {
		scope[name] = rel
	}
	var last map[string]*relation.Relation
	for iter := 0; p.MaxIter <= 0 || iter < p.MaxIter; iter++ {
		if last, err = oracleRun(bodyOps, scope); err != nil {
			return nil, err
		}
		for inName, outName := range p.Carried {
			scope[inName] = last[outName]
		}
		if p.CondRel != "" && len(last[p.CondRel].Rows) == 0 {
			break
		}
	}
	res := last[op.ResultRelation()]
	return &relation.Relation{Name: op.Out, Schema: res.Schema, Rows: res.Rows}, nil
}
