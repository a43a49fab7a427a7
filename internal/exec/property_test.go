package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// The single-path property: a random DAG of up to eight operators computes
// the same relations — as multisets — under the naive oracle and under the
// interpreter however its pipelines are cut (every operator kept, or only
// the sinks), batched (1–3 rows) and chunked (ParallelThreshold = 1), and
// the interpreter's trace is bit-identical across all of its configurations.

func init() {
	// everyOther keeps rows 0, 2, 4, …: a pure function of its input's order.
	RegisterUDF("every_other", UDF{
		Fn: func(in []*relation.Relation) (*relation.Relation, error) {
			out := relation.New("", in[0].Schema)
			for i := 0; i < len(in[0].Rows); i += 2 {
				out.Rows = append(out.Rows, in[0].Rows[i])
			}
			return out, nil
		},
		OutSchema: func(in []relation.Schema) (relation.Schema, error) { return in[0], nil },
	})
}

// dagGen grows a random DAG one operator at a time, evaluating it with the
// oracle as it goes so choices can depend on the data (product sizes, loop
// bounds).
type dagGen struct {
	r    *rand.Rand
	d    *ir.DAG
	ops  []*ir.Op // relations available as inputs
	vals map[string]*relation.Relation
	n    int
}

func (g *dagGen) pick() *ir.Op { return g.ops[g.r.Intn(len(g.ops))] }

func (g *dagGen) name() string { g.n++; return fmt.Sprintf("r%d", g.n) }

// cols lists the columns of rel's schema having one of the wanted kinds.
func cols(sch relation.Schema, kinds ...relation.Kind) []string {
	var out []string
	for _, c := range sch.Cols {
		for _, k := range kinds {
			if c.Kind == k {
				out = append(out, c.Name)
			}
		}
	}
	return out
}

func (g *dagGen) oneOf(xs []string) string { return xs[g.r.Intn(len(xs))] }

// disjoint reports whether two schemas share no column name (joins would
// otherwise emit ambiguous columns).
func disjoint(a, b relation.Schema, except string) bool {
	for _, c := range b.Cols {
		if c.Name != except && a.Index(c.Name) >= 0 {
			return false
		}
	}
	return true
}

// step tries to add one random operator; it reports false when the drawn
// kind has no valid operands among the available relations.
func (g *dagGen) step() bool {
	in := g.pick()
	sch := g.vals[in.Out].Schema
	ints, nums := cols(sch, relation.KindInt), cols(sch, relation.KindInt, relation.KindFloat)
	var all []string
	for _, c := range sch.Cols {
		all = append(all, c.Name)
	}
	var op *ir.Op
	switch kind := g.r.Intn(14); kind {
	case 0:
		if len(ints) == 0 {
			return false
		}
		p := pred(g.oneOf(ints), ir.CmpOp(g.r.Intn(6)), int64(g.r.Intn(12)))
		if g.r.Intn(3) == 0 {
			p = ir.Or(p, pred(g.oneOf(ints), ir.CmpGt, int64(g.r.Intn(30))))
		}
		op = g.d.Add(ir.OpSelect, g.name(), ir.Params{Pred: p}, in)
	case 1:
		keep := all[g.r.Intn(len(all)):]
		op = g.d.Add(ir.OpProject, g.name(), ir.Params{Columns: keep}, in)
	case 2:
		// Integer arithmetic in place or into a new column: sums stay exact
		// whatever order chunks merge in.
		if len(ints) == 0 {
			return false
		}
		dst := g.oneOf(ints)
		if g.r.Intn(2) == 0 {
			dst = "c" + g.name()
		}
		rhs := ir.LitOp(relation.Int(int64(1 + g.r.Intn(3))))
		if g.r.Intn(3) == 0 {
			rhs = ir.ColRef(g.oneOf(ints))
		}
		op = g.d.Add(ir.OpArith, g.name(), ir.Params{Dst: dst, ALeft: ir.ColRef(g.oneOf(ints)), ARght: rhs, AOp: ir.ArithOp(g.r.Intn(3))}, in)
	case 3:
		// Halving a float column (new float column): dyadic values keep
		// float sums exact too.
		fl := cols(sch, relation.KindFloat)
		if len(fl) == 0 {
			return false
		}
		op = g.d.Add(ir.OpArith, g.name(), ir.Params{Dst: "c" + g.name(), ALeft: ir.ColRef(g.oneOf(fl)), ARght: ir.LitOp(relation.Float(2)), AOp: ir.ArithDiv}, in)
	case 4:
		if len(nums) == 0 {
			return false
		}
		var by []string
		for _, c := range all {
			if g.r.Intn(3) == 0 && len(by) < 2 {
				by = append(by, c)
			}
		}
		funcs := []ir.AggFunc{ir.AggSum, ir.AggCount, ir.AggMin, ir.AggMax, ir.AggAvg}
		var aggs []ir.AggSpec
		for i := 0; i <= g.r.Intn(2); i++ {
			aggs = append(aggs, ir.AggSpec{Func: funcs[g.r.Intn(len(funcs))], Col: g.oneOf(nums), As: "a" + g.name()})
		}
		op = g.d.Add(ir.OpAgg, g.name(), ir.Params{GroupBy: by, Aggs: aggs}, in)
	case 5, 6:
		other := g.pick()
		osch := g.vals[other.Out].Schema
		oints := cols(osch, relation.KindInt)
		if len(ints) == 0 || len(oints) == 0 {
			return false
		}
		lk, rk := g.oneOf(ints), g.oneOf(oints)
		if kind == 5 {
			if !disjoint(sch, osch, rk) {
				return false
			}
			op = g.d.Add(ir.OpJoin, g.name(), ir.Params{LeftCols: []string{lk}, RightCols: []string{rk}}, in, other)
		} else {
			if !disjoint(sch, osch, "") || len(g.vals[in.Out].Rows)*len(g.vals[other.Out].Rows) > 300 {
				return false
			}
			op = g.d.Add(ir.OpCrossJoin, g.name(), ir.Params{}, in, other)
		}
	case 7:
		other := g.pick()
		if !sch.Equal(g.vals[other.Out].Schema) {
			return false
		}
		op = g.d.Add([]ir.OpType{ir.OpUnion, ir.OpIntersect, ir.OpDifference}[g.r.Intn(3)], g.name(), ir.Params{}, in, other)
	case 8:
		op = g.d.Add(ir.OpDistinct, g.name(), ir.Params{}, in)
	case 9:
		op = g.d.Add(ir.OpSort, g.name(), ir.Params{SortBy: []string{g.oneOf(all)}, Desc: g.r.Intn(2) == 0}, in)
	case 10:
		op = g.d.Add(ir.OpLimit, g.name(), ir.Params{Limit: 1 + g.r.Intn(6)}, in)
	case 11:
		op = g.d.Add(ir.OpUDF, g.name(), ir.Params{UDFName: "every_other"}, in)
	default:
		// WHILE: bump an int column each iteration, either a fixed number of
		// times or until no row is left under a bound the data reaches soon.
		// A fixed loop may also join each iteration: against an outer
		// relation (a loop-invariant build side) or with the carried relation
		// as the build side, which changes every iteration.
		if len(ints) == 0 {
			return false
		}
		col := g.oneOf(ints)
		body := ir.NewDAG()
		bin := body.AddInput(in.Out, "loop/"+in.Out, sch)
		bump := func(rel *ir.Op) *ir.Op {
			return body.Add(ir.OpArith, g.name(), ir.Params{Dst: col, ALeft: ir.ColRef(col), ARght: ir.LitOp(relation.Int(1)), AOp: ir.ArithAdd}, rel)
		}
		inputs := []*ir.Op{in}
		var next *ir.Op
		// 0: no join; 1: an outer build side; 2: the carried one.
		if join := g.r.Intn(3); join == 0 {
			next = bump(bin)
		} else {
			other := g.pick()
			osch := g.vals[other.Out].Schema
			oints := cols(osch, relation.KindInt)
			if other == in || len(oints) == 0 {
				return false
			}
			lk, rk := g.oneOf(ints), g.oneOf(oints)
			// Every iteration may multiply the rows by the build side's
			// largest run of one key: bound what three iterations can reach.
			runs, fan, rc := map[int64]int{}, 1, osch.Index(rk)
			for _, row := range g.vals[other.Out].Rows {
				runs[row[rc].I]++
				fan = max(fan, runs[row[rc].I])
			}
			if len(g.vals[in.Out].Rows)*fan*fan*fan > 300 {
				return false
			}
			oin := body.AddInput(other.Out, "loop/"+other.Out, osch)
			if join == 1 {
				if !disjoint(sch, osch, rk) {
					return false
				}
				joined := body.Add(ir.OpJoin, g.name(), ir.Params{LeftCols: []string{lk}, RightCols: []string{rk}}, bump(bin), oin)
				next = body.Add(ir.OpProject, g.name(), ir.Params{Columns: all}, joined)
			} else {
				if !disjoint(osch, sch, lk) {
					return false
				}
				// The carried key column is the build key the join drops:
				// the probe's key takes its place and its name.
				keep := append([]string(nil), all...)
				keep[sch.Index(lk)] = rk
				joined := body.Add(ir.OpJoin, g.name(), ir.Params{LeftCols: []string{rk}, RightCols: []string{lk}}, oin, bin)
				next = bump(body.Add(ir.OpProject, g.name(), ir.Params{Columns: keep, As: all}, joined))
			}
			inputs = append(inputs, other)
		}
		p := ir.Params{Body: body, MaxIter: 1 + g.r.Intn(3), Carried: map[string]string{in.Out: next.Out}}
		if len(inputs) == 1 && g.r.Intn(2) == 0 {
			lo := int64(0)
			for _, row := range g.vals[in.Out].Rows {
				if v := row[sch.Index(col)].I; v < lo {
					lo = v
				}
			}
			if lo < -20 {
				return false
			}
			cond := body.Add(ir.OpSelect, g.name(), ir.Params{Pred: pred(col, ir.CmpLt, 3)}, next)
			p.MaxIter, p.CondRel = 0, cond.Out
		}
		op = g.d.Add(ir.OpWhile, g.name(), p, inputs...)
	}
	rel, err := oracleOp(op, g.vals)
	if err != nil {
		panic(err) // a generator bug, not a finding
	}
	g.vals[op.Out] = rel
	g.ops = append(g.ops, op)
	return true
}

func genInputs(r *rand.Rand) (a, b *relation.Relation) {
	a = relation.New("a", relation.NewSchema("k:int", "v:int", "f:float", "s:string"))
	for i, n := 0, r.Intn(40); i < n; i++ {
		a.MustAppend(relation.Row{relation.Int(int64(r.Intn(6))), relation.Int(int64(r.Intn(30))),
			relation.Float(float64(r.Intn(64)) / 4), relation.Str([]string{"x", "y", "z"}[r.Intn(3)])})
	}
	b = relation.New("b", relation.NewSchema("bk:int", "w:int"))
	for i, n := 0, r.Intn(12); i < n; i++ {
		b.MustAppend(relation.Row{relation.Int(int64(r.Intn(6))), relation.Int(int64(r.Intn(9)))})
	}
	// Scaled inputs make the trace comparison cover logical sizes as well.
	a.LogicalBytes = a.PhysicalBytes() * int64(1+r.Intn(40))
	b.LogicalBytes = b.PhysicalBytes() * int64(r.Intn(3))
	return a, b
}

func TestRandomDAGsMatchOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	seen := map[ir.OpType]int{}
	defer func() {
		if len(seen) != 15 && !t.Failed() {
			t.Errorf("generator covered %d of the 15 operator kinds: %v", len(seen), seen)
		}
	}()
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		a, b := genInputs(r)
		g := &dagGen{r: r, d: ir.NewDAG(), vals: map[string]*relation.Relation{"a": a, "b": b}}
		g.ops = []*ir.Op{g.d.AddInput("a", "in/a", a.Schema), g.d.AddInput("b", "in/b", b.Schema)}
		for tries, want := 0, 1+r.Intn(8); len(g.ops)-2 < want && tries < 100; tries++ {
			g.step()
		}
		if err := g.d.Validate(); err != nil {
			t.Fatalf("seed %d: generated an invalid DAG: %v\n%s", seed, err, g.d)
		}
		ops, err := g.d.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			seen[op.Type]++
		}
		sinks := map[*ir.Op]bool{}
		for _, op := range g.d.Sinks() {
			sinks[op] = true
		}
		keepSinks := func(op *ir.Op) bool { return sinks[op] }

		var ref *Trace
		run := func(label string, opts RunOptions, threshold int) {
			old := ParallelThreshold
			ParallelThreshold = threshold
			defer func() { ParallelThreshold = old }()
			env, trace := Env{"a": a, "b": b}, NewTrace()
			if err := RunOps(ops, env, trace, opts); err != nil {
				t.Fatalf("seed %d %s: %v\n%s", seed, label, err, g.d)
			}
			for _, op := range ops {
				got, kept := env[op.Out]
				if !kept {
					if sinks[op] || opts.Keep(op) {
						t.Fatalf("seed %d %s: %s not materialized", seed, label, op)
					}
					continue
				}
				if want := g.vals[op.Out]; got.Fingerprint() != want.Fingerprint() || !got.Schema.Equal(want.Schema) {
					t.Fatalf("seed %d %s: %s differs from the oracle\ngot %s:\n%s\nwant %s:\n%s\n%s",
						seed, label, op, got.Schema, got.Fingerprint(), want.Schema, want.Fingerprint(), g.d)
				}
				if err := relation.CheckWidths(got); err != nil {
					t.Fatalf("seed %d %s: %v", seed, label, err)
				}
			}
			if ref == nil {
				ref = trace
			} else if sameTrace(t, ref, trace); t.Failed() {
				t.Fatalf("seed %d %s: trace differs from keep-all\n%s", seed, label, g.d)
			}
		}
		run("keep-all", RunOptions{Keep: keepAll}, ParallelThreshold)
		run("keep-sinks", RunOptions{Keep: keepSinks}, ParallelThreshold)
		run("keep-sinks/batch=1", RunOptions{Keep: keepSinks, BatchRows: 1}, ParallelThreshold)
		run("keep-sinks/batch=2/chunked", RunOptions{Keep: keepSinks, BatchRows: 2}, 1)
		run("keep-all/batch=3/chunked", RunOptions{Keep: keepAll, BatchRows: 3}, 1)
	}
}
