package exec

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"testing"
	"testing/quick"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// TestRecycledVectorsMatchFirstUse: pipelines computing on recycled storage —
// readers' vectors, stage vectors, collectors, match lists — compute what
// they compute on new storage. Every generated DAG runs with its inputs
// streamed from DFS files, every pipeline split into two halves, in batches
// of 3 rows and of the default size: first with every pool emptied before
// each run, then again after pipelines over another schema (strings and
// floats, in every small size class) have left their cells in the pools.
// Each relation the second runs keep must equal the first's cell for cell,
// float bits and cached widths included.
func TestRecycledVectorsMatchFirstUse(t *testing.T) {
	withThreshold(t, 1, func() {
		type key struct {
			seed  int64
			batch int
		}
		run := func(k key) Env {
			g := genDAG(k.seed)
			ops, err := g.d.TopoSort()
			if err != nil {
				t.Fatal(err)
			}
			sinks := map[*ir.Op]bool{}
			for _, op := range g.d.Sinks() {
				sinks[op] = true
			}
			fs := stage(t, []int{7, 64, 0}[k.seed%3], g.vals["a"], g.vals["b"])
			env, _, _ := runSourced(t, ops, fs, RunOptions{Keep: func(op *ir.Op) bool { return sinks[op] }, BatchRows: k.batch})
			return env
		}
		var keys []key
		for seed := int64(1); seed <= 300; seed++ {
			keys = append(keys, key{seed, 3}, key{seed, relation.DefaultBatchRows})
		}
		first := map[key]Env{}
		for _, k := range keys {
			runtime.GC() // two collections empty every sync.Pool
			runtime.GC()
			first[k] = run(k)
		}
		dirtyPools(t)
		for _, k := range keys {
			got := run(k)
			if len(got) != len(first[k]) {
				t.Fatalf("seed %d batch %d: %d relations kept, first run %d", k.seed, k.batch, len(got), len(first[k]))
			}
			for name, want := range first[k] {
				if err := sameCellsAndWidths(got[name], want); err != nil {
					t.Fatalf("seed %d batch %d: %s on recycled storage: %v\n%s", k.seed, k.batch, name, err, genDAG(k.seed).d)
				}
			}
		}
	})
}

// dirtyPools runs pipelines over a (string, float, int, string) relation of
// every size up to 64 rows, streamed from DFS files in batches of 3 rows and
// whole, so the pools hold cells of another schema in each small size class:
// SELECT → ARITH → PROJECT, and a JOIN probe into an AGG.
func dirtyPools(t *testing.T) {
	t.Helper()
	sch := relation.NewSchema("s:string", "f:float", "k:int", "t:string")
	build := relation.New("v", relation.NewSchema("vk:int", "u:string"))
	for i := 0; i < 5; i++ {
		build.MustAppend(relation.Row{relation.Int(int64(i)), relation.Str(fmt.Sprintf("build %d", i))})
	}
	d := ir.NewDAG()
	sel := d.Add(ir.OpSelect, "sel", ir.Params{Pred: pred("k", ir.CmpLt, 4)}, d.AddInput("w", "in/w", sch))
	ar := d.Add(ir.OpArith, "ar", ir.Params{Dst: "g", ALeft: ir.ColRef("f"), ARght: ir.LitOp(relation.Float(1.5)), AOp: ir.ArithMul}, sel)
	d.Add(ir.OpProject, "pr", ir.Params{Columns: []string{"t", "g", "s", "f"}}, ar)
	j := d.Add(ir.OpJoin, "j", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"vk"}}, d.AddInput("w2", "in/w2", sch), d.AddInput("v", "in/v", build.Schema))
	d.Add(ir.OpAgg, "by_u", ir.Params{GroupBy: []string{"u"}, Aggs: []ir.AggSpec{{Func: ir.AggSum, Col: "f", As: "total"}}}, j)
	ops, err := d.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 64; n++ {
		w := relation.New("w", sch)
		for i := 0; i < n; i++ {
			w.MustAppend(relation.Row{relation.Str(fmt.Sprintf("stale %d", i)), relation.Float(float64(i) / 7),
				relation.Int(int64(i % 5)), relation.Str("another stale string")})
		}
		w2 := &relation.Relation{Name: "w2", Schema: sch, Rows: w.Rows}
		for _, batch := range []int{3, relation.DefaultBatchRows} {
			runSourced(t, ops, stage(t, 64, w, w2, build), RunOptions{BatchRows: batch})
		}
	}
}

// sameCellsAndWidths is sameCells with the cached widths compared too: the
// cells must be equal as structs, floats compared by their bits.
func sameCellsAndWidths(got, want *relation.Relation) error {
	if err := sameCells(got, want); err != nil {
		return err
	}
	for i, row := range got.Rows {
		for j, v := range row {
			w := want.Rows[i][j]
			v.F, w.F = math.Float64frombits(1), math.Float64frombits(1) // compared by sameCells
			if v != w {
				return fmt.Errorf("row %d cell %d: %#v, want %#v: cached widths differ", i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
	return nil
}

// add folds one row into t: a batch of one row, each column a view of the
// row's cell. It is the row-at-a-time form of addBatch the table tests use.
func (t *aggTable) add(row relation.Row) {
	if cap(oneRow.cols) < len(row) {
		oneRow.cols = make([]relation.Vec, len(row))
	}
	cols := oneRow.cols[:len(row)]
	for c := range row {
		cols[c] = relation.Vec{Vals: row[c : c+1 : c+1]}
	}
	oneRow.src[0] = row
	oneRow.b = relation.Batch{N: 1, Cols: cols, Src: oneRow.src[:]}
	t.addBatch(&oneRow.b)
}

// oneRow is add's scratch, so a row costs no allocation: the tests that call
// it run one at a time.
var oneRow struct {
	b    relation.Batch
	src  [1]relation.Row
	cols []relation.Vec
}

// sameValue reports whether two cells are equal as structs — kind, bits and
// cached width — a NaN matching a NaN of the same bits.
func sameValue(a, b relation.Value) bool {
	if math.Float64bits(a.F) != math.Float64bits(b.F) {
		return false
	}
	a.F, b.F = 0, 0
	return a == b
}

// TestArithVectorsMatchApply: ARITH over vectors computes, cell for cell, what
// ir.ArithOp.Apply computes over the row's cells — the same kind, bits and
// width — for every operator and every pairing of int, float and numeric
// string columns, a column whose cells mix kinds, scaled columns and int,
// float and string literals. Int overflow wraps, and DIV by zero is Float(0).
func TestArithVectorsMatchApply(t *testing.T) {
	sch := relation.NewSchema("i:int", "j:int", "f:float", "s:string", "m:float")
	operands := []ir.Operand{
		ir.ColRef("i"), ir.ColRef("j"), ir.ColRef("f"), ir.ColRef("s"), ir.ColRef("m"),
		ir.ScaledCol("i", 0.5), ir.ScaledCol("f", -3), ir.ScaledCol("m", 2.5),
		ir.LitOp(relation.Int(3)), ir.LitOp(relation.Int(0)), ir.LitOp(relation.Float(0.25)), ir.LitOp(relation.Str("7")),
	}
	check := func(is, js []int64, fs []float64) bool {
		n := min(len(is), len(js), len(fs))
		rel := relation.New("r", sch)
		add := func(i, j int64, f float64) {
			m := relation.Float(f) // the mixed column: floats and ints in turn
			if len(rel.Rows)%2 == 0 {
				m = relation.Int(i)
			}
			rel.MustAppend(relation.Row{relation.Int(i), relation.Int(j), relation.Float(f), relation.Str(strconv.FormatInt(j%1000, 10)), m})
		}
		add(math.MaxInt64, 1, 0) // overflow, and zero divisors
		add(math.MinInt64, -1, math.Copysign(0, -1))
		add(0, 0, math.NaN())
		for k := 0; k < n; k++ {
			add(is[k], js[k], fs[k])
		}
		b, err := rel.Reader(0, len(rel.Rows), len(rel.Rows), false).Next()
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []ir.ArithOp{ir.ArithAdd, ir.ArithSub, ir.ArithMul, ir.ArithDiv} {
			for _, l := range operands {
				for _, r := range operands {
					spec, err := bindArith(&ir.Params{AOp: op, ALeft: l, ARght: r, Dst: "x"}, sch)
					if err != nil {
						t.Fatal(err)
					}
					var bufs [3]relation.VecBuf
					got := spec.compute(&b, bufs[:])
					for k, row := range rel.Rows {
						want := op.Apply(oracleOperand(l, sch, row), oracleOperand(r, sch, row))
						if cell := got.Cell(k); !sameValue(cell, want) {
							t.Errorf("%v %v %v at row %v: %#v, Apply gives %#v", l, op, r, row, cell, want)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMixedKindColumnsMatchRows: a bound relation whose columns hold cells of
// another kind than they declare — an Int in a float column, a numeric string
// and Float(0) in an int column — flows through SELECT, PROJECT, ARITH, JOIN
// (as probe and as build side), AGG, DISTINCT, INTERSECT and a streamed sink,
// fused and in batches of 1, 3 and the default, single-range and in halves,
// and yields what RunDAG, which keeps every member, yields: the same cells,
// kinds included, true cached widths, the same trace, and a sink that stores
// what the materialized output's text parses to.
func TestMixedKindColumnsMatchRows(t *testing.T) {
	mix := relation.New("mix", relation.NewSchema("k:int", "f:float", "n:int"))
	for i := 0; i < 60; i++ {
		row := relation.Row{relation.Int(int64(i % 6)), relation.Float(float64(i) / 4), relation.Int(int64(i))}
		switch i % 5 {
		case 1:
			row[1] = relation.Int(int64(i * 1000003)) // an Int in a float column
		case 2:
			row[2] = relation.Str(strconv.Itoa(i - 30)) // a numeric string in an int column
		case 3:
			row[2] = relation.Float(0) // a Float(0) in an int column
		}
		mix.MustAppend(row)
	}
	dim := relation.New("dim", relation.NewSchema("dk:int", "label:string", "w:float"))
	for i := 0; i < 6; i++ {
		w := relation.Float(float64(i) + 0.5)
		if i%2 == 0 {
			w = relation.Int(int64(i))
		}
		dim.MustAppend(relation.Row{relation.Int(int64(i)), relation.Str(fmt.Sprint("d", i)), w})
	}
	d := ir.NewDAG()
	in, dm := d.AddInput("mix", "in/mix", mix.Schema), d.AddInput("dim", "in/dim", dim.Schema)
	sel := d.Add(ir.OpSelect, "sel", ir.Params{Pred: ir.Cmp(ir.ColRef("f"), ir.CmpGt, ir.LitOp(relation.Float(1)))}, in)
	prj := d.Add(ir.OpProject, "prj", ir.Params{Columns: []string{"n", "k", "f"}}, sel)
	ar := d.Add(ir.OpArith, "ar", ir.Params{Dst: "x", ALeft: ir.ColRef("f"), ARght: ir.ColRef("n"), AOp: ir.ArithMul}, prj)
	ar2 := d.Add(ir.OpArith, "ar2", ir.Params{Dst: "n", ALeft: ir.ColRef("n"), ARght: ir.ColRef("k"), AOp: ir.ArithAdd}, ar)
	probe := d.Add(ir.OpJoin, "probe", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"dk"}}, ar2, dm)
	d.Add(ir.OpAgg, "agg", ir.Params{GroupBy: []string{"label"}, Aggs: []ir.AggSpec{
		{Func: ir.AggSum, Col: "f", As: "sf"}, {Func: ir.AggSum, Col: "n", As: "sn"}, {Func: ir.AggMin, Col: "n", As: "lo"},
		{Func: ir.AggMax, Col: "x", As: "hi"}, {Func: ir.AggAvg, Col: "w", As: "avg"}, {Func: ir.AggCount, As: "c"},
	}}, probe)
	build := d.Add(ir.OpJoin, "build", ir.Params{LeftCols: []string{"dk"}, RightCols: []string{"k"}}, dm, d.Add(ir.OpSelect, "some", ir.Params{Pred: pred("k", ir.CmpLt, 4)}, in))
	d.Add(ir.OpProject, "bout", ir.Params{Columns: []string{"label", "f", "n", "w"}}, build)
	d.Add(ir.OpDistinct, "dist", ir.Params{}, d.Add(ir.OpProject, "kn", ir.Params{Columns: []string{"k", "n"}}, in))
	d.Add(ir.OpIntersect, "inter", ir.Params{}, prj, d.Add(ir.OpProject, "prj2", ir.Params{Columns: []string{"n", "k", "f"}}, in))
	ops, err := d.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	outs := map[string]bool{}
	for _, op := range d.Sinks() {
		outs[op.Out] = true
	}
	for _, threshold := range []int{ParallelThreshold, 1} {
		withThreshold(t, threshold, func() {
			want, wantTrace, err := RunDAG(d, Env{"mix": mix, "dim": dim})
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range []int{1, 3, 0} {
				label := fmt.Sprintf("threshold %d batch %d", threshold, batch)
				env := Env{"mix": mix, "dim": dim}
				sink := relation.NewColumnarWriter(relation.Schema{})
				trace := NewTrace()
				opts := RunOptions{Keep: func(op *ir.Op) bool { return outs[op.Out] }, BatchRows: batch, Sinks: map[string]*relation.Writer{"bout": sink}}
				if err := RunOps(ops, env, trace, opts); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameTrace(t, wantTrace, trace)
				for name := range outs {
					if name == "bout" {
						continue
					}
					if err := sameCells(env[name], want[name]); err != nil {
						t.Fatalf("%s: %s: %v", label, name, err)
					}
					if err := relation.CheckWidths(env[name]); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				stored, err := relation.DecodeBytes("bout", sink.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				parsed, err := relation.DecodeBytes("bout", want["bout"].EncodeBytes())
				if err != nil {
					t.Fatal(err)
				}
				if err := sameCells(stored, parsed); err != nil {
					t.Fatalf("%s: the sink stores %v", label, err)
				}
			}
			for name, rel := range want {
				if err := relation.CheckWidths(rel); err != nil {
					t.Fatalf("RunDAG %s: %v", name, err)
				}
			}
		})
	}
}
