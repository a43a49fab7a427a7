package exec

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// tableInput is a relation whose group column g mixes Ints, Floats and
// numbers' texts (Int(2) and "2" are one key), beside int, float and string
// columns.
func tableInput(name string, rows int) *relation.Relation {
	rel := relation.New(name, relation.NewSchema("g:string", "k:int", "v:int", "f:float", "s:string"))
	for i := 0; i < rows; i++ {
		var g relation.Value
		switch i % 3 {
		case 0:
			g = relation.Int(int64(i % 4))
		case 1:
			g = relation.Float(float64(i%5) / 2)
		default:
			g = relation.Str(strconv.Itoa(i % 6))
		}
		rel.MustAppend(relation.Row{g, relation.Int(int64(i % 7)), relation.Int(int64(i*31%1000 - 400)),
			relation.Float(float64(i%97) / 8), relation.Str(fmt.Sprintf("s%03d", i*17%211))})
	}
	rel.LogicalBytes = rel.PhysicalBytes() * 7
	return rel
}

// tableCase is one pipeline ending in a table named "out" over inputs "in"
// (of rows rows) and "other".
type tableCase struct {
	name  string
	rows  int
	build func(d *ir.DAG, in, other *ir.Op)
}

// tableCases are AGGs of every aggregate — string MIN and MAX, which the
// generated DAGs never aggregate, among them — over one group column, two,
// and none with no input (the declared kinds' zero row), and DISTINCT,
// INTERSECT and DIFFERENCE tables.
func tableCases() []tableCase {
	all := []ir.AggSpec{
		{Func: ir.AggCount, As: "n"}, {Func: ir.AggSum, Col: "v", As: "sv"}, {Func: ir.AggSum, Col: "f", As: "sf"},
		{Func: ir.AggAvg, Col: "v", As: "av"}, {Func: ir.AggMin, Col: "s", As: "lo"}, {Func: ir.AggMax, Col: "s", As: "hi"},
	}
	return []tableCase{
		{"agg", 900, func(d *ir.DAG, in, _ *ir.Op) {
			d.Add(ir.OpAgg, "out", ir.Params{GroupBy: []string{"g"}, Aggs: all}, in)
		}},
		{"agg over two group columns", 900, func(d *ir.DAG, in, _ *ir.Op) {
			d.Add(ir.OpAgg, "out", ir.Params{GroupBy: []string{"s", "g"}, Aggs: all[:3]}, in)
		}},
		{"agg of no input", 0, func(d *ir.DAG, in, _ *ir.Op) {
			d.Add(ir.OpAgg, "out", ir.Params{Aggs: all}, in)
		}},
		{"distinct", 900, func(d *ir.DAG, in, _ *ir.Op) {
			d.Add(ir.OpDistinct, "out", ir.Params{}, d.Add(ir.OpProject, "gk", ir.Params{Columns: []string{"g", "k"}}, in))
		}},
		{"intersect", 900, func(d *ir.DAG, in, other *ir.Op) {
			d.Add(ir.OpIntersect, "out", ir.Params{}, d.Add(ir.OpSelect, "some", ir.Params{Pred: pred("k", ir.CmpLt, 5)}, in), other)
		}},
		{"difference", 900, func(d *ir.DAG, in, other *ir.Op) {
			d.Add(ir.OpDifference, "out", ir.Params{}, in, other)
		}},
	}
}

// ops returns the case's operators and inputs.
func (c tableCase) ops(t *testing.T) ([]*ir.Op, Env) {
	in, other := tableInput("in", c.rows), tableInput("other", 300)
	d := ir.NewDAG()
	c.build(d, d.AddInput("in", "in/in", in.Schema), d.AddInput("other", "in/other", other.Schema))
	ops, err := d.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	return ops, Env{"in": in, "other": other}
}

// intoSink runs ops with "out" written into a sink, and returns the writer.
func intoSink(t *testing.T, ops []*ir.Op, inputs Env, batch int) (*relation.Writer, *Trace) {
	w := newWriter()
	env, trace := inputs.Clone(), NewTrace()
	if err := RunOps(ops, env, trace, RunOptions{BatchRows: batch, Sinks: map[string]*relation.Writer{"out": w}}); err != nil {
		t.Fatal(err)
	}
	if env["out"] != nil {
		t.Fatal("the table was materialized, not written into its sink")
	}
	return w, trace
}

// TestTableSinksMatchMaterializedAppend: a table that ends in its sink — an
// AGG's groups, a DISTINCT's, an INTERSECT's or a DIFFERENCE's — writes its
// columns into the sink, building no relation, and the writer holds what a
// writer handed the materialized relation holds: the same bytes, row count,
// body bytes and logical size, under the same trace. The relation is the
// oracle's. Every case runs at batch sizes 1, 3 and the default, in one range
// and in two halves.
func TestTableSinksMatchMaterializedAppend(t *testing.T) {
	for _, c := range tableCases() {
		ops, inputs := c.ops(t)
		oracle, err := oracleRun(ops, inputs)
		if err != nil {
			t.Fatal(err)
		}
		for _, threshold := range []int{ParallelThreshold, 1} {
			for _, batch := range []int{1, 3, 0} {
				label := fmt.Sprintf("%s, threshold %d, batch %d", c.name, threshold, batch)
				withThreshold(t, threshold, func() {
					wantEnv, wantTrace := inputs.Clone(), NewTrace()
					keep := func(op *ir.Op) bool { return op.Out == "out" }
					if err := RunOps(ops, wantEnv, wantTrace, RunOptions{Keep: keep, BatchRows: batch}); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					rel := wantEnv["out"]
					// The oracle's zero row is all Int(0), not the declared
					// kinds' zeros (TestEmptyAggCellsTakeTheirDeclaredKinds).
					if c.rows > 0 && rel.Fingerprint() != oracle["out"].Fingerprint() {
						t.Fatalf("%s: %v, the oracle's %v", label, rel.Rows, oracle["out"].Rows)
					}
					ref := relation.NewColumnarWriter(rel.Schema)
					ref.LogicalBytes = rel.LogicalBytes
					ref.Append(rel.Rows)
					w, trace := intoSink(t, ops, inputs, batch)
					if !bytes.Equal(w.Bytes(), ref.Bytes()) {
						t.Errorf("%s: the sink holds\n%s\nthe materialized relation's writer\n%s", label, asText(t, w.Bytes()), asText(t, ref.Bytes()))
					}
					if w.Rows() != ref.Rows() || w.Rows() != len(rel.Rows) || w.BodyBytes() != ref.BodyBytes() || w.LogicalBytes != ref.LogicalBytes {
						t.Errorf("%s: the sink holds %d rows, %d body bytes, logical %d; the materialized relation %d, %d, %d",
							label, w.Rows(), w.BodyBytes(), w.LogicalBytes, ref.Rows(), ref.BodyBytes(), ref.LogicalBytes)
					}
					sameTrace(t, wantTrace, trace)
				})
				if t.Failed() {
					t.FailNow()
				}
			}
		}
	}
}

// TestRecycledTableColumnsMatchFirstUse: a table whose column store comes
// back from aggPool, last filled by a table of other columns, kinds and
// lengths, writes into its sink the bytes a table on a fresh store writes.
// Every case runs first with the pools emptied, then after the other cases
// and dirtyPools have left their stores behind, in one range and in two
// halves.
func TestRecycledTableColumnsMatchFirstUse(t *testing.T) {
	for _, threshold := range []int{ParallelThreshold, 1} {
		withThreshold(t, threshold, func() {
			first := map[string][]byte{}
			for _, c := range tableCases() {
				runtime.GC() // two collections empty every sync.Pool
				runtime.GC()
				ops, inputs := c.ops(t)
				w, _ := intoSink(t, ops, inputs, 0)
				first[c.name] = w.Bytes()
			}
			dirtyPools(t)
			for _, c := range slices.Backward(tableCases()) {
				ops, inputs := c.ops(t)
				if w, _ := intoSink(t, ops, inputs, 0); !bytes.Equal(w.Bytes(), first[c.name]) {
					t.Fatalf("threshold %d: %s on a recycled store writes\n%s\non a fresh one\n%s", threshold, c.name, asText(t, w.Bytes()), asText(t, first[c.name]))
				}
			}
		})
	}
}

// TestStreamedJoinBuildsMatchMaterialized: a JOIN or CROSS JOIN whose build
// side is a file that nothing else reads builds its table from the file's
// reader, never materializing it, and computes what the join built over the
// file read whole computes, under the same trace: keyed, ×16 fan-out, a cross
// join, a self-join and numbers' texts keying ints. Every case runs at batch
// sizes 1, 3 and the default, in one range and in two halves.
func TestStreamedJoinBuildsMatchMaterialized(t *testing.T) {
	a := tableInput("a", 600)
	fan := relation.New("fan", relation.NewSchema("fk:int", "copy:int", "w:float"))
	for i := 0; i < 7*16; i++ {
		fan.MustAppend(relation.Row{relation.Int(int64(i % 7)), relation.Int(int64(i / 7)), relation.Float(float64(i) / 3)})
	}
	texts := relation.New("texts", relation.NewSchema("tk:string", "label:string"))
	for i := 0; i < 12; i++ {
		texts.MustAppend(relation.Row{relation.Str([]string{strconv.Itoa(i), "0" + strconv.Itoa(i), "x"}[i%3]), relation.Str(fmt.Sprint("t", i))})
	}
	small := relation.New("small", relation.NewSchema("x:int"))
	for i := 0; i < 5; i++ {
		small.MustAppend(relation.Row{relation.Int(int64(i))})
	}
	fs := stage(t, 64, a, fan, texts, small)
	for _, c := range []struct {
		name   string
		builds string // the input built on
		build  func(d *ir.DAG, a, fan, texts, small *ir.Op)
	}{
		{"keyed", "fan", func(d *ir.DAG, a, fan, _, _ *ir.Op) {
			d.Add(ir.OpJoin, "out", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"copy"}}, a, fan)
		}},
		{"x16 fan-out", "fan", func(d *ir.DAG, a, fan, _, _ *ir.Op) {
			sel := d.Add(ir.OpSelect, "some", ir.Params{Pred: pred("v", ir.CmpLt, 0)}, a)
			d.Add(ir.OpJoin, "out", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"fk"}}, sel, fan)
		}},
		{"cross join", "a", func(d *ir.DAG, a, _, _, small *ir.Op) {
			d.Add(ir.OpCrossJoin, "out", ir.Params{}, small, a)
		}},
		{"self-join", "a", func(d *ir.DAG, a, _, _, _ *ir.Op) {
			d.Add(ir.OpJoin, "out", ir.Params{LeftCols: []string{"k", "g"}, RightCols: []string{"k", "g"}}, a, a)
		}},
		{"numbers' texts", "texts", func(d *ir.DAG, a, _, texts, _ *ir.Op) {
			d.Add(ir.OpJoin, "out", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"tk"}}, a, texts)
		}},
	} {
		d := ir.NewDAG()
		c.build(d, d.AddInput("a", "in/a", a.Schema), d.AddInput("fan", "in/fan", fan.Schema),
			d.AddInput("texts", "in/texts", texts.Schema), d.AddInput("small", "in/small", small.Schema))
		ops, err := d.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		for _, threshold := range []int{ParallelThreshold, 1} {
			for _, batch := range []int{1, 3, 0} {
				withThreshold(t, threshold, func() {
					opts := RunOptions{Keep: func(op *ir.Op) bool { return op.Out == "out" }, BatchRows: batch}
					wantEnv, wantTrace := runBound(t, ops, fs, opts)
					gotEnv, gotTrace, _ := runSourced(t, ops, fs, opts)
					if gotEnv[c.builds] != nil {
						t.Errorf("%s: build side %s was materialized", c.name, c.builds)
					}
					if len(gotEnv["out"].Rows) == 0 {
						t.Errorf("%s: the join matched nothing", c.name)
					}
					sameRun(t, ops, wantEnv, gotEnv, wantTrace, gotTrace)
				})
				if t.Failed() {
					t.Fatalf("%s, threshold %d, batch %d", c.name, threshold, batch)
				}
			}
		}
	}
}

// TestInvariantBuildFromAStreamIsReused is a driver loop's three rounds over
// one JOIN: each round probes other rows, and its build side is the same
// opened file, held from round to round (as engines.LoopShare holds it). The
// first round builds the table from the file's reader; the others probe that
// table, decoding nothing, and every round's output and trace equal a run
// over the build side read whole.
func TestInvariantBuildFromAStreamIsReused(t *testing.T) {
	fan := relation.New("fan", relation.NewSchema("fk:int", "copy:int", "w:float"))
	for i := 0; i < 7*16; i++ {
		fan.MustAppend(relation.Row{relation.Int(int64(i % 7)), relation.Int(int64(i / 7)), relation.Float(float64(i) / 3)})
	}
	fs := stage(t, 64, fan)
	held := mustOpen(t, fs, "fan")
	d := ir.NewDAG()
	probe := d.AddInput("probe", "in/probe", relation.NewSchema("k:int", "r:float"))
	join := d.Add(ir.OpJoin, "out", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"fk"}}, probe, d.AddInput("fan", "in/fan", fan.Schema))
	ops, err := d.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	joins := JoinTables{}
	var first *joinTable
	for round := 0; round < 3; round++ {
		rel := relation.New("probe", probe.Params.Schema)
		for i := 0; i < 40; i++ {
			rel.MustAppend(relation.Row{relation.Int(int64((i + round) % 9)), relation.Float(float64(round*40+i) / 16)})
		}
		wantEnv, wantTrace := Env{"probe": rel, "fan": fan}, NewTrace()
		if err := RunOps(ops, wantEnv, wantTrace, RunOptions{SkipInputs: true}); err != nil {
			t.Fatal(err)
		}
		env, trace := Env{"probe": rel}, NewTrace()
		if err := RunOps(ops, env, trace, RunOptions{SkipInputs: true, Sources: map[string]*relation.Encoded{"fan": held}, Joins: joins}); err != nil {
			t.Fatal(err)
		}
		if env["fan"] != nil {
			t.Fatalf("round %d: the build side was materialized", round)
		}
		if round == 0 {
			first = joins[join].table
		} else if joins[join].table != first {
			t.Fatalf("round %d built its invariant join table again", round)
		}
		sameRelation(t, fmt.Sprint("round ", round), wantEnv["out"], env["out"])
		sameTrace(t, wantTrace, trace)
	}
	joins.release()
}
