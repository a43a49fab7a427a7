package exec

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// withThreshold runs fn with ParallelThreshold temporarily lowered, so
// pipelines split in two halves on small test data.
func withThreshold(t *testing.T, n int, fn func()) {
	t.Helper()
	old := ParallelThreshold
	ParallelThreshold = n
	defer func() { ParallelThreshold = old }()
	fn()
}

func bigIntRelation(name string, rows int, seed int64) *relation.Relation {
	r := rand.New(rand.NewSource(seed))
	rel := relation.New(name, relation.NewSchema("k:int", "v:int"))
	for i := 0; i < rows; i++ {
		rel.MustAppend(relation.Row{
			relation.Int(int64(r.Intn(64))),
			relation.Int(int64(i)),
		})
	}
	return rel
}

func TestParallelSelectMatchesSerial(t *testing.T) {
	in := bigIntRelation("t", 5000, 1)
	d := ir.NewDAG()
	src := d.AddInput("t", "in/t", in.Schema)
	op := d.Add(ir.OpSelect, "out", ir.Params{
		Pred: ir.Cmp(ir.ColRef("k"), ir.CmpLt, ir.LitOp(relation.Int(20))),
	}, src)

	serialOut, err := EvalOp(op, []*relation.Relation{in})
	if err != nil {
		t.Fatal(err)
	}
	withThreshold(t, 1, func() {
		parallelOut, err := EvalOp(op, []*relation.Relation{in})
		if err != nil {
			t.Fatal(err)
		}
		if len(parallelOut.Rows) != len(serialOut.Rows) {
			t.Fatalf("row counts differ: %d vs %d", len(parallelOut.Rows), len(serialOut.Rows))
		}
		// Order must match the serial evaluation exactly (chunk order).
		for i := range serialOut.Rows {
			for j := range serialOut.Rows[i] {
				if !serialOut.Rows[i][j].Equal(parallelOut.Rows[i][j]) {
					t.Fatalf("row %d differs: %v vs %v", i, serialOut.Rows[i], parallelOut.Rows[i])
				}
			}
		}
	})
}

func TestParallelJoinMatchesSerial(t *testing.T) {
	left := bigIntRelation("l", 4000, 2)
	right := bigIntRelation("r", 300, 3)
	d := ir.NewDAG()
	ls := d.AddInput("l", "in/l", left.Schema)
	rs := d.AddInput("r", "in/r", relation.NewSchema("k:int", "w:int"))
	rr := relation.New("r", relation.NewSchema("k:int", "w:int"))
	rr.Rows = right.Rows
	op := d.Add(ir.OpJoin, "out", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"k"}}, ls, rs)

	serialOut, err := EvalOp(op, []*relation.Relation{left, rr})
	if err != nil {
		t.Fatal(err)
	}
	withThreshold(t, 1, func() {
		parallelOut, err := EvalOp(op, []*relation.Relation{left, rr})
		if err != nil {
			t.Fatal(err)
		}
		if parallelOut.Fingerprint() != serialOut.Fingerprint() {
			t.Error("parallel join result differs from serial")
		}
		if len(parallelOut.Rows) != len(serialOut.Rows) {
			t.Errorf("row counts: %d vs %d", len(parallelOut.Rows), len(serialOut.Rows))
		}
	})
}

// failingSource is a row source whose pull fails.
type failingSource struct{ relation.RowSource }

func (failingSource) Next() (relation.Batch, error) {
	return relation.Batch{}, errors.New("block 7 lost")
}

// TestParallelRangeErrorFailsUnit: an error in one range only must fail the
// whole pipeline, not yield the other ranges' rows. Columns are bound when
// the chain is planned, so no stage can fail on a row; what can is the scan —
// here a hand-built chain whose source fails in the range holding row 900.
func TestParallelRangeErrorFailsUnit(t *testing.T) {
	in := bigIntRelation("t", 1000, 4)
	d := ir.NewDAG()
	src := d.AddInput("t", "in/t", in.Schema)
	op := d.Add(ir.OpSelect, "out", ir.Params{Pred: pred("v", ir.CmpLt, 900)}, src)
	bound, err := bindPred(op.Params.Pred, in.Schema)
	if err != nil {
		t.Fatal(err)
	}
	scan := func(rows []relation.Row) *chain {
		return &chain{
			rows: len(rows), batchRows: relation.DefaultBatchRows,
			open: func(lo, hi int) relation.RowSource {
				r := (&relation.Relation{Schema: in.Schema, Rows: rows}).Reader(lo, hi, relation.DefaultBatchRows, false)
				if lo <= 900 && 900 < hi {
					return failingSource{r}
				}
				return r
			},
			stages: []stagePlan{{op: op, inSch: in.Schema, sch: in.Schema, pred: bound}},
		}
	}
	c := scan(in.Rows)
	withThreshold(t, 1, func() {
		_, err := c.run()
		if err == nil || !strings.Contains(err.Error(), "block 7 lost") {
			t.Errorf("err = %v, want the failing range's error", err)
		}
	})
	if res, err := scan(in.Rows[:900]).run(); err != nil || len(res.rows) != 900 {
		t.Errorf("rows no failing range holds: %d rows, err %v", len(res.rows), err)
	}
}

// TestUnresolvableOperandFailsBeforeAnyRowIsRead: a column no schema holds
// fails the chain where it is planned — over an empty input too, which the
// per-row lookup this replaces never noticed.
func TestUnresolvableOperandFailsBeforeAnyRowIsRead(t *testing.T) {
	empty := relation.New("t", relation.NewSchema("k:int", "v:int"))
	for name, params := range map[string]ir.Params{
		"ARITH":  {Dst: "w", ALeft: ir.ColRef("v"), AOp: ir.ArithMul, ARght: ir.ScaledCol("missing", 0.5)},
		"SELECT": {Pred: ir.Or(pred("v", ir.CmpLt, 900), pred("missing", ir.CmpEq, 1))},
	} {
		d := ir.NewDAG()
		src := d.AddInput("t", "in/t", empty.Schema)
		typ := ir.OpArith
		if params.Pred != nil {
			typ = ir.OpSelect
		}
		op := d.Add(typ, "out", params, src)
		_, err := runChain([]*ir.Op{op}, Env{"t": empty}, nil, RunOptions{})
		if err == nil || !strings.Contains(err.Error(), `"missing"`) {
			t.Errorf("%s: err = %v, want the unknown column named", name, err)
		}
	}
	// ir.OutputSchema turns those away first; binding refuses them on its own.
	if _, err := bindPred(ir.Or(pred("v", ir.CmpLt, 900), pred("missing", ir.CmpEq, 1)), empty.Schema); err == nil || !strings.Contains(err.Error(), `unknown column "missing"`) {
		t.Errorf("bindPred: err = %v", err)
	}
}

func TestParallelAggregateMatchesSerial(t *testing.T) {
	in := bigIntRelation("t", 6000, 5)
	d := ir.NewDAG()
	src := d.AddInput("t", "in/t", in.Schema)
	op := d.Add(ir.OpAgg, "out", ir.Params{
		GroupBy: []string{"k"},
		Aggs: []ir.AggSpec{
			{Func: ir.AggSum, Col: "v", As: "s"},
			{Func: ir.AggCount, As: "n"},
			{Func: ir.AggMin, Col: "v", As: "lo"},
			{Func: ir.AggMax, Col: "v", As: "hi"},
			{Func: ir.AggAvg, Col: "v", As: "avg"},
		},
	}, src)
	serialOut, err := EvalOp(op, []*relation.Relation{in})
	if err != nil {
		t.Fatal(err)
	}
	withThreshold(t, 1, func() {
		parallelOut, err := EvalOp(op, []*relation.Relation{in})
		if err != nil {
			t.Fatal(err)
		}
		if parallelOut.Fingerprint() != serialOut.Fingerprint() {
			t.Error("parallel aggregation differs from serial")
		}
		// Output group order must be identical too (first appearance).
		for i := range serialOut.Rows {
			if !serialOut.Rows[i][0].Equal(parallelOut.Rows[i][0]) {
				t.Fatalf("group order differs at %d: %v vs %v", i, serialOut.Rows[i][0], parallelOut.Rows[i][0])
			}
		}
	})

	// A float SUM / AVG merges only up to rounding, and a columnar sink's
	// halves cut their own row groups: both follow where the input is cut,
	// which the row count alone decides, so every GOMAXPROCS gives the same
	// bits and the same bytes.
	r := rand.New(rand.NewSource(6))
	floats := relation.New("f", relation.NewSchema("k:int", "w:float"))
	for i := 0; i < 3*ParallelThreshold+100; i++ { // halves end mid-batch
		floats.MustAppend(relation.Row{relation.Int(int64(r.Intn(4))), relation.Float(r.Float64() * 1e6)})
	}
	fsrc := d.AddInput("f", "in/f", floats.Schema)
	sums := d.Add(ir.OpAgg, "sums", ir.Params{GroupBy: []string{"k"}, Aggs: []ir.AggSpec{
		{Func: ir.AggSum, Col: "w", As: "s"},
		{Func: ir.AggAvg, Col: "w", As: "avg"},
	}}, fsrc)
	halved := d.Add(ir.OpArith, "halved", ir.Params{Dst: "w", ALeft: ir.ColRef("w"), AOp: ir.ArithMul, ARght: ir.LitOp(relation.Float(0.5))}, fsrc)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var wantSums, wantCol []byte
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		out, err := EvalOp(sums, []*relation.Relation{floats})
		if err != nil {
			t.Fatal(err)
		}
		col := relation.NewColumnarWriter(relation.Schema{})
		if err := RunOps([]*ir.Op{fsrc, halved}, Env{"f": floats}, nil, RunOptions{Sinks: map[string]*relation.Writer{"halved": col}}); err != nil {
			t.Fatal(err)
		}
		gotSums, gotCol := out.EncodeBytes(), col.Bytes() // floats render shortest round-trip: equal text is equal bits
		if wantSums == nil {
			wantSums, wantCol = gotSums, gotCol
		}
		if !bytes.Equal(gotSums, wantSums) {
			t.Errorf("GOMAXPROCS %d: float sums\n%s\nat GOMAXPROCS 1:\n%s", procs, gotSums, wantSums)
		}
		if !bytes.Equal(gotCol, wantCol) {
			t.Errorf("GOMAXPROCS %d: the columnar sink's %d bytes differ from GOMAXPROCS 1's %d", procs, len(gotCol), len(wantCol))
		}
	}
}
