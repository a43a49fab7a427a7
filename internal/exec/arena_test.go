package exec

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// TestRecycledArenasMatchFirstUse: pipelines computing on recycled storage —
// readers' slabs and headers, stage arenas, match lists — compute what they
// compute on new storage. Every generated DAG runs with its inputs streamed
// from DFS files, every pipeline split into two halves, in batches of 3 rows
// and of the default size: first with every pool emptied before each run,
// then again after pipelines over another schema (strings and floats, in
// every small size class) have left their cells in the pools. Each relation
// the second runs keep must equal the first's cell for cell, float bits and
// cached widths included.
func TestRecycledArenasMatchFirstUse(t *testing.T) {
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
