package ir_test

import (
	"fmt"
	"testing"

	"musketeer/internal/exec"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// TestArithDeclaresWhatItComputes: for every operator, pair of operands (int,
// float and string columns, each unscaled, scaled by 1 and by 2.5, and int and
// float literals) and destination (each input column in place, or a new one),
// the kind OutputSchema declares for the result column is the kind of the
// value the exec kernel computes into it. A writer stores a cell by its
// column's kind, so a mismatch changes the value at the next job boundary.
func TestArithDeclaresWhatItComputes(t *testing.T) {
	sch := relation.NewSchema("i:int", "f:float", "s:string")
	in := relation.New("t", sch)
	in.MustAppend(relation.Row{relation.Int(4), relation.Float(2.5), relation.Str("x")})
	var operands []ir.Operand
	for _, col := range []string{"i", "f", "s"} {
		for _, scale := range []float64{0, 1, 2.5} {
			operands = append(operands, ir.ScaledCol(col, scale))
		}
	}
	operands = append(operands, ir.LitOp(relation.Int(3)), ir.LitOp(relation.Float(1.5)))
	cases := 0
	for _, aop := range []ir.ArithOp{ir.ArithAdd, ir.ArithSub, ir.ArithMul, ir.ArithDiv} {
		for _, l := range operands {
			for _, r := range operands {
				for _, dst := range []string{"i", "f", "s", "new"} {
					d := ir.NewDAG()
					op := d.Add(ir.OpArith, "out", ir.Params{Dst: dst, ALeft: l, ARght: r, AOp: aop}, d.AddInput("t", "in/t", sch))
					label := fmt.Sprintf("%s = %s %s %s", dst, l, aop, r)
					declared, err := ir.OutputSchema(op, map[*ir.Op]relation.Schema{op.Inputs[0]: sch})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					out, err := exec.EvalOp(op, []*relation.Relation{in})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					j := declared.Index(dst)
					if got, want := out.Rows[0][j].Kind, declared.Cols[j].Kind; got != want {
						t.Errorf("%s: declared %s, computed %s (%v)", label, want, got, out.Rows[0][j])
					}
					cases++
				}
			}
		}
	}
	if cases != 4*11*11*4 {
		t.Fatalf("%d cases", cases)
	}
}
