// Package ir defines Musketeer's intermediate representation: a directed
// acyclic graph of data-flow operators (paper §4.2).
//
// Front-ends (Hive, BEER, Lindi, the GAS DSL) translate workflow
// specifications into this DAG; the optimizer rewrites it; the partitioner
// splits it into back-end jobs; and code generators lower fragments of it
// into per-engine physical plans. The operator set is loosely based on
// relational algebra — SELECT, PROJECT, UNION, INTERSECT, JOIN, DIFFERENCE,
// aggregation (AGG/GROUP BY), column-level algebra (SUM, SUB, DIV, MUL) and
// extremes (MAX, MIN) — plus user-defined functions and a WHILE operator
// that dynamically extends the DAG for data-dependent iteration.
package ir

import (
	"fmt"
	"strings"

	"musketeer/internal/relation"
)

// OpType identifies an IR operator.
type OpType uint8

const (
	// OpInput is a source: a relation read from the DFS.
	OpInput OpType = iota
	// OpSelect filters rows by a predicate.
	OpSelect
	// OpProject keeps a subset of columns.
	OpProject
	// OpUnion concatenates two union-compatible relations (bag semantics).
	OpUnion
	// OpIntersect keeps rows present in both inputs (set semantics).
	OpIntersect
	// OpDifference keeps left rows absent from the right input.
	OpDifference
	// OpJoin is an equi-join on named key columns.
	OpJoin
	// OpCrossJoin is the Cartesian product (used by k-means).
	OpCrossJoin
	// OpAgg groups by key columns and applies aggregators (SUM, COUNT,
	// MIN, MAX, AVG). An empty group-by aggregates the whole relation.
	OpAgg
	// OpArith applies column-level algebra: dst = left ⊕ right, where the
	// operands are columns or literals (the paper's SUM/SUB/MUL/DIV ops).
	OpArith
	// OpDistinct removes duplicate rows.
	OpDistinct
	// OpUDF invokes a registered user-defined function.
	OpUDF
	// OpWhile iterates a body sub-DAG until a stop condition holds,
	// successively extending the data-flow graph (paper §4.2).
	OpWhile
	// OpSort orders rows by key columns. Not part of the paper's initial
	// operator set; it exists as the worked example of §4.2's "extensible
	// set of operators" — a new operator means schema inference, an
	// execution kernel, bounds, and code templates, nothing else.
	OpSort
	// OpLimit keeps the first N rows (with OpSort upstream: top-N).
	OpLimit
)

var opTypeNames = map[OpType]string{
	OpInput: "INPUT", OpSelect: "SELECT", OpProject: "PROJECT",
	OpUnion: "UNION", OpIntersect: "INTERSECT", OpDifference: "DIFFERENCE",
	OpJoin: "JOIN", OpCrossJoin: "CROSS_JOIN", OpAgg: "AGG",
	OpArith: "ARITH", OpDistinct: "DISTINCT", OpUDF: "UDF", OpWhile: "WHILE",
	OpSort: "SORT", OpLimit: "LIMIT",
}

// String returns the upper-case operator name used in plans and traces.
func (t OpType) String() string {
	if s, ok := opTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("OP(%d)", uint8(t))
}

// CmpOp is a comparison operator in predicates.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

var cmpNames = [...]string{"==", "!=", "<", "<=", ">", ">="}

// String renders the comparison symbol.
func (c CmpOp) String() string {
	if int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return "?"
}

// Eval applies the comparison to an ordering result from Value.Compare.
func (c CmpOp) Eval(cmp int) bool {
	switch c {
	case CmpEq:
		return cmp == 0
	case CmpNe:
		return cmp != 0
	case CmpLt:
		return cmp < 0
	case CmpLe:
		return cmp <= 0
	case CmpGt:
		return cmp > 0
	default:
		return cmp >= 0
	}
}

// Operand is a predicate/arithmetic operand: a column reference (optionally
// scaled by a constant, e.g. 0.2*avg_qty in TPC-H Q17) or a literal.
type Operand struct {
	IsCol bool
	Col   string
	Lit   relation.Value
	// Scale multiplies a column operand's value; zero means unscaled.
	Scale float64
}

// isInt reports whether the operand yields an Int over rows of schema in: an
// Int literal, or an unscaled column of int kind.
func (o Operand) isInt(in relation.Schema) bool {
	if !o.IsCol {
		return o.Lit.Kind == relation.KindInt
	}
	return (o.Scale == 0 || o.Scale == 1) && in.Cols[in.Index(o.Col)].Kind == relation.KindInt
}

// ColRef returns a column operand.
func ColRef(name string) Operand { return Operand{IsCol: true, Col: name} }

// ScaledCol returns a column operand multiplied by a constant.
func ScaledCol(name string, scale float64) Operand {
	return Operand{IsCol: true, Col: name, Scale: scale}
}

// LitOp returns a literal operand.
func LitOp(v relation.Value) Operand { return Operand{Lit: v} }

// String renders the operand.
func (o Operand) String() string {
	if o.IsCol {
		if o.Scale != 0 && o.Scale != 1 {
			return fmt.Sprintf("%g*%s", o.Scale, o.Col)
		}
		return o.Col
	}
	if o.Lit.Kind == relation.KindString {
		return fmt.Sprintf("%q", o.Lit.S)
	}
	return o.Lit.String()
}

// PredKind distinguishes predicate tree nodes.
type PredKind uint8

// Predicate node kinds.
const (
	PredCmp PredKind = iota
	PredAnd
	PredOr
)

// Pred is a predicate tree: comparisons combined with AND/OR.
type Pred struct {
	Kind        PredKind
	Left, Right *Pred   // for PredAnd / PredOr
	LHS, RHS    Operand // for PredCmp
	Cmp         CmpOp
}

// Cmp returns a comparison leaf.
func Cmp(lhs Operand, op CmpOp, rhs Operand) *Pred {
	return &Pred{Kind: PredCmp, LHS: lhs, Cmp: op, RHS: rhs}
}

// And conjoins two predicates.
func And(a, b *Pred) *Pred { return &Pred{Kind: PredAnd, Left: a, Right: b} }

// Or disjoins two predicates.
func Or(a, b *Pred) *Pred { return &Pred{Kind: PredOr, Left: a, Right: b} }

// String renders the predicate.
func (p *Pred) String() string {
	if p == nil {
		return "true"
	}
	switch p.Kind {
	case PredAnd:
		return "(" + p.Left.String() + " AND " + p.Right.String() + ")"
	case PredOr:
		return "(" + p.Left.String() + " OR " + p.Right.String() + ")"
	default:
		return fmt.Sprintf("%s %s %s", p.LHS, p.Cmp, p.RHS)
	}
}

// Columns appends the column names referenced by the predicate to dst.
func (p *Pred) Columns(dst []string) []string {
	if p == nil {
		return dst
	}
	if p.Kind == PredCmp {
		if p.LHS.IsCol {
			dst = append(dst, p.LHS.Col)
		}
		if p.RHS.IsCol {
			dst = append(dst, p.RHS.Col)
		}
		return dst
	}
	return p.Right.Columns(p.Left.Columns(dst))
}

// AggFunc enumerates aggregation functions.
type AggFunc uint8

// Aggregation functions.
const (
	AggSum AggFunc = iota
	AggCount
	AggMin
	AggMax
	AggAvg
)

var aggNames = [...]string{"SUM", "COUNT", "MIN", "MAX", "AVG"}

// String renders the aggregator name.
func (f AggFunc) String() string {
	if int(f) < len(aggNames) {
		return aggNames[f]
	}
	return "AGG?"
}

// AggSpec is one aggregation: Func(Col) AS As.
type AggSpec struct {
	Func AggFunc
	Col  string // ignored for COUNT
	As   string
}

// String renders the spec.
func (a AggSpec) String() string {
	return fmt.Sprintf("%s(%s) AS %s", a.Func, a.Col, a.As)
}

// ArithOp enumerates column-level algebraic operators (paper's SUM, SUB,
// DIV, MUL column operations).
type ArithOp uint8

// Column arithmetic operators.
const (
	ArithAdd ArithOp = iota
	ArithSub
	ArithMul
	ArithDiv
)

var arithNames = [...]string{"SUM", "SUB", "MUL", "DIV"}

// String renders the paper's name for the operator.
func (a ArithOp) String() string {
	if int(a) < len(arithNames) {
		return arithNames[a]
	}
	return "ARITH?"
}

// Apply evaluates the arithmetic.
func (a ArithOp) Apply(l, r relation.Value) relation.Value {
	switch a {
	case ArithAdd:
		return l.Add(r)
	case ArithSub:
		return l.Sub(r)
	case ArithMul:
		return l.Mul(r)
	default:
		return l.Div(r)
	}
}

// Params carries the operator-type-specific configuration of an Op.
// Only the fields relevant to the Op's type are set.
type Params struct {
	// OpInput
	Path   string          // DFS path of the source relation
	Schema relation.Schema // declared schema of the source

	// OpSelect
	Pred *Pred

	// OpProject
	Columns []string
	// As optionally renames the projected columns; when set it must have
	// the same length as Columns. Renaming is how loop bodies realign
	// carried relations (e.g. PageRank's "dst" back to "vertex").
	As []string

	// OpJoin
	LeftCols, RightCols []string

	// OpAgg
	GroupBy []string
	Aggs    []AggSpec

	// OpArith
	Dst          string // result column; may equal Left's column (in-place)
	ALeft, ARght Operand
	AOp          ArithOp

	// OpUDF
	UDFName string

	// OpSort
	SortBy []string
	Desc   bool

	// OpLimit
	Limit int

	// OpWhile
	Body *DAG
	// MaxIter bounds the iteration count (ITERATION_STOP in the GAS DSL).
	MaxIter int
	// CondRel, when non-empty, names a body output relation; iteration
	// additionally stops once it becomes empty (data-dependent loops,
	// e.g. SSSP convergence).
	CondRel string
	// Carried maps body input relation names to body output relation
	// names: after each iteration, output[v] becomes next iteration's
	// input[k].
	Carried map[string]string
}

// MaxCondIters caps a WHILE that sets no MaxIter: its CondRel must end it
// within this many rounds on every engine, native or driver-looped, or the
// loop fails as non-convergent. The estimator treats a larger MaxIter as no
// bound at all.
const MaxCondIters = 1 << 20

// Provenance records which front-end framework produced an operator and
// the source line it was translated from. Diagnostics use it to point the
// user back at their workflow text rather than at IR internals. The zero
// value means "unknown" (hand-built DAGs).
type Provenance struct {
	Frontend string
	Line     int
}

// String renders "frontend:line", or just the front-end name when no line
// is known, or "" for the zero value.
func (p Provenance) String() string {
	if p.Frontend == "" {
		return ""
	}
	if p.Line <= 0 {
		return p.Frontend
	}
	return fmt.Sprintf("%s:%d", p.Frontend, p.Line)
}

// Op is one node of the IR DAG. Inputs are edges to producing operators;
// Out names the operator's output relation (unique within a DAG).
type Op struct {
	ID     int
	Type   OpType
	Out    string
	Inputs []*Op
	Params Params
	// Prov is the front-end provenance of the operator, if known.
	Prov Provenance
}

// stampProv fills in provenance on the operator and (recursively) its WHILE
// body, without overwriting provenance already stamped by a nested parser.
func (o *Op) stampProv(frontend string, line int) {
	if o.Prov.Frontend == "" {
		o.Prov = Provenance{Frontend: frontend, Line: line}
	}
	if o.Params.Body != nil {
		for _, bop := range o.Params.Body.Ops {
			bop.stampProv(frontend, line)
		}
	}
}

// String renders a compact description for plans and error messages.
func (o *Op) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s#%d(%s", o.Type, o.ID, o.Out)
	if len(o.Inputs) > 0 {
		b.WriteString(" <-")
		for _, in := range o.Inputs {
			b.WriteByte(' ')
			b.WriteString(in.Out)
		}
	}
	b.WriteByte(')')
	return b.String()
}
