package engines

import (
	"fmt"
	"strings"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// dialect selects the target language/API for generated code. Musketeer
// instantiates per-(operator, back-end) code templates and concatenates
// them into a job (paper §4.3); renderSource is that template engine.
type dialect uint8

const (
	dialectSpark dialect = iota
	dialectNaiad
	dialectHadoop
	dialectMetis
	dialectPowerGraph
	dialectGraphChi
	dialectC
)

// Language names the implementation language of the engine's generated
// code (the language column of paper Table 3).
func (e *Engine) Language() string {
	switch e.dialect {
	case dialectSpark:
		return "Scala"
	case dialectNaiad:
		return "C#"
	case dialectHadoop:
		return "Java"
	case dialectC:
		return "C"
	default: // Metis, PowerGraph, GraphChi, X-Stream
		return "C++"
	}
}

func renderSource(d dialect, p *Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// musketeer-generated %s code for job %q (%s)\n",
		p.Engine.Name(), p.Frag.Name(), p.Mode)
	var ins, outs []string
	for _, op := range p.Frag.ExtIn {
		ins = append(ins, op.Out)
	}
	for _, op := range p.Frag.ExtOut {
		outs = append(outs, op.Out)
	}
	fmt.Fprintf(&b, "// reads: %s  writes: %s\n", strings.Join(ins, ", "), strings.Join(outs, ", "))
	if p.Iterative && p.While != nil {
		fmt.Fprintf(&b, "// native iteration: max %d iterations", p.While.Params.MaxIter)
		if p.While.Params.CondRel != "" {
			fmt.Fprintf(&b, ", loop while %q non-empty", p.While.Params.CondRel)
		}
		b.WriteByte('\n')
	}
	// Look-ahead type inference (paper §4.3.4): optimized and
	// hand-written code is rendered with the inferred tuple types;
	// naive per-operator templates fall back to untyped rows.
	var schemas map[*ir.Op]relation.Schema
	if p.Mode != ModeNaive {
		schemas, _ = p.Frag.Schemas()
	}
	switch d {
	case dialectSpark, dialectNaiad:
		renderFunctional(&b, d, p, schemas)
	case dialectHadoop, dialectMetis:
		renderMapReduce(&b, p, schemas)
	case dialectPowerGraph, dialectGraphChi:
		renderGAS(&b, p)
	default:
		renderC(&b, p)
	}
	return b.String()
}

// tupleType renders a schema as a generated-code tuple type, e.g.
// "(id: Long, street: String, price: Double)". Unknown schemas render as
// the untyped row type — which is exactly what naive codegen emits.
func tupleType(schemas map[*ir.Op]relation.Schema, op *ir.Op) string {
	if schemas == nil {
		return "Row"
	}
	schema, ok := schemas[op]
	if !ok {
		return "Row"
	}
	parts := make([]string, len(schema.Cols))
	for i, c := range schema.Cols {
		parts[i] = c.Name + ": " + typeName(c.Kind)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func typeName(k relation.Kind) string {
	switch k {
	case relation.KindInt:
		return "Long"
	case relation.KindFloat:
		return "Double"
	default:
		return "String"
	}
}

// renderFunctional emits Scala-like (Spark) / C#-like (Naiad) dataflow
// code: one chained expression per stage when scans are shared, one binding
// per operator when naive. With look-ahead type inference the bindings are
// annotated with inferred tuple types; naive code works on untyped rows.
func renderFunctional(b *strings.Builder, d dialect, p *Plan, schemas map[*ir.Op]relation.Schema) {
	decl, read, write := "val", "sc.textFile", "saveAsTextFile"
	if d == dialectNaiad {
		decl, read, write = "var", "controller.ReadFromHDFS", "WriteToHDFS"
	}
	bind := func(op *ir.Op) string {
		if schemas == nil {
			return fmt.Sprintf("%s %s", decl, op.Out)
		}
		return fmt.Sprintf("%s %s: Collection[%s]", decl, op.Out, tupleType(schemas, op))
	}
	for _, in := range p.Frag.ExtIn {
		fmt.Fprintf(b, "%s = %s(%q)\n", bind(in), read, "hdfs://"+InputPath(in))
	}
	for _, st := range p.Stages() {
		if len(st.Ops) == 1 || p.Mode == ModeNaive {
			for _, op := range st.Ops {
				fmt.Fprintf(b, "%s = %s\n", bind(op), functionalExpr(d, op))
			}
			continue
		}
		// Shared scan: fuse the stage into one chained expression
		// (paper Listing 4: the maps collapse into one pass).
		last := st.Ops[len(st.Ops)-1]
		var chain strings.Builder
		chain.WriteString(functionalExpr(d, st.Ops[0]))
		for _, op := range st.Ops[1:] {
			chain.WriteString("\n    ." + chainedExpr(d, op))
		}
		fmt.Fprintf(b, "%s = %s // fused: shared scan + inferred types\n", bind(last), chain.String())
	}
	for _, out := range p.Frag.ExtOut {
		fmt.Fprintf(b, "%s.%s(%q)\n", out.Out, write, "hdfs://out/"+out.Out)
	}
}

func functionalExpr(d dialect, op *ir.Op) string {
	in := func(i int) string {
		if i < len(op.Inputs) {
			return op.Inputs[i].Out
		}
		return "?"
	}
	switch op.Type {
	case ir.OpSelect:
		return fmt.Sprintf("%s.filter(r => %s)", in(0), op.Params.Pred)
	case ir.OpProject:
		return fmt.Sprintf("%s.map(r => (%s))", in(0), strings.Join(op.Params.Columns, ", "))
	case ir.OpJoin:
		return fmt.Sprintf("%s.map(l => (l.%s, l)).join(%s.map(r => (r.%s, r))).map((k, (l, r)) => flatten(k, l, r))",
			in(0), strings.Join(op.Params.LeftCols, "."), in(1), strings.Join(op.Params.RightCols, "."))
	case ir.OpCrossJoin:
		return fmt.Sprintf("%s.cartesian(%s)", in(0), in(1))
	case ir.OpAgg:
		aggs := make([]string, len(op.Params.Aggs))
		for i, a := range op.Params.Aggs {
			aggs[i] = a.String()
		}
		return fmt.Sprintf("%s.map(r => ((%s), r)).reduceByKey((a, b) => [%s])",
			in(0), strings.Join(op.Params.GroupBy, ", "), strings.Join(aggs, ", "))
	case ir.OpArith:
		return fmt.Sprintf("%s.map(r => { r.%s = %s %s %s; r })",
			in(0), op.Params.Dst, op.Params.ALeft, arithSym(op.Params.AOp), op.Params.ARght)
	case ir.OpUnion:
		return fmt.Sprintf("%s.union(%s)", in(0), in(1))
	case ir.OpIntersect:
		return fmt.Sprintf("%s.intersection(%s)", in(0), in(1))
	case ir.OpDifference:
		return fmt.Sprintf("%s.subtract(%s)", in(0), in(1))
	case ir.OpDistinct:
		return fmt.Sprintf("%s.distinct()", in(0))
	case ir.OpSort:
		dir := "ascending"
		if op.Params.Desc {
			dir = "descending"
		}
		return fmt.Sprintf("%s.sortBy(r => (%s), %s)", in(0), strings.Join(op.Params.SortBy, ", "), dir)
	case ir.OpLimit:
		return fmt.Sprintf("%s.take(%d)", in(0), op.Params.Limit)
	case ir.OpUDF:
		return fmt.Sprintf("udf_%s(%s)", op.Params.UDFName, in(0))
	default:
		return fmt.Sprintf("/* %s */", op)
	}
}

// chainedExpr renders the operator as a method chained onto the previous
// stage result (the fused form: no re-keying map, types inferred ahead).
func chainedExpr(d dialect, op *ir.Op) string {
	switch op.Type {
	case ir.OpSelect:
		return fmt.Sprintf("filter(r => %s)", op.Params.Pred)
	case ir.OpProject:
		return fmt.Sprintf("map(r => (%s))", strings.Join(op.Params.Columns, ", "))
	case ir.OpAgg:
		aggs := make([]string, len(op.Params.Aggs))
		for i, a := range op.Params.Aggs {
			aggs[i] = a.String()
		}
		return fmt.Sprintf("reduceByKey((a, b) => [%s]) /* key (%s) prepared upstream */",
			strings.Join(aggs, ", "), strings.Join(op.Params.GroupBy, ", "))
	case ir.OpArith:
		return fmt.Sprintf("map(r => { r.%s = %s %s %s; r })",
			op.Params.Dst, op.Params.ALeft, arithSym(op.Params.AOp), op.Params.ARght)
	case ir.OpJoin:
		return fmt.Sprintf("join(%s) /* pre-keyed on (%s) */", op.Inputs[1].Out, strings.Join(op.Params.RightCols, ", "))
	case ir.OpDistinct:
		return "distinct()"
	default:
		return strings.TrimPrefix(functionalExpr(d, op), op.Inputs[0].Out+".")
	}
}

func arithSym(a ir.ArithOp) string {
	switch a {
	case ir.ArithAdd:
		return "+"
	case ir.ArithSub:
		return "-"
	case ir.ArithMul:
		return "*"
	default:
		return "/"
	}
}

// renderMapReduce emits a Java-like (Hadoop) / C++-like (Metis) job
// description: map-phase pipeline, the shuffle key, reduce-phase pipeline.
// With type inference, each stage declares the tuple type it emits.
func renderMapReduce(b *strings.Builder, p *Plan, schemas map[*ir.Op]relation.Schema) {
	for si, st := range p.Stages() {
		var mapOps, reduceOps []*ir.Op
		var shuffle *ir.Op
		for _, op := range st.Ops {
			switch {
			case ir.IsShuffleOp(op.Type) && shuffle == nil:
				shuffle = op
			case shuffle == nil:
				mapOps = append(mapOps, op)
			default:
				reduceOps = append(reduceOps, op)
			}
		}
		fmt.Fprintf(b, "class Stage%dMapper extends Mapper {\n", si)
		fmt.Fprintf(b, "  void map(Row r) {\n")
		for _, op := range mapOps {
			fmt.Fprintf(b, "    // %s\n    r = %s(r);\n", op.Type, strings.ToLower(op.Type.String()))
		}
		if shuffle != nil {
			fmt.Fprintf(b, "    emit(key(%s), r); // shuffle for %s\n", shuffleKey(shuffle), shuffle.Type)
		} else {
			fmt.Fprintf(b, "    emit(r); // map-only stage\n")
		}
		fmt.Fprintf(b, "  }\n}\n")
		if shuffle != nil {
			fmt.Fprintf(b, "class Stage%dReducer extends Reducer {\n", si)
			fmt.Fprintf(b, "  // emits: %s\n", tupleType(schemas, st.Ops[len(st.Ops)-1]))
			fmt.Fprintf(b, "  void reduce(Key k, Iterable<Row> rows) {\n")
			fmt.Fprintf(b, "    // %s: %s\n", shuffle.Type, shuffleDetail(shuffle))
			for _, op := range reduceOps {
				fmt.Fprintf(b, "    // fused reduce-side %s (%s)\n", op.Type, op.Out)
			}
			fmt.Fprintf(b, "  }\n}\n")
		}
	}
}

func shuffleKey(op *ir.Op) string {
	switch op.Type {
	case ir.OpJoin:
		return strings.Join(op.Params.LeftCols, ", ")
	case ir.OpAgg:
		return strings.Join(op.Params.GroupBy, ", ")
	case ir.OpSort:
		return strings.Join(op.Params.SortBy, ", ")
	default:
		return "row"
	}
}

func shuffleDetail(op *ir.Op) string {
	switch op.Type {
	case ir.OpJoin:
		return fmt.Sprintf("join %s with %s", op.Inputs[0].Out, op.Inputs[1].Out)
	case ir.OpAgg:
		aggs := make([]string, len(op.Params.Aggs))
		for i, a := range op.Params.Aggs {
			aggs[i] = a.String()
		}
		return strings.Join(aggs, ", ")
	default:
		return op.Type.String()
	}
}

// renderGAS emits a C++-like vertex program from the detected graph idiom.
func renderGAS(b *strings.Builder, p *Plan) {
	idiom := ir.DetectGraphIdiom(p.While)
	if idiom == nil {
		fmt.Fprintf(b, "// ERROR: no graph idiom\n")
		return
	}
	fmt.Fprintf(b, "struct vertex_program : public ivertex_program {\n")
	fmt.Fprintf(b, "  gather_type gather(vertex v, edge e) const {\n")
	for _, a := range idiom.Gather.Params.Aggs {
		fmt.Fprintf(b, "    return %s(e.source().data()); // %s\n", strings.ToLower(a.Func.String()), a)
	}
	fmt.Fprintf(b, "  }\n  void apply(vertex v, const gather_type& total) {\n")
	for _, op := range bodyComputeOps(p.While) {
		if op.Type == ir.OpArith {
			fmt.Fprintf(b, "    v.data().%s = %s %s %s;\n",
				op.Params.Dst, op.Params.ALeft, arithSym(op.Params.AOp), op.Params.ARght)
		}
	}
	fmt.Fprintf(b, "  }\n  void scatter(vertex v, edge e) const {\n")
	fmt.Fprintf(b, "    e.target().signal(); // join on %s\n", strings.Join(idiom.Scatter.Params.LeftCols, ", "))
	fmt.Fprintf(b, "  }\n};\n")
	fmt.Fprintf(b, "// engine.run(vertex_program, max_iter=%d)\n", p.While.Params.MaxIter)
}

// renderC emits a single-threaded C sketch.
func renderC(b *strings.Builder, p *Plan) {
	fmt.Fprintf(b, "int main(void) {\n")
	for _, in := range p.Frag.ExtIn {
		fmt.Fprintf(b, "  table_t *%s = load_tsv(%q);\n", cIdent(in.Out), InputPath(in))
	}
	if p.While != nil {
		fmt.Fprintf(b, "  for (int iter = 0; iter < %d; iter++) {\n", p.While.Params.MaxIter)
	}
	for _, st := range p.Stages() {
		for _, op := range st.Ops {
			fmt.Fprintf(b, "  %stable_t *%s = %s(%s); /* %s */\n",
				indentIf(p.While != nil), cIdent(op.Out), strings.ToLower(op.Type.String()),
				cInputs(op), opDetail(op))
		}
	}
	if p.While != nil {
		fmt.Fprintf(b, "  }\n")
	}
	for _, out := range p.Frag.ExtOut {
		fmt.Fprintf(b, "  write_tsv(%s, \"out/%s\");\n", cIdent(out.Out), out.Out)
	}
	fmt.Fprintf(b, "  return 0;\n}\n")
}

func indentIf(cond bool) string {
	if cond {
		return "  "
	}
	return ""
}

func cIdent(s string) string {
	return strings.NewReplacer("-", "_", "/", "_", ".", "_", "+", "_").Replace(s)
}

func cInputs(op *ir.Op) string {
	names := make([]string, len(op.Inputs))
	for i, in := range op.Inputs {
		names[i] = cIdent(in.Out)
	}
	return strings.Join(names, ", ")
}

func opDetail(op *ir.Op) string {
	switch op.Type {
	case ir.OpSelect:
		return op.Params.Pred.String()
	case ir.OpProject:
		return strings.Join(op.Params.Columns, ",")
	case ir.OpJoin:
		return fmt.Sprintf("on %s=%s", strings.Join(op.Params.LeftCols, ","), strings.Join(op.Params.RightCols, ","))
	case ir.OpAgg:
		return fmt.Sprintf("group by %s", strings.Join(op.Params.GroupBy, ","))
	case ir.OpSort:
		return fmt.Sprintf("order by %s", strings.Join(op.Params.SortBy, ","))
	case ir.OpLimit:
		return fmt.Sprintf("first %d", op.Params.Limit)
	default:
		return op.Type.String()
	}
}
