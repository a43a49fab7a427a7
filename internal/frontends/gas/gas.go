// Package gas implements Musketeer's Gather-Apply-Scatter DSL front-end
// (paper §4.1.2, Listing 2). Users define a graph computation as three
// steps of relational operators / column algebra, plus an iteration bound:
//
//	GATHER = {
//	    SUM(vertex_value)
//	}
//	APPLY = {
//	    MUL [vertex_value, 0.85]
//	    SUM [vertex_value, 0.15]
//	}
//	SCATTER = {
//	    DIV [vertex_value, vertex_degree]
//	}
//	ITERATION_STOP = (iteration < 20)
//	ITERATION = {
//	    SUM [iteration, 1]
//	}
//
// Translation to the IR follows the paper's reverse-GraphX mapping
// (§4.3.1): the scatter step becomes a JOIN of the vertex state with the
// edge set on the vertex column (sending messages along edges), the gather
// step a GROUP BY on the destination vertex with the gather aggregation
// (receiving messages), and the apply step the remaining operators.
// The resulting WHILE body matches the graph idiom by construction, so
// vertex-centric back-ends (PowerGraph, GraphChi) are eligible targets.
//
// Data conventions: the vertex relation is (vertex:int, vertex_value:float);
// the edge relation is (src:int, dst:int, ...) and carries any per-edge or
// per-source columns the steps reference (e.g. vertex_degree, cost).
package gas

import (
	"fmt"
	"strings"

	"musketeer/internal/frontends"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// Config names the catalogued vertex and edge tables the program runs over.
type Config struct {
	// Vertices / Edges are catalog table names.
	Vertices, Edges string
	// Output names the WHILE operator's output relation (default
	// "gas_result").
	Output string
}

type step struct {
	ariths []arithSpec
	aggs   []ir.AggSpec
}

type arithSpec struct {
	op       ir.ArithOp
	dst      string
	lhs, rhs ir.Operand
}

// Parse translates a GAS DSL program into an IR DAG containing a single
// WHILE operator over the configured vertex and edge tables. It returns the
// front-end's own parse errors only: the DAG's schemas, loops and engine
// feasibility are checked once, by internal/analysis, when the workflow is
// compiled.
func Parse(src string, cat frontends.Catalog, cfg Config) (*ir.DAG, error) {
	vTbl, ok := cat[cfg.Vertices]
	if !ok {
		return nil, fmt.Errorf("gas: vertices table %q not in catalog", cfg.Vertices)
	}
	eTbl, ok := cat[cfg.Edges]
	if !ok {
		return nil, fmt.Errorf("gas: edges table %q not in catalog", cfg.Edges)
	}
	if vTbl.Schema.Index("vertex") < 0 || vTbl.Schema.Index("vertex_value") < 0 {
		return nil, fmt.Errorf("gas: vertices schema %s must have (vertex, vertex_value)", vTbl.Schema)
	}
	if eTbl.Schema.Index("src") < 0 || eTbl.Schema.Index("dst") < 0 {
		return nil, fmt.Errorf("gas: edges schema %s must have (src, dst)", eTbl.Schema)
	}

	lex := frontends.NewLexer(src)
	var gather, apply, scatter step
	maxIter := 0
	seen := map[string]bool{}
	for {
		t, err := lex.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == frontends.TokEOF {
			break
		}
		if t.Kind != frontends.TokIdent {
			return nil, fmt.Errorf("gas: line %d: expected section name, got %q", t.Line, t.Text)
		}
		section := strings.ToUpper(t.Text)
		if seen[section] {
			return nil, fmt.Errorf("gas: duplicate section %s", section)
		}
		seen[section] = true
		if _, err := lex.Expect(frontends.TokSymbol, "="); err != nil {
			return nil, err
		}
		switch section {
		case "GATHER":
			gather, err = parseStep(lex, true)
		case "APPLY":
			apply, err = parseStep(lex, false)
		case "SCATTER":
			scatter, err = parseStep(lex, false)
		case "ITERATION":
			_, err = parseStep(lex, false) // counter update; implicit in the driver
		case "ITERATION_STOP":
			maxIter, err = parseStop(lex)
		default:
			return nil, fmt.Errorf("gas: line %d: unknown section %q", t.Line, t.Text)
		}
		if err != nil {
			return nil, err
		}
	}
	if len(gather.aggs) == 0 {
		return nil, fmt.Errorf("gas: GATHER must declare an aggregation")
	}
	if maxIter <= 0 {
		return nil, fmt.Errorf("gas: ITERATION_STOP missing or non-positive")
	}

	out := cfg.Output
	if out == "" {
		out = "gas_result"
	}
	dag := ir.NewDAG()
	vertices := dag.AddInput(cfg.Vertices, vTbl.Path, vTbl.Schema)
	edges := dag.AddInput(cfg.Edges, eTbl.Path, eTbl.Schema)

	body := ir.NewDAG()
	bV := body.AddInput(cfg.Vertices, "", relation.Schema{})
	bE := body.AddInput(cfg.Edges, "", relation.Schema{})

	// Scatter: send state along edges — JOIN vertex state with edges on
	// vertex = src, then the scatter column algebra.
	cur := body.Add(ir.OpJoin, "__sent", ir.Params{LeftCols: []string{"vertex"}, RightCols: []string{"src"}}, bV, bE)
	cur, err := addAriths(body, cur, "__scatter", scatter.ariths)
	if err != nil {
		return nil, err
	}
	// Gather: receive — GROUP BY destination with the gather aggregation.
	aggs := make([]ir.AggSpec, len(gather.aggs))
	copy(aggs, gather.aggs)
	cur = body.Add(ir.OpAgg, "__gathered", ir.Params{GroupBy: []string{"dst"}, Aggs: aggs}, cur)
	// Apply: update vertex state.
	cur, err = addAriths(body, cur, "__apply", apply.ariths)
	if err != nil {
		return nil, err
	}
	body.Add(ir.OpProject, "__new_vertices", ir.Params{
		Columns: []string{"dst", "vertex_value"},
		As:      []string{"vertex", "vertex_value"},
	}, cur)

	dag.Add(ir.OpWhile, out, ir.Params{
		Body:    body,
		MaxIter: maxIter,
		Carried: map[string]string{cfg.Vertices: "__new_vertices"},
	}, vertices, edges)
	// The whole program lowers to one WHILE, so every operator shares the
	// front-end provenance (no useful per-section line mapping survives).
	dag.StampProv("gas", 0, 0)
	return dag, nil
}

func addAriths(body *ir.DAG, cur *ir.Op, prefix string, specs []arithSpec) (*ir.Op, error) {
	for i, a := range specs {
		cur = body.Add(ir.OpArith, fmt.Sprintf("%s_%d", prefix, i), ir.Params{
			Dst: a.dst, ALeft: a.lhs, ARght: a.rhs, AOp: a.op,
		}, cur)
	}
	return cur, nil
}

// parseStep reads `{ item* }` where items are either aggregations
// `FUNC(col)` (gather steps) or column algebra `FUNC [col, operand]`.
func parseStep(lex *frontends.Lexer, gatherStep bool) (step, error) {
	var st step
	if _, err := lex.Expect(frontends.TokSymbol, "{"); err != nil {
		return st, err
	}
	for {
		t, err := lex.Next()
		if err != nil {
			return st, err
		}
		if t.Kind == frontends.TokSymbol && t.Text == "}" {
			return st, nil
		}
		if t.Kind != frontends.TokIdent {
			return st, fmt.Errorf("gas: line %d: expected operator, got %q", t.Line, t.Text)
		}
		next, err := lex.Peek()
		if err != nil {
			return st, err
		}
		switch {
		case next.Kind == frontends.TokSymbol && next.Text == "(":
			// Aggregation form FUNC(col).
			lex.Next()
			col, err := lex.Next()
			if err != nil {
				return st, err
			}
			if _, err := lex.Expect(frontends.TokSymbol, ")"); err != nil {
				return st, err
			}
			fn, ok := frontends.AggFunc(t.Text)
			if !ok {
				return st, fmt.Errorf("gas: line %d: unknown aggregation %q", t.Line, t.Text)
			}
			if !gatherStep {
				return st, fmt.Errorf("gas: line %d: aggregation %q only allowed in GATHER", t.Line, t.Text)
			}
			st.aggs = append(st.aggs, ir.AggSpec{Func: fn, Col: col.Text, As: col.Text})
		case next.Kind == frontends.TokSymbol && next.Text == "[":
			// Column algebra FUNC [col, operand].
			lex.Next()
			colTok, err := lex.Next()
			if err != nil {
				return st, err
			}
			if _, err := lex.Expect(frontends.TokSymbol, ","); err != nil {
				return st, err
			}
			opTok, err := lex.Next()
			if err != nil {
				return st, err
			}
			if _, err := lex.Expect(frontends.TokSymbol, "]"); err != nil {
				return st, err
			}
			var aop ir.ArithOp
			switch strings.ToUpper(t.Text) {
			case "SUM":
				aop = ir.ArithAdd
			case "SUB":
				aop = ir.ArithSub
			case "MUL":
				aop = ir.ArithMul
			case "DIV":
				aop = ir.ArithDiv
			default:
				return st, fmt.Errorf("gas: line %d: unknown algebra op %q", t.Line, t.Text)
			}
			var rhs ir.Operand
			if opTok.Kind == frontends.TokIdent {
				rhs = ir.ColRef(opTok.Text)
			} else {
				v, err := frontends.ParseLiteral(opTok)
				if err != nil {
					return st, err
				}
				rhs = ir.LitOp(v)
			}
			st.ariths = append(st.ariths, arithSpec{op: aop, dst: colTok.Text, lhs: ir.ColRef(colTok.Text), rhs: rhs})
		default:
			return st, fmt.Errorf("gas: line %d: expected '(' or '[' after %q", t.Line, t.Text)
		}
	}
}

// parseStop reads `(iteration < N)`.
func parseStop(lex *frontends.Lexer) (int, error) {
	if _, err := lex.Expect(frontends.TokSymbol, "("); err != nil {
		return 0, err
	}
	if _, err := lex.Expect(frontends.TokIdent, "iteration"); err != nil {
		return 0, err
	}
	if _, err := lex.Expect(frontends.TokSymbol, "<"); err != nil {
		return 0, err
	}
	nTok, err := lex.Next()
	if err != nil {
		return 0, err
	}
	lit, err := frontends.ParseLiteral(nTok)
	if err != nil {
		return 0, err
	}
	if _, err := lex.Expect(frontends.TokSymbol, ")"); err != nil {
		return 0, err
	}
	return int(lit.AsInt()), nil
}
