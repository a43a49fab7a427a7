// Package beer implements BEER, Musketeer's own SQL-like workflow DSL with
// iteration support (paper §4.1.1). The paper does not publish BEER's
// grammar, so this dialect is our reconstruction: statement-per-line
// assignments whose right-hand sides mirror the IR operator set, plus a
// WHILE block for data-dependent iteration.
//
//	locs    = SELECT id, street, town FROM properties;
//	eu      = SELECT * FROM purchases WHERE region == "EU" AND value > 10;
//	j       = JOIN locs, prices ON id = id;
//	total   = AGG SUM(value) AS total FROM j GROUP BY uid;
//	top     = SELECT * FROM total WHERE total > 1000;
//	both    = INTERSECT a, b;            # also UNION, DIFFERENCE, DISTINCT
//	scaled  = MUL [rank, 0.85] FROM g;   # in-place column algebra
//	shifted = SUM [rank, 0.15] FROM scaled;
//	renamed = PROJECT dst AS vertex, rank FROM applied;
//	final   = WHILE (iteration < 20) CARRY ranks = new_ranks {
//	    ...statements defining new_ranks from ranks...
//	};
//
// WHILE blocks may also declare `UNTILEMPTY rel` to stop once a body
// relation becomes empty (e.g. SSSP frontier convergence). Identifiers
// resolve against earlier statements, then the enclosing scope (inside
// WHILE), then the catalog.
package beer

import (
	"fmt"
	"strings"

	"musketeer/internal/frontends"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

type parser struct {
	lex   *frontends.Lexer
	cat   frontends.Catalog
	dag   *ir.DAG
	rels  map[string]*ir.Op
	outer *parser // non-nil inside a WHILE body
	// whileInputs collects, for a body parser, the outer operators the
	// body references (they become the WHILE op's inputs).
	whileInputs []*ir.Op
}

// Parse translates a BEER workflow into an IR DAG.
// It returns the front-end's own parse errors only: the DAG's schemas,
// loops and engine feasibility are checked once, by internal/analysis,
// when the workflow is compiled.
func Parse(src string, cat frontends.Catalog) (*ir.DAG, error) {
	p := &parser{lex: frontends.NewLexer(src), cat: cat, dag: ir.NewDAG(), rels: map[string]*ir.Op{}}
	if err := p.statements(func() (bool, error) {
		t, err := p.lex.Peek()
		return t.Kind == frontends.TokEOF, err
	}); err != nil {
		return nil, err
	}
	if len(p.dag.Ops) == 0 {
		return nil, fmt.Errorf("beer: empty workflow")
	}
	return p.dag, nil
}

func (p *parser) statements(done func() (bool, error)) error {
	for {
		stop, err := done()
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
		t, err := p.lex.Peek()
		if err != nil {
			return err
		}
		mark := len(p.dag.Ops)
		if err := p.statement(); err != nil {
			return err
		}
		// Stamp provenance per statement; body parsers run this same loop
		// over their own DAG, so loop-body operators get their own lines.
		p.dag.StampProv("beer", t.Line, mark)
	}
}

func (p *parser) statement() error {
	nameTok, err := p.lex.Next()
	if err != nil {
		return err
	}
	if nameTok.Kind != frontends.TokIdent {
		return fmt.Errorf("beer: line %d: expected relation name, got %q", nameTok.Line, nameTok.Text)
	}
	if _, err := p.lex.Expect(frontends.TokSymbol, "="); err != nil {
		return err
	}
	kw, err := p.lex.Next()
	if err != nil {
		return err
	}
	name := nameTok.Text
	switch strings.ToUpper(kw.Text) {
	case "SELECT":
		return p.selectStmt(name)
	case "PROJECT":
		return p.projectStmt(name)
	case "JOIN":
		return p.binaryKeyed(name, ir.OpJoin)
	case "CROSS":
		return p.binaryPlain(name, ir.OpCrossJoin)
	case "UNION":
		return p.binaryPlain(name, ir.OpUnion)
	case "INTERSECT":
		return p.binaryPlain(name, ir.OpIntersect)
	case "DIFFERENCE":
		return p.binaryPlain(name, ir.OpDifference)
	case "DISTINCT":
		return p.unaryPlain(name, ir.OpDistinct)
	case "AGG":
		return p.aggStmt(name)
	case "SUM", "SUB", "MUL", "DIV":
		return p.arithStmt(name, kw.Text)
	case "SORT":
		return p.sortStmt(name)
	case "LIMIT":
		return p.limitStmt(name)
	case "UDF":
		return p.udfStmt(name)
	case "WHILE":
		return p.whileStmt(name)
	default:
		return fmt.Errorf("beer: line %d: unknown operator %q", kw.Line, kw.Text)
	}
}

// resolve finds the producer of a relation name: current scope, enclosing
// WHILE scopes (creating a body INPUT bridge), then the catalog.
func (p *parser) resolve(name string) (*ir.Op, error) {
	if op, ok := p.rels[name]; ok {
		return op, nil
	}
	if p.outer != nil {
		outerOp, err := p.outer.resolve(name)
		if err == nil {
			bridge := p.dag.AddInput(name, "", relation.Schema{})
			p.rels[name] = bridge
			p.whileInputs = append(p.whileInputs, outerOp)
			return bridge, nil
		}
	}
	if tbl, ok := p.cat[name]; ok {
		op := p.dag.AddInput(name, tbl.Path, tbl.Schema)
		p.rels[name] = op
		return op, nil
	}
	return nil, fmt.Errorf("beer: unknown relation %q", name)
}

func (p *parser) define(name string, op *ir.Op) error {
	if _, ok := p.rels[name]; ok {
		return fmt.Errorf("beer: relation %q redefined", name)
	}
	p.rels[name] = op
	return p.semi()
}

func (p *parser) semi() error {
	_, err := p.lex.Expect(frontends.TokSymbol, ";")
	return err
}

func (p *parser) ident() (string, error) {
	t, err := p.lex.Next()
	if err != nil {
		return "", err
	}
	if t.Kind != frontends.TokIdent {
		return "", fmt.Errorf("beer: line %d: expected identifier, got %q", t.Line, t.Text)
	}
	return t.Text, nil
}

// selectStmt: SELECT cols|* FROM rel [WHERE pred]
func (p *parser) selectStmt(name string) error {
	var cols, aliases []string
	star := false
	renamed := false
	if p.lex.Accept(frontends.TokSymbol, "*") {
		star = true
	} else {
		for {
			c, err := p.ident()
			if err != nil {
				return err
			}
			alias := c
			if p.lex.Accept(frontends.TokIdent, "AS") {
				alias, err = p.ident()
				if err != nil {
					return err
				}
				renamed = true
			}
			cols = append(cols, c)
			aliases = append(aliases, alias)
			if !p.lex.Accept(frontends.TokSymbol, ",") {
				break
			}
		}
	}
	if _, err := p.lex.Expect(frontends.TokIdent, "FROM"); err != nil {
		return err
	}
	srcName, err := p.ident()
	if err != nil {
		return err
	}
	src, err := p.resolve(srcName)
	if err != nil {
		return err
	}
	cur := src
	if p.lex.Accept(frontends.TokIdent, "WHERE") {
		pred, err := frontends.ParsePredicate(p.lex, "beer", p.operand)
		if err != nil {
			return err
		}
		out := name
		if !star {
			out = "__" + name + "_where"
		}
		cur = p.dag.Add(ir.OpSelect, out, ir.Params{Pred: pred}, cur)
		if star {
			return p.define(name, cur)
		}
	} else if star {
		return fmt.Errorf("beer: SELECT * FROM %s without WHERE is a no-op", srcName)
	}
	params := ir.Params{Columns: cols}
	if renamed {
		params.As = aliases
	}
	return p.define(name, p.dag.Add(ir.OpProject, name, params, cur))
}

// projectStmt: PROJECT col [AS alias], ... FROM rel
func (p *parser) projectStmt(name string) error {
	var cols, aliases []string
	renamed := false
	for {
		c, err := p.ident()
		if err != nil {
			return err
		}
		alias := c
		if p.lex.Accept(frontends.TokIdent, "AS") {
			alias, err = p.ident()
			if err != nil {
				return err
			}
			renamed = true
		}
		cols = append(cols, c)
		aliases = append(aliases, alias)
		if !p.lex.Accept(frontends.TokSymbol, ",") {
			break
		}
	}
	if _, err := p.lex.Expect(frontends.TokIdent, "FROM"); err != nil {
		return err
	}
	srcName, err := p.ident()
	if err != nil {
		return err
	}
	src, err := p.resolve(srcName)
	if err != nil {
		return err
	}
	params := ir.Params{Columns: cols}
	if renamed {
		params.As = aliases
	}
	return p.define(name, p.dag.Add(ir.OpProject, name, params, src))
}

// binaryKeyed: JOIN a, b ON c1 = c2 [AND c3 = c4]
func (p *parser) binaryKeyed(name string, t ir.OpType) error {
	lName, err := p.ident()
	if err != nil {
		return err
	}
	if _, err := p.lex.Expect(frontends.TokSymbol, ","); err != nil {
		return err
	}
	rName, err := p.ident()
	if err != nil {
		return err
	}
	left, err := p.resolve(lName)
	if err != nil {
		return err
	}
	right, err := p.resolve(rName)
	if err != nil {
		return err
	}
	if _, err := p.lex.Expect(frontends.TokIdent, "ON"); err != nil {
		return err
	}
	var lcols, rcols []string
	for {
		lc, err := p.ident()
		if err != nil {
			return err
		}
		if _, err := p.lex.Expect(frontends.TokSymbol, "="); err != nil {
			return err
		}
		rc, err := p.ident()
		if err != nil {
			return err
		}
		lcols = append(lcols, frontends.StripQualifier(lc))
		rcols = append(rcols, frontends.StripQualifier(rc))
		if !p.lex.Accept(frontends.TokIdent, "AND") {
			break
		}
	}
	return p.define(name, p.dag.Add(t, name, ir.Params{LeftCols: lcols, RightCols: rcols}, left, right))
}

func (p *parser) binaryPlain(name string, t ir.OpType) error {
	lName, err := p.ident()
	if err != nil {
		return err
	}
	if _, err := p.lex.Expect(frontends.TokSymbol, ","); err != nil {
		return err
	}
	rName, err := p.ident()
	if err != nil {
		return err
	}
	left, err := p.resolve(lName)
	if err != nil {
		return err
	}
	right, err := p.resolve(rName)
	if err != nil {
		return err
	}
	return p.define(name, p.dag.Add(t, name, ir.Params{}, left, right))
}

func (p *parser) unaryPlain(name string, t ir.OpType) error {
	srcName, err := p.ident()
	if err != nil {
		return err
	}
	src, err := p.resolve(srcName)
	if err != nil {
		return err
	}
	return p.define(name, p.dag.Add(t, name, ir.Params{}, src))
}

// aggStmt: AGG f(col) AS out [, ...] FROM rel [GROUP BY col, ...]
func (p *parser) aggStmt(name string) error {
	var aggs []ir.AggSpec
	for {
		fnName, err := p.ident()
		if err != nil {
			return err
		}
		fn, ok := frontends.AggFunc(fnName)
		if !ok {
			return fmt.Errorf("beer: unknown aggregate %q", fnName)
		}
		if _, err := p.lex.Expect(frontends.TokSymbol, "("); err != nil {
			return err
		}
		col := ""
		if !p.lex.Accept(frontends.TokSymbol, "*") {
			col, err = p.ident()
			if err != nil {
				return err
			}
		}
		if _, err := p.lex.Expect(frontends.TokSymbol, ")"); err != nil {
			return err
		}
		if _, err := p.lex.Expect(frontends.TokIdent, "AS"); err != nil {
			return err
		}
		as, err := p.ident()
		if err != nil {
			return err
		}
		aggs = append(aggs, ir.AggSpec{Func: fn, Col: col, As: as})
		if !p.lex.Accept(frontends.TokSymbol, ",") {
			break
		}
	}
	if _, err := p.lex.Expect(frontends.TokIdent, "FROM"); err != nil {
		return err
	}
	srcName, err := p.ident()
	if err != nil {
		return err
	}
	src, err := p.resolve(srcName)
	if err != nil {
		return err
	}
	var groupBy []string
	if p.lex.Accept(frontends.TokIdent, "GROUP") {
		if _, err := p.lex.Expect(frontends.TokIdent, "BY"); err != nil {
			return err
		}
		for {
			c, err := p.ident()
			if err != nil {
				return err
			}
			groupBy = append(groupBy, c)
			if !p.lex.Accept(frontends.TokSymbol, ",") {
				break
			}
		}
	}
	return p.define(name, p.dag.Add(ir.OpAgg, name, ir.Params{GroupBy: groupBy, Aggs: aggs}, src))
}

// arithStmt: MUL [col, operand] [AS dst] FROM rel
func (p *parser) arithStmt(name, opName string) error {
	var aop ir.ArithOp
	switch strings.ToUpper(opName) {
	case "SUM":
		aop = ir.ArithAdd
	case "SUB":
		aop = ir.ArithSub
	case "MUL":
		aop = ir.ArithMul
	case "DIV":
		aop = ir.ArithDiv
	}
	if _, err := p.lex.Expect(frontends.TokSymbol, "["); err != nil {
		return err
	}
	lhs, err := p.operand()
	if err != nil {
		return err
	}
	if _, err := p.lex.Expect(frontends.TokSymbol, ","); err != nil {
		return err
	}
	rhs, err := p.operand()
	if err != nil {
		return err
	}
	if _, err := p.lex.Expect(frontends.TokSymbol, "]"); err != nil {
		return err
	}
	if !lhs.IsCol {
		return fmt.Errorf("beer: arithmetic target must be a column")
	}
	dst := lhs.Col
	if p.lex.Accept(frontends.TokIdent, "AS") {
		dst, err = p.ident()
		if err != nil {
			return err
		}
	}
	if _, err := p.lex.Expect(frontends.TokIdent, "FROM"); err != nil {
		return err
	}
	srcName, err := p.ident()
	if err != nil {
		return err
	}
	src, err := p.resolve(srcName)
	if err != nil {
		return err
	}
	return p.define(name, p.dag.Add(ir.OpArith, name, ir.Params{Dst: dst, ALeft: lhs, ARght: rhs, AOp: aop}, src))
}

// sortStmt: SORT rel BY col [, col...] [DESC]
func (p *parser) sortStmt(name string) error {
	srcName, err := p.ident()
	if err != nil {
		return err
	}
	src, err := p.resolve(srcName)
	if err != nil {
		return err
	}
	if _, err := p.lex.Expect(frontends.TokIdent, "BY"); err != nil {
		return err
	}
	var cols []string
	for {
		c, err := p.ident()
		if err != nil {
			return err
		}
		cols = append(cols, c)
		if !p.lex.Accept(frontends.TokSymbol, ",") {
			break
		}
	}
	desc := p.lex.Accept(frontends.TokIdent, "DESC")
	return p.define(name, p.dag.Add(ir.OpSort, name, ir.Params{SortBy: cols, Desc: desc}, src))
}

// limitStmt: LIMIT rel N
func (p *parser) limitStmt(name string) error {
	srcName, err := p.ident()
	if err != nil {
		return err
	}
	src, err := p.resolve(srcName)
	if err != nil {
		return err
	}
	nTok, err := p.lex.Next()
	if err != nil {
		return err
	}
	lit, err := frontends.ParseLiteral(nTok)
	if err != nil {
		return err
	}
	return p.define(name, p.dag.Add(ir.OpLimit, name, ir.Params{Limit: int(lit.AsInt())}, src))
}

// udfStmt: UDF fname(rel [, rel...])
func (p *parser) udfStmt(name string) error {
	fn, err := p.ident()
	if err != nil {
		return err
	}
	if _, err := p.lex.Expect(frontends.TokSymbol, "("); err != nil {
		return err
	}
	var inputs []*ir.Op
	for {
		rn, err := p.ident()
		if err != nil {
			return err
		}
		op, err := p.resolve(rn)
		if err != nil {
			return err
		}
		inputs = append(inputs, op)
		if !p.lex.Accept(frontends.TokSymbol, ",") {
			break
		}
	}
	if _, err := p.lex.Expect(frontends.TokSymbol, ")"); err != nil {
		return err
	}
	return p.define(name, p.dag.Add(ir.OpUDF, name, ir.Params{UDFName: fn}, inputs...))
}

// whileStmt: WHILE (iteration < N) CARRY a = b [, c = d] [UNTILEMPTY rel] { stmts }
func (p *parser) whileStmt(name string) error {
	if _, err := p.lex.Expect(frontends.TokSymbol, "("); err != nil {
		return err
	}
	if _, err := p.lex.Expect(frontends.TokIdent, "iteration"); err != nil {
		return err
	}
	if _, err := p.lex.Expect(frontends.TokSymbol, "<"); err != nil {
		return err
	}
	nTok, err := p.lex.Next()
	if err != nil {
		return err
	}
	lit, err := frontends.ParseLiteral(nTok)
	if err != nil {
		return err
	}
	maxIter := int(lit.AsInt())
	if maxIter <= 0 {
		return fmt.Errorf("beer: line %d: WHILE bound must be positive", nTok.Line)
	}
	if _, err := p.lex.Expect(frontends.TokSymbol, ")"); err != nil {
		return err
	}
	if _, err := p.lex.Expect(frontends.TokIdent, "CARRY"); err != nil {
		return err
	}
	carried := map[string]string{}
	for {
		in, err := p.ident()
		if err != nil {
			return err
		}
		if _, err := p.lex.Expect(frontends.TokSymbol, "="); err != nil {
			return err
		}
		out, err := p.ident()
		if err != nil {
			return err
		}
		carried[in] = out
		if !p.lex.Accept(frontends.TokSymbol, ",") {
			break
		}
	}
	condRel := ""
	if p.lex.Accept(frontends.TokIdent, "UNTILEMPTY") {
		condRel, err = p.ident()
		if err != nil {
			return err
		}
	}
	if _, err := p.lex.Expect(frontends.TokSymbol, "{"); err != nil {
		return err
	}

	body := &parser{lex: p.lex, cat: p.cat, dag: ir.NewDAG(), rels: map[string]*ir.Op{}, outer: p}
	if err := body.statements(func() (bool, error) {
		t, err := p.lex.Peek()
		if err != nil {
			return false, err
		}
		if t.Kind == frontends.TokEOF {
			return false, fmt.Errorf("beer: line %d: unterminated WHILE body", t.Line)
		}
		return t.Kind == frontends.TokSymbol && t.Text == "}", nil
	}); err != nil {
		return err
	}
	p.lex.Next() // consume '}'
	// Deduplicate WHILE inputs preserving order.
	var inputs []*ir.Op
	seen := map[*ir.Op]bool{}
	for _, op := range body.whileInputs {
		if !seen[op] {
			seen[op] = true
			inputs = append(inputs, op)
		}
	}
	w := p.dag.Add(ir.OpWhile, name, ir.Params{
		Body: body.dag, MaxIter: maxIter, CondRel: condRel, Carried: carried,
	}, inputs...)
	return p.define(name, w)
}

func (p *parser) operand() (ir.Operand, error) {
	t, err := p.lex.Next()
	if err != nil {
		return ir.Operand{}, err
	}
	switch t.Kind {
	case frontends.TokIdent:
		return ir.ColRef(t.Text), nil
	case frontends.TokNumber, frontends.TokString:
		v, err := frontends.ParseLiteral(t)
		if err != nil {
			return ir.Operand{}, err
		}
		return ir.LitOp(v), nil
	default:
		return ir.Operand{}, fmt.Errorf("beer: line %d: expected operand, got %q", t.Line, t.Text)
	}
}
