// Package pig implements a Pig Latin front-end subset. Pig is one of the
// front-end frameworks the paper's introduction motivates (up to 80 % of
// production jobs arrive through Pig/Hive-class front-ends, §3); this
// package is the worked example of the paper's front-end extensibility
// claim — adding a framework means providing translation logic from its
// constructs to the IR, nothing else changes.
//
// Supported statements:
//
//	locs  = FOREACH properties GENERATE id, street, town;
//	eu    = FILTER purchases BY region == 'EU' AND value > 10;
//	j     = JOIN locs BY id, prices BY id;
//	g     = GROUP j BY (street, town);
//	best  = FOREACH g GENERATE group, MAX(j.price) AS max_price;
//	u     = UNION a, b;
//	d     = DISTINCT a;
//
// As in Pig, GROUP produces a bag which a following FOREACH ... GENERATE
// group, AGG(bag.col) collapses; the pair translates to one IR aggregation
// (Pig relies on exactly this shape to delineate MapReduce jobs, §9).
// FOREACH may also GENERATE arithmetic: `GENERATE id, price * 0.2 AS tax`.
package pig

import (
	"fmt"
	"strings"

	"musketeer/internal/frontends"
	"musketeer/internal/ir"
)

type parser struct {
	lex  *frontends.Lexer
	cat  frontends.Catalog
	dag  *ir.DAG
	rels map[string]*ir.Op
	// groups remembers GROUP statements awaiting their FOREACH: alias ->
	// (input op, key columns).
	groups map[string]groupInfo
	tmp    int
}

type groupInfo struct {
	input *ir.Op
	keys  []string
}

// Parse translates a Pig Latin workflow into an IR DAG.
// It returns the front-end's own parse errors only: the DAG's schemas,
// loops and engine feasibility are checked once, by internal/analysis,
// when the workflow is compiled.
func Parse(src string, cat frontends.Catalog) (*ir.DAG, error) {
	p := &parser{
		lex: frontends.NewLexer(src), cat: cat,
		dag: ir.NewDAG(), rels: map[string]*ir.Op{}, groups: map[string]groupInfo{},
	}
	for {
		t, err := p.lex.Peek()
		if err != nil {
			return nil, err
		}
		if t.Kind == frontends.TokEOF {
			break
		}
		mark := len(p.dag.Ops)
		if err := p.statement(); err != nil {
			return nil, err
		}
		// Stamp every operator the statement added with its source line so
		// analyzer diagnostics point back at the workflow text.
		p.dag.StampProv("pig", t.Line, mark)
	}
	if len(p.dag.Ops) == 0 {
		return nil, fmt.Errorf("pig: empty workflow")
	}
	for alias := range p.groups {
		return nil, fmt.Errorf("pig: GROUP %q has no consuming FOREACH", alias)
	}
	return p.dag, nil
}

func (p *parser) statement() error {
	alias, err := p.ident()
	if err != nil {
		return err
	}
	if _, err := p.lex.Expect(frontends.TokSymbol, "="); err != nil {
		return err
	}
	kw, err := p.ident()
	if err != nil {
		return err
	}
	switch strings.ToUpper(kw) {
	case "FOREACH":
		return p.foreachStmt(alias)
	case "FILTER":
		return p.filterStmt(alias)
	case "JOIN":
		return p.joinStmt(alias)
	case "GROUP":
		return p.groupStmt(alias)
	case "UNION":
		return p.binary(alias, ir.OpUnion)
	case "DISTINCT":
		return p.distinctStmt(alias)
	default:
		return fmt.Errorf("pig: unknown operator %q", kw)
	}
}

func (p *parser) ident() (string, error) {
	t, err := p.lex.Next()
	if err != nil {
		return "", err
	}
	if t.Kind != frontends.TokIdent {
		return "", fmt.Errorf("pig: line %d: expected identifier, got %q", t.Line, t.Text)
	}
	return t.Text, nil
}

func (p *parser) resolve(name string) (*ir.Op, error) {
	if op, ok := p.rels[name]; ok {
		return op, nil
	}
	if tbl, ok := p.cat[name]; ok {
		op := p.dag.AddInput(name, tbl.Path, tbl.Schema)
		p.rels[name] = op
		return op, nil
	}
	return nil, fmt.Errorf("pig: unknown relation %q", name)
}

func (p *parser) define(alias string, op *ir.Op) error {
	if _, ok := p.rels[alias]; ok {
		return fmt.Errorf("pig: alias %q redefined", alias)
	}
	p.rels[alias] = op
	_, err := p.lex.Expect(frontends.TokSymbol, ";")
	return err
}

func (p *parser) fresh(base string) string {
	p.tmp++
	return fmt.Sprintf("__pig_%s_%d", base, p.tmp)
}

// filterStmt: FILTER rel BY pred
func (p *parser) filterStmt(alias string) error {
	relName, err := p.ident()
	if err != nil {
		return err
	}
	src, err := p.resolve(relName)
	if err != nil {
		return err
	}
	if _, err := p.lex.Expect(frontends.TokIdent, "BY"); err != nil {
		return err
	}
	pred, err := frontends.ParsePredicate(p.lex, "pig", p.operand)
	if err != nil {
		return err
	}
	return p.define(alias, p.dag.Add(ir.OpSelect, alias, ir.Params{Pred: pred}, src))
}

// joinStmt: JOIN a BY col, b BY col
func (p *parser) joinStmt(alias string) error {
	lName, err := p.ident()
	if err != nil {
		return err
	}
	if _, err := p.lex.Expect(frontends.TokIdent, "BY"); err != nil {
		return err
	}
	lCol, err := p.ident()
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
	if _, err := p.lex.Expect(frontends.TokIdent, "BY"); err != nil {
		return err
	}
	rCol, err := p.ident()
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
	return p.define(alias, p.dag.Add(ir.OpJoin, alias, ir.Params{
		LeftCols:  []string{frontends.StripQualifier(lCol)},
		RightCols: []string{frontends.StripQualifier(rCol)},
	}, left, right))
}

// groupStmt: GROUP rel BY col | GROUP rel BY (col, col)
// The statement is deferred: it materializes when its FOREACH arrives.
func (p *parser) groupStmt(alias string) error {
	relName, err := p.ident()
	if err != nil {
		return err
	}
	src, err := p.resolve(relName)
	if err != nil {
		return err
	}
	if _, err := p.lex.Expect(frontends.TokIdent, "BY"); err != nil {
		return err
	}
	var keys []string
	if p.lex.Accept(frontends.TokSymbol, "(") {
		for {
			c, err := p.ident()
			if err != nil {
				return err
			}
			keys = append(keys, frontends.StripQualifier(c))
			if !p.lex.Accept(frontends.TokSymbol, ",") {
				break
			}
		}
		if _, err := p.lex.Expect(frontends.TokSymbol, ")"); err != nil {
			return err
		}
	} else {
		c, err := p.ident()
		if err != nil {
			return err
		}
		keys = append(keys, frontends.StripQualifier(c))
	}
	if _, ok := p.groups[alias]; ok || p.rels[alias] != nil {
		return fmt.Errorf("pig: alias %q redefined", alias)
	}
	p.groups[alias] = groupInfo{input: src, keys: keys}
	_, err = p.lex.Expect(frontends.TokSymbol, ";")
	return err
}

// foreachStmt: FOREACH rel GENERATE item [, item ...]
// Over a GROUP alias, items are `group` and aggregates; over a plain
// relation, items are columns (with optional rename) and arithmetic.
func (p *parser) foreachStmt(alias string) error {
	relName, err := p.ident()
	if err != nil {
		return err
	}
	if gi, ok := p.groups[relName]; ok {
		delete(p.groups, relName)
		return p.foreachOverGroup(alias, gi)
	}
	src, err := p.resolve(relName)
	if err != nil {
		return err
	}
	if _, err := p.lex.Expect(frontends.TokIdent, "GENERATE"); err != nil {
		return err
	}
	cur := src
	var cols, renames []string
	renamed := false
	for {
		col, err := p.ident()
		if err != nil {
			return err
		}
		col = frontends.StripQualifier(col)
		// Arithmetic item: col OP operand [AS name].
		if sym, _ := p.lex.Peek(); sym.Kind == frontends.TokSymbol && strings.ContainsAny(sym.Text, "+-*/") && len(sym.Text) == 1 {
			p.lex.Next()
			operand, err := p.operand()
			if err != nil {
				return err
			}
			dst := col
			if p.lex.Accept(frontends.TokIdent, "AS") {
				dst, err = p.ident()
				if err != nil {
					return err
				}
			}
			cur = p.dag.Add(ir.OpArith, p.fresh(alias), ir.Params{
				Dst: dst, ALeft: ir.ColRef(col), ARght: operand, AOp: arithOpOf(sym.Text),
			}, cur)
			cols = append(cols, dst)
			renames = append(renames, dst)
			if !p.lex.Accept(frontends.TokSymbol, ",") {
				break
			}
			continue
		}
		name := col
		if p.lex.Accept(frontends.TokIdent, "AS") {
			name, err = p.ident()
			if err != nil {
				return err
			}
			renamed = true
		}
		cols = append(cols, col)
		renames = append(renames, name)
		if !p.lex.Accept(frontends.TokSymbol, ",") {
			break
		}
	}
	params := ir.Params{Columns: cols}
	if renamed {
		params.As = renames
	}
	return p.define(alias, p.dag.Add(ir.OpProject, alias, params, cur))
}

// foreachOverGroup: FOREACH g GENERATE group, AGG(rel.col) AS name, ...
func (p *parser) foreachOverGroup(alias string, gi groupInfo) error {
	if _, err := p.lex.Expect(frontends.TokIdent, "GENERATE"); err != nil {
		return err
	}
	if _, err := p.lex.Expect(frontends.TokIdent, "group"); err != nil {
		return err
	}
	var aggs []ir.AggSpec
	for p.lex.Accept(frontends.TokSymbol, ",") {
		fnName, err := p.ident()
		if err != nil {
			return err
		}
		fn, ok := frontends.AggFunc(fnName)
		if !ok {
			return fmt.Errorf("pig: unknown aggregate %q", fnName)
		}
		if _, err := p.lex.Expect(frontends.TokSymbol, "("); err != nil {
			return err
		}
		col := ""
		if !p.lex.Accept(frontends.TokSymbol, "*") {
			c, err := p.ident()
			if err != nil {
				return err
			}
			col = frontends.StripQualifier(c)
		}
		if _, err := p.lex.Expect(frontends.TokSymbol, ")"); err != nil {
			return err
		}
		as := strings.ToLower(fnName) + "_" + col
		if col == "" {
			as = "count"
		}
		if p.lex.Accept(frontends.TokIdent, "AS") {
			as, err = p.ident()
			if err != nil {
				return err
			}
		}
		aggs = append(aggs, ir.AggSpec{Func: fn, Col: col, As: as})
	}
	if len(aggs) == 0 {
		return fmt.Errorf("pig: FOREACH over GROUP %s needs at least one aggregate", alias)
	}
	return p.define(alias, p.dag.Add(ir.OpAgg, alias, ir.Params{GroupBy: gi.keys, Aggs: aggs}, gi.input))
}

func (p *parser) binary(alias string, t ir.OpType) error {
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
	l, err := p.resolve(lName)
	if err != nil {
		return err
	}
	r, err := p.resolve(rName)
	if err != nil {
		return err
	}
	return p.define(alias, p.dag.Add(t, alias, ir.Params{}, l, r))
}

func (p *parser) distinctStmt(alias string) error {
	relName, err := p.ident()
	if err != nil {
		return err
	}
	src, err := p.resolve(relName)
	if err != nil {
		return err
	}
	return p.define(alias, p.dag.Add(ir.OpDistinct, alias, ir.Params{}, src))
}

func (p *parser) operand() (ir.Operand, error) {
	t, err := p.lex.Next()
	if err != nil {
		return ir.Operand{}, err
	}
	switch t.Kind {
	case frontends.TokIdent:
		return ir.ColRef(frontends.StripQualifier(t.Text)), nil
	case frontends.TokNumber, frontends.TokString:
		v, err := frontends.ParseLiteral(t)
		if err != nil {
			return ir.Operand{}, err
		}
		return ir.LitOp(v), nil
	default:
		return ir.Operand{}, fmt.Errorf("pig: line %d: expected operand, got %q", t.Line, t.Text)
	}
}

func arithOpOf(sym string) ir.ArithOp {
	switch sym {
	case "+":
		return ir.ArithAdd
	case "-":
		return ir.ArithSub
	case "*":
		return ir.ArithMul
	default:
		return ir.ArithDiv
	}
}
