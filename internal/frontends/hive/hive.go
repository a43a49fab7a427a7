// Package hive parses the HiveQL subset Musketeer supports (paper §4.1.1,
// Listing 1) and translates it to the IR.
//
// The dialect is statement-oriented; every statement names its result with
// a trailing AS:
//
//	SELECT id, street, town FROM properties AS locs;
//	locs JOIN prices ON locs.id = prices.id AS id_price;
//	SELECT street, town, MAX(price) FROM id_price
//	    GROUP BY street AND town AS street_price;
//
// SELECT statements may carry a WHERE clause; aggregate functions (SUM,
// COUNT, MIN, MAX, AVG) in the select list require a GROUP BY (aggregation
// over the whole relation uses GROUP BY with no columns, i.e. omit the
// clause and aggregate alone). Relational operands resolve first against
// relations defined earlier in the workflow, then against the catalog.
package hive

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
	tmp  int
}

// Parse translates a workflow in the Hive dialect into an IR DAG.
// It returns the front-end's own parse errors only: the DAG's schemas,
// loops and engine feasibility are checked once, by internal/analysis,
// when the workflow is compiled.
func Parse(src string, cat frontends.Catalog) (*ir.DAG, error) {
	p := &parser{
		lex:  frontends.NewLexer(src),
		cat:  cat,
		dag:  ir.NewDAG(),
		rels: map[string]*ir.Op{},
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
		p.dag.StampProv("hive", t.Line, mark)
	}
	if len(p.dag.Ops) == 0 {
		return nil, fmt.Errorf("hive: empty workflow")
	}
	return p.dag, nil
}

func (p *parser) statement() error {
	t, err := p.lex.Next()
	if err != nil {
		return err
	}
	switch {
	case frontends.IsKeyword(t, "SELECT"):
		return p.selectStmt()
	case t.Kind == frontends.TokIdent:
		return p.joinStmt(t.Text)
	default:
		return fmt.Errorf("hive: line %d: unexpected %q", t.Line, t.Text)
	}
}

// resolve returns the operator producing the named relation, consulting the
// catalog for base tables.
func (p *parser) resolve(name string) (*ir.Op, error) {
	if op, ok := p.rels[name]; ok {
		return op, nil
	}
	if tbl, ok := p.cat[name]; ok {
		op := p.dag.AddInput(name, tbl.Path, tbl.Schema)
		p.rels[name] = op
		return op, nil
	}
	return nil, fmt.Errorf("hive: unknown relation %q", name)
}

func (p *parser) fresh(base string) string {
	p.tmp++
	return fmt.Sprintf("__%s_%d", base, p.tmp)
}

type selItem struct {
	col   string
	alias string
	agg   ir.AggFunc
	isAgg bool
}

func (p *parser) selectStmt() error {
	var items []selItem
	for {
		it, err := p.selItem()
		if err != nil {
			return err
		}
		items = append(items, it)
		if !p.lex.Accept(frontends.TokSymbol, ",") {
			break
		}
	}
	if _, err := p.lex.Expect(frontends.TokIdent, "FROM"); err != nil {
		return err
	}
	srcTok, err := p.lex.Next()
	if err != nil {
		return err
	}
	src, err := p.resolve(srcTok.Text)
	if err != nil {
		return err
	}

	var pred *ir.Pred
	if p.lex.Accept(frontends.TokIdent, "WHERE") {
		pred, err = frontends.ParsePredicate(p.lex, "hive", p.operand)
		if err != nil {
			return err
		}
	}
	var groupBy []string
	if p.lex.Accept(frontends.TokIdent, "GROUP") {
		if _, err := p.lex.Expect(frontends.TokIdent, "BY"); err != nil {
			return err
		}
		for {
			c, err := p.lex.Next()
			if err != nil {
				return err
			}
			if c.Kind != frontends.TokIdent {
				return fmt.Errorf("hive: line %d: expected group-by column, got %q", c.Line, c.Text)
			}
			groupBy = append(groupBy, frontends.StripQualifier(c.Text))
			// The paper's dialect separates group-by columns with AND;
			// accept ',' too.
			if p.lex.Accept(frontends.TokIdent, "AND") || p.lex.Accept(frontends.TokSymbol, ",") {
				continue
			}
			break
		}
	}
	var orderBy []string
	orderDesc := false
	if p.lex.Accept(frontends.TokIdent, "ORDER") {
		if _, err := p.lex.Expect(frontends.TokIdent, "BY"); err != nil {
			return err
		}
		for {
			c, err := p.lex.Next()
			if err != nil {
				return err
			}
			if c.Kind != frontends.TokIdent {
				return fmt.Errorf("hive: line %d: expected order-by column, got %q", c.Line, c.Text)
			}
			orderBy = append(orderBy, frontends.StripQualifier(c.Text))
			if p.lex.Accept(frontends.TokSymbol, ",") {
				continue
			}
			break
		}
		orderDesc = p.lex.Accept(frontends.TokIdent, "DESC")
	}
	limit := 0
	if p.lex.Accept(frontends.TokIdent, "LIMIT") {
		nTok, err := p.lex.Next()
		if err != nil {
			return err
		}
		lit, err := frontends.ParseLiteral(nTok)
		if err != nil {
			return err
		}
		limit = int(lit.AsInt())
	}
	name, err := p.asName()
	if err != nil {
		return err
	}
	// finish appends the optional SORT/LIMIT tail and registers the result
	// under the statement name.
	finish := func(cur *ir.Op) error {
		if len(orderBy) > 0 {
			out := name
			if limit > 0 {
				out = p.fresh(name + "_sorted")
			}
			cur = p.dag.Add(ir.OpSort, out, ir.Params{SortBy: orderBy, Desc: orderDesc}, cur)
		}
		if limit > 0 {
			cur = p.dag.Add(ir.OpLimit, name, ir.Params{Limit: limit}, cur)
		}
		cur.Out = name
		p.rels[name] = cur
		return p.semi()
	}

	cur := src
	if pred != nil {
		out := name
		// The filter is an intermediate when a projection/aggregation
		// follows.
		out = p.fresh(name + "_where")
		cur = p.dag.Add(ir.OpSelect, out, ir.Params{Pred: pred}, cur)
	}

	hasAgg := false
	for _, it := range items {
		if it.isAgg {
			hasAgg = true
		}
	}
	hasTail := len(orderBy) > 0 || limit > 0
	if hasAgg {
		var aggs []ir.AggSpec
		for _, it := range items {
			if !it.isAgg {
				continue // plain columns in an aggregate SELECT are the group keys
			}
			as := it.alias
			if as == "" {
				as = strings.ToLower(it.agg.String()) + "_" + it.col
				if it.col == "" {
					as = "count"
				}
			}
			aggs = append(aggs, ir.AggSpec{Func: it.agg, Col: it.col, As: as})
		}
		out := name
		if hasTail {
			out = p.fresh(name + "_agg")
		}
		return finish(p.dag.Add(ir.OpAgg, out, ir.Params{GroupBy: groupBy, Aggs: aggs}, cur))
	}
	if len(groupBy) > 0 {
		return fmt.Errorf("hive: GROUP BY without aggregate function in %q", name)
	}
	// Plain projection; SELECT * keeps the relation (filter-only).
	if len(items) == 1 && items[0].col == "*" {
		if pred == nil && !hasTail {
			return fmt.Errorf("hive: SELECT * without WHERE is a no-op in %q", name)
		}
		return finish(cur)
	}
	cols := make([]string, len(items))
	aliases := make([]string, len(items))
	renamed := false
	for i, it := range items {
		cols[i] = it.col
		aliases[i] = it.col
		if it.alias != "" {
			aliases[i] = it.alias
			renamed = true
		}
	}
	params := ir.Params{Columns: cols}
	if renamed {
		params.As = aliases
	}
	out := name
	if hasTail {
		out = p.fresh(name + "_proj")
	}
	return finish(p.dag.Add(ir.OpProject, out, params, cur))
}

func (p *parser) selItem() (selItem, error) {
	t, err := p.lex.Next()
	if err != nil {
		return selItem{}, err
	}
	if t.Kind == frontends.TokSymbol && t.Text == "*" {
		return selItem{col: "*"}, nil
	}
	if t.Kind != frontends.TokIdent {
		return selItem{}, fmt.Errorf("hive: line %d: expected column, got %q", t.Line, t.Text)
	}
	if agg, ok := frontends.AggFunc(t.Text); ok {
		if next, _ := p.lex.Peek(); next.Kind == frontends.TokSymbol && next.Text == "(" {
			p.lex.Next()
			col := ""
			ct, err := p.lex.Next()
			if err != nil {
				return selItem{}, err
			}
			if !(ct.Kind == frontends.TokSymbol && ct.Text == "*") {
				col = frontends.StripQualifier(ct.Text)
			}
			if _, err := p.lex.Expect(frontends.TokSymbol, ")"); err != nil {
				return selItem{}, err
			}
			it := selItem{col: col, agg: agg, isAgg: true}
			if p.lex.Accept(frontends.TokIdent, "AS") {
				at, err := p.lex.Next()
				if err != nil {
					return selItem{}, err
				}
				it.alias = at.Text
			}
			return it, nil
		}
	}
	it := selItem{col: frontends.StripQualifier(t.Text)}
	if p.lex.Accept(frontends.TokIdent, "AS") {
		at, err := p.lex.Next()
		if err != nil {
			return selItem{}, err
		}
		it.alias = at.Text
	}
	return it, nil
}

// joinStmt parses `left JOIN right ON l.c = r.c [AND ...] AS name;`.
func (p *parser) joinStmt(leftName string) error {
	if _, err := p.lex.Expect(frontends.TokIdent, "JOIN"); err != nil {
		return err
	}
	rightTok, err := p.lex.Next()
	if err != nil {
		return err
	}
	left, err := p.resolve(leftName)
	if err != nil {
		return err
	}
	right, err := p.resolve(rightTok.Text)
	if err != nil {
		return err
	}
	if _, err := p.lex.Expect(frontends.TokIdent, "ON"); err != nil {
		return err
	}
	var lcols, rcols []string
	for {
		lt, err := p.lex.Next()
		if err != nil {
			return err
		}
		if _, err := p.lex.Expect(frontends.TokSymbol, "="); err != nil {
			return err
		}
		rt, err := p.lex.Next()
		if err != nil {
			return err
		}
		lcols = append(lcols, frontends.StripQualifier(lt.Text))
		rcols = append(rcols, frontends.StripQualifier(rt.Text))
		if !p.lex.Accept(frontends.TokIdent, "AND") {
			break
		}
	}
	name, err := p.asName()
	if err != nil {
		return err
	}
	p.rels[name] = p.dag.Add(ir.OpJoin, name, ir.Params{LeftCols: lcols, RightCols: rcols}, left, right)
	return p.semi()
}

func (p *parser) asName() (string, error) {
	if _, err := p.lex.Expect(frontends.TokIdent, "AS"); err != nil {
		return "", err
	}
	t, err := p.lex.Next()
	if err != nil {
		return "", err
	}
	if t.Kind != frontends.TokIdent {
		return "", fmt.Errorf("hive: line %d: expected relation name, got %q", t.Line, t.Text)
	}
	return t.Text, nil
}

func (p *parser) semi() error {
	_, err := p.lex.Expect(frontends.TokSymbol, ";")
	return err
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
		// Scaled column operand: `0.2 * col` (TPC-H Q17's correlated
		// threshold).
		if t.Kind == frontends.TokNumber && p.lex.Accept(frontends.TokSymbol, "*") {
			ct, err := p.lex.Next()
			if err != nil {
				return ir.Operand{}, err
			}
			if ct.Kind != frontends.TokIdent {
				return ir.Operand{}, fmt.Errorf("hive: line %d: expected column after '*', got %q", ct.Line, ct.Text)
			}
			return ir.ScaledCol(frontends.StripQualifier(ct.Text), v.AsFloat()), nil
		}
		return ir.LitOp(v), nil
	default:
		return ir.Operand{}, fmt.Errorf("hive: line %d: expected operand, got %q", t.Line, t.Text)
	}
}
