// Package lindi implements a LINQ-style programmatic front-end, mirroring
// how Lindi exposes declarative operators over Naiad collections (paper
// §4.1.1). Workflows are built by chaining query methods off From; Build
// assembles the IR DAG:
//
//	b := lindi.NewBuilder(catalog)
//	locs := b.From("properties").Select("id", "street", "town").Named("locs")
//	top := locs.Join(b.From("prices"), []string{"id"}, []string{"id"}).
//	    GroupBy([]string{"street", "town"}).Max("price", "max_price").
//	    Named("street_price")
//	dag, err := b.Build()
//
// Unlike the textual DSLs, Lindi queries also support iteration via
// Builder.Iterate, which mirrors Naiad's fixed-point loops.
package lindi

import (
	"fmt"

	"musketeer/internal/frontends"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// Builder accumulates a workflow DAG.
type Builder struct {
	cat  frontends.Catalog
	dag  *ir.DAG
	rels map[string]*ir.Op
	tmp  int
	err  error
}

// NewBuilder returns a builder resolving base tables against cat.
func NewBuilder(cat frontends.Catalog) *Builder {
	return &Builder{cat: cat, dag: ir.NewDAG(), rels: map[string]*ir.Op{}}
}

// Query is a handle to a relation under construction.
type Query struct {
	b  *Builder
	op *ir.Op
}

func (b *Builder) fail(err error) *Query {
	if b.err == nil {
		b.err = err
	}
	return &Query{b: b}
}

func (b *Builder) fresh(kind string) string {
	b.tmp++
	return fmt.Sprintf("__lindi_%s_%d", kind, b.tmp)
}

// From starts a query over a catalogued base table (or a relation already
// named with Named).
func (b *Builder) From(table string) *Query {
	if op, ok := b.rels[table]; ok {
		return &Query{b: b, op: op}
	}
	tbl, ok := b.cat[table]
	if !ok {
		return b.fail(fmt.Errorf("lindi: unknown table %q", table))
	}
	op := b.dag.AddInput(table, tbl.Path, tbl.Schema)
	b.rels[table] = op
	return &Query{b: b, op: op}
}

// Build returns the DAG, or the first error a query method recorded. The
// DAG's schemas, loops and engine feasibility are checked once, by
// internal/analysis, when the workflow is compiled.
func (b *Builder) Build() (*ir.DAG, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.dag.Ops) == 0 {
		return nil, fmt.Errorf("lindi: empty workflow")
	}
	// Programmatic builder: no source lines, but diagnostics still name
	// the originating front-end.
	b.dag.StampProv("lindi", 0, 0)
	return b.dag, nil
}

func (q *Query) add(t ir.OpType, params ir.Params, extra ...*ir.Op) *Query {
	if q.b.err != nil || q.op == nil {
		return q
	}
	inputs := append([]*ir.Op{q.op}, extra...)
	op := q.b.dag.Add(t, q.b.fresh(t.String()), params, inputs...)
	return &Query{b: q.b, op: op}
}

// Named assigns the query's current relation a stable name; named relations
// are the workflow's visible results and can be referenced by From.
func (q *Query) Named(name string) *Query {
	if q.b.err != nil || q.op == nil {
		return q
	}
	if _, ok := q.b.rels[name]; ok {
		q.b.err = fmt.Errorf("lindi: relation %q redefined", name)
		return q
	}
	q.op.Out = name
	q.b.rels[name] = q.op
	return q
}

// Op exposes the underlying IR operator (for Iterate wiring).
func (q *Query) Op() *ir.Op { return q.op }

// Where filters by a predicate.
func (q *Query) Where(pred *ir.Pred) *Query {
	return q.add(ir.OpSelect, ir.Params{Pred: pred})
}

// Select projects columns.
func (q *Query) Select(cols ...string) *Query {
	return q.add(ir.OpProject, ir.Params{Columns: cols})
}

// SelectAs projects columns with renaming; as must match cols in length.
func (q *Query) SelectAs(cols, as []string) *Query {
	return q.add(ir.OpProject, ir.Params{Columns: cols, As: as})
}

// Join equi-joins with another query.
func (q *Query) Join(other *Query, leftCols, rightCols []string) *Query {
	if other.b != q.b {
		return q.b.fail(fmt.Errorf("lindi: join across builders"))
	}
	return q.add(ir.OpJoin, ir.Params{LeftCols: leftCols, RightCols: rightCols}, other.op)
}

// Cross computes the Cartesian product.
func (q *Query) Cross(other *Query) *Query {
	return q.add(ir.OpCrossJoin, ir.Params{}, other.op)
}

// Union concatenates (bag semantics).
func (q *Query) Union(other *Query) *Query {
	return q.add(ir.OpUnion, ir.Params{}, other.op)
}

// Intersect keeps common rows (set semantics).
func (q *Query) Intersect(other *Query) *Query {
	return q.add(ir.OpIntersect, ir.Params{}, other.op)
}

// Except keeps rows absent from other (set semantics).
func (q *Query) Except(other *Query) *Query {
	return q.add(ir.OpDifference, ir.Params{}, other.op)
}

// Distinct removes duplicates.
func (q *Query) Distinct() *Query {
	return q.add(ir.OpDistinct, ir.Params{})
}

// Grouping is an aggregation under construction.
type Grouping struct {
	q    *Query
	keys []string
	aggs []ir.AggSpec
}

// GroupBy starts an aggregation over key columns (empty = whole relation).
func (q *Query) GroupBy(keys []string) *Grouping {
	return &Grouping{q: q, keys: keys}
}

// Sum adds SUM(col) AS as; returns the grouping for further aggregates.
func (g *Grouping) Sum(col, as string) *Grouping {
	g.aggs = append(g.aggs, ir.AggSpec{Func: ir.AggSum, Col: col, As: as})
	return g
}

// Count adds COUNT(*) AS as.
func (g *Grouping) Count(as string) *Grouping {
	g.aggs = append(g.aggs, ir.AggSpec{Func: ir.AggCount, As: as})
	return g
}

// Min adds MIN(col) AS as.
func (g *Grouping) Min(col, as string) *Grouping {
	g.aggs = append(g.aggs, ir.AggSpec{Func: ir.AggMin, Col: col, As: as})
	return g
}

// Max adds MAX(col) AS as.
func (g *Grouping) Max(col, as string) *Grouping {
	g.aggs = append(g.aggs, ir.AggSpec{Func: ir.AggMax, Col: col, As: as})
	return g
}

// Avg adds AVG(col) AS as.
func (g *Grouping) Avg(col, as string) *Grouping {
	g.aggs = append(g.aggs, ir.AggSpec{Func: ir.AggAvg, Col: col, As: as})
	return g
}

// Done materializes the aggregation as a query.
func (g *Grouping) Done() *Query {
	return g.q.add(ir.OpAgg, ir.Params{GroupBy: g.keys, Aggs: g.aggs})
}

// OrderBy sorts by key columns.
func (q *Query) OrderBy(desc bool, cols ...string) *Query {
	return q.add(ir.OpSort, ir.Params{SortBy: cols, Desc: desc})
}

// Limit keeps the first n rows.
func (q *Query) Limit(n int) *Query {
	return q.add(ir.OpLimit, ir.Params{Limit: n})
}

// Compute applies column algebra: dst = lhs op rhs (in place when dst is an
// existing column, appended otherwise).
func (q *Query) Compute(dst string, lhs ir.Operand, op ir.ArithOp, rhs ir.Operand) *Query {
	return q.add(ir.OpArith, ir.Params{Dst: dst, ALeft: lhs, ARght: rhs, AOp: op})
}

// Apply invokes a registered UDF over this query (and optional extras).
func (q *Query) Apply(udfName string, extra ...*Query) *Query {
	ops := make([]*ir.Op, len(extra))
	for i, e := range extra {
		ops[i] = e.op
	}
	return q.add(ir.OpUDF, ir.Params{UDFName: udfName}, ops...)
}

// LoopSpec configures Builder.Iterate.
type LoopSpec struct {
	// MaxIter bounds the loop (must be positive unless UntilEmpty is set).
	MaxIter int
	// UntilEmpty optionally names a body relation; iteration stops when it
	// becomes empty.
	UntilEmpty string
	// Carried maps body input relation names to body output relation
	// names rebound between iterations.
	Carried map[string]string
}

// Iterate adds a WHILE operator named `out` whose body is built by fn.
// fn receives a fresh body builder whose From resolves loop inputs: any
// table name that matches an outer named relation (or catalog table) given
// in `inputs` becomes a loop input. The WHILE's result is the carried
// output relation.
func (b *Builder) Iterate(out string, inputs []string, spec LoopSpec, fn func(body *Builder) error) *Query {
	if b.err != nil {
		return &Query{b: b}
	}
	var outerOps []*ir.Op
	bodyBuilder := NewBuilder(b.cat)
	for _, name := range inputs {
		outerOp, ok := b.rels[name]
		if !ok {
			if tbl, okCat := b.cat[name]; okCat {
				outerOp = b.dag.AddInput(name, tbl.Path, tbl.Schema)
				b.rels[name] = outerOp
			} else {
				return b.fail(fmt.Errorf("lindi: loop input %q unknown", name))
			}
		}
		outerOps = append(outerOps, outerOp)
		bridge := bodyBuilder.dag.AddInput(name, "", relation.Schema{})
		bodyBuilder.rels[name] = bridge
	}
	if err := fn(bodyBuilder); err != nil {
		return b.fail(err)
	}
	if bodyBuilder.err != nil {
		return b.fail(bodyBuilder.err)
	}
	w := b.dag.Add(ir.OpWhile, out, ir.Params{
		Body:    bodyBuilder.dag,
		MaxIter: spec.MaxIter,
		CondRel: spec.UntilEmpty,
		Carried: spec.Carried,
	}, outerOps...)
	b.rels[out] = w
	return &Query{b: b, op: w}
}
