package exec

import (
	"fmt"
	"sync"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// This file plans execution units over a topologically-ordered operator
// list and drives them: every operator but INPUT and WHILE runs as a member of
// a pipeline of length ≥ 1. Maximal chains stream through their interior
// members and materialize only the last one's output, and an operator with no
// fusable neighbour is simply a pipeline of one. SELECT, PROJECT, ARITH, JOIN
// and CROSS JOIN — a JOIN with no key columns — have exactly one
// implementation, the pull stages of stream.go. UNION only heads a pipeline:
// its scan is its two inputs laid end to end, and it passes their rows on as a
// SELECT with no predicate does. A pipeline may end in a table — AGG's groups,
// or the distinct table that DISTINCT fills and that INTERSECT and DIFFERENCE
// fill through a filter on their right input's key set — or in SORT, LIMIT or
// UDF, which finish the rows the drain collected (finish, kernels.go).

// pipelined reports whether t runs as a pipeline member.
func pipelined(t ir.OpType) bool { return t != ir.OpInput && t != ir.OpWhile }

// terminal reports whether t only ever ends a pipeline: it fills a table
// (tabled) or needs every row before it emits one (SORT, LIMIT, UDF).
func terminal(t ir.OpType) bool {
	return tabled(t) || t == ir.OpSort || t == ir.OpLimit || t == ir.OpUDF
}

// tabled reports whether t fills a table it emits whole: AGG, or the distinct
// table of DISTINCT, INTERSECT and DIFFERENCE.
func tabled(t ir.OpType) bool {
	switch t {
	case ir.OpAgg, ir.OpDistinct, ir.OpIntersect, ir.OpDifference:
		return true
	}
	return false
}

// setFilter reports whether t filters its left input against the key set of
// its right one.
func setFilter(t ir.OpType) bool { return t == ir.OpIntersect || t == ir.OpDifference }

// planUnits partitions ops into execution units, ordered by their last
// member: INPUT and WHILE are units of their own, and every other operator
// groups into maximal chains. A chain extends past a member — streaming
// through it, never materializing it — only when the member is not terminal,
// its single consumer edge inside the list is the next member's first (probe
// or left) input, the next member is not a UNION and the caller does not Keep
// it; a consumer reading the same producer twice (self join) contributes two
// edges, which ends the chain. A unit runs at its last member's position, so
// every input a member reads besides its upstream — a join's build side, a set
// operator's right input, a UNION's second, a UDF's others — is materialized,
// or open to stream, by then.
func planUnits(ops []*ir.Op, keep func(*ir.Op) bool) [][]*ir.Op {
	pos := make(map[*ir.Op]int, len(ops))
	for i, op := range ops {
		pos[op] = i
	}
	edges := make([]int, len(ops)) // consumer edges inside the list
	sole := make([]int, len(ops))  // position of the consumer when edges is 1
	for ci, op := range ops {
		for _, in := range op.Inputs {
			if pi, ok := pos[in]; ok {
				edges[pi]++
				sole[pi] = ci
			}
		}
	}
	byLast := make([][]*ir.Op, len(ops))
	absorbed := make([]bool, len(ops))
	for i := range ops {
		if absorbed[i] {
			continue
		}
		unit := ops[i : i+1 : i+1] // a longer chain copies out on append
		end := i
		for pipelined(ops[end].Type) && !terminal(ops[end].Type) && edges[end] == 1 && (keep == nil || !keep(ops[end])) {
			next := ops[sole[end]]
			if !pipelined(next.Type) || next.Type == ir.OpUnion || next.Inputs[0] != ops[end] {
				break
			}
			end = sole[end]
			absorbed[end] = true
			unit = append(unit, next)
		}
		byLast[end] = unit
	}
	units := byLast[:0]
	for _, u := range byLast {
		if u != nil {
			units = append(units, u)
		}
	}
	return units
}

// stagePlan is one pipeline member's resolved execution plan: every column
// it names is bound to a position here, once, and no stage looks one up per
// row. The plan is immutable once built, so concurrent chunk pipelines share
// it.
type stagePlan struct {
	op    *ir.Op
	inSch relation.Schema
	sch   relation.Schema
	pred  *boundPred // SELECT
	idx   []int      // PROJECT's columns, SORT's keys
	arith *arithSpec // ARITH
	js    joinSpec   // JOIN, CROSS JOIN
	build *joinTable
	// ownsBuild says the chain built build for itself, and hands it back
	// when it finishes: no later run will probe it.
	ownsBuild bool
	ag        aggSpec // terminal AGG, DISTINCT, INTERSECT or DIFFERENCE
	keepSrc   bool    // SELECT: compact the source rows the batches carry
}

// release hands back the tables the member took for this chain alone.
func (sp *stagePlan) release() {
	if sp.ownsBuild {
		sp.build.release()
		sp.build, sp.ownsBuild = nil, false
	}
	if sp.ag.filter != nil {
		sp.ag.filter.release()
		sp.ag.filter = nil
	}
}

// scan is an input a member reads: a relation bound in the environment, or a
// file opened to stream (RunOptions.Sources), decoded batch by batch.
type scan struct {
	rel  *relation.Relation
	file *relation.Encoded
	sch  relation.Schema
	rows int
}

// bindScan finds op's input in: open to stream, else bound. Only inputs that
// pipelines scan stream (see bindSources), so any other is bound.
func bindScan(op, in *ir.Op, env Env, opts RunOptions) (scan, error) {
	if f := opts.Sources[in.Out]; f != nil {
		return scan{file: f, sch: f.Schema, rows: f.NumRows()}, nil
	}
	if rel := env[in.Out]; rel != nil {
		return scan{rel: rel, sch: rel.Schema, rows: len(rel.Rows)}, nil
	}
	return scan{}, fmt.Errorf("exec: %s: input relation %q not materialized", op, in.Out)
}

// reader yields rows [lo, hi) in batches of vectors: a bound relation's rows
// transposed — with src, carrying the rows themselves — or a file's decoded.
func (s scan) reader(lo, hi, batchRows int, src bool) relation.RowSource {
	if s.file != nil {
		return s.file.Reader(lo, hi, batchRows, src)
	}
	return s.rel.Reader(lo, hi, batchRows, src)
}

// volume sizes the input: a streamed one was metered by its readers.
func (s scan) volume(trace *Trace, sizes *sizes) volume {
	if s.file != nil {
		return volume{phys: s.file.PhysicalBytes(), logical: s.file.LogicalBytes}
	}
	return sizes.of(trace, s.rel)
}

// concatSource yields first's rows, then second's: a UNION's scan, whose rows
// carry the first input's schema.
type concatSource struct {
	first, second relation.RowSource
	onSecond      bool
}

func (c *concatSource) Schema() relation.Schema { return c.first.Schema() }

func (c *concatSource) Next() (relation.Batch, error) {
	if !c.onSecond {
		if b, err := c.first.Next(); err != nil || !b.Empty() {
			return b, err
		}
		c.onSecond = true
	}
	return c.second.Next()
}

// chain is one resolved pipeline: the input its head scans (its row count,
// and open, which yields a row range of it in batches), its streaming
// members, its terminal member when it ends in one, and the sink when its rows
// stream out.
type chain struct {
	rows      int
	open      func(lo, hi int) relation.RowSource
	stages    []stagePlan
	term      *stagePlan
	sink      *relation.Writer
	batchRows int
}

// rangeResult is what one pipeline instance over a scan range produced: the
// rows it materialized, in a collector, or the partial table it filled, plus
// the taps metering every member that was streamed through; run sets rows.
type rangeResult struct {
	out    relation.Collector
	rows   []relation.Row
	table  *aggTable
	inRows int
	taps   []accTap
	err    error
}

// part opens the sink's next part for a range to write into: none when the
// chain ends in a table, which is written whole once its ranges merge.
func (c *chain) part() *relation.Part {
	if c.term != nil {
		return nil
	}
	return c.sink.Part()
}

// runRange drives one pipeline instance over input rows [lo, hi): into a
// table when the chain ends in one, into part when it has a sink, else into a
// collector.
func (c *chain) runRange(lo, hi int, part *relation.Part) rangeResult {
	var res rangeResult
	tapped := len(c.stages)
	if c.term == nil {
		tapped-- // the output is sized from the relation, or by its writer
	}
	res.taps = make([]accTap, tapped)
	if tapped > 0 {
		memo := new(relation.WidthMemo)
		defer memo.Release()
		for i := range res.taps {
			res.taps[i].memo = memo
		}
	}
	pipe := buildPipeline(c.stages, c.open(lo, hi), c.batchRows, res.taps)
	switch {
	case c.term != nil && tabled(c.term.op.Type):
		res.table = newAggTable(c.term.ag)
		res.inRows, res.err = drainAgg(pipe, res.table)
	case part != nil:
		res.err = drainSink(pipe, part)
	default:
		res.err = drainRows(pipe, &res.out)
	}
	return res
}

// run streams the input through the pipeline and merges the ranges' results
// into one: the materialized rows, copied once into exactly sized headers, or
// the table (a sink's ranges each fill their own part), and the summed taps.
// Below ParallelThreshold rows the input is one range; from there up it is two
// halves, [0, (n+1)/2) and [(n+1)/2, n), run concurrently. The cut depends
// on the row count alone, so a streamed file splits exactly where its
// materialized rows would, and every host computes the same relation, float
// sums included.
func (c *chain) run() (rangeResult, error) {
	rows := c.rows
	var results [2]rangeResult
	ranges := results[:1]
	if rows < max(ParallelThreshold, 2) {
		results[0] = c.runRange(0, rows, c.part())
	} else {
		// Combiner-style evaluation: every aggregator merges once AVG is
		// decomposed into SUM+COUNT (the decomposition Musketeer's generated
		// GROUP BY uses, §6.2; float sums up to rounding, see
		// aggTable.absorb), and the row stages are embarrassingly parallel,
		// so the halves run concurrently and merge in range order — which
		// preserves the serial row order (ranges are contiguous) and the
		// serial group first-appearance order.
		ranges = results[:2]
		mid := (rows + 1) / 2
		var wg sync.WaitGroup
		for ri, rg := range [2][2]int{{0, mid}, {mid, rows}} {
			wg.Add(1)
			go func(ri, lo, hi int, part *relation.Part) {
				defer wg.Done()
				results[ri] = c.runRange(lo, hi, part)
			}(ri, rg[0], rg[1], c.part()) // parts open in range order
		}
		wg.Wait()
	}
	for _, r := range ranges {
		if r.err != nil {
			for i := range ranges {
				ranges[i].out.Release()
			}
			return rangeResult{}, r.err
		}
	}
	res := results[0]
	if res.table == nil && c.sink == nil {
		outs := [2]*relation.Collector{&results[0].out, &results[1].out}
		res.rows = relation.Rows(outs[:len(ranges)]...)
	}
	for _, r := range ranges[1:] {
		if res.table != nil {
			res.inRows += r.inRows
			res.table.absorb(r.table)
		}
		for i := range res.taps {
			res.taps[i].rows += r.taps[i].rows
			res.taps[i].phys += r.taps[i].phys
		}
	}
	return res, nil
}

// runChain executes one pipeline: it resolves every member against the
// environment, streams the head's input — bound relations, or opened external
// inputs only pipeline scans read (opts.Sources); a UNION's two laid end to
// end — through the composed stages (two halves from ParallelThreshold rows),
// materializes only the last member's output — unless that streams into its
// sink (opts.Sinks) and nil is returned — and records every member's trace
// entry: interior members from their taps, the last from the relation or the
// writer.
func runChain(ops []*ir.Op, env Env, trace *Trace, opts RunOptions) (*relation.Relation, error) {
	n := len(ops)
	head, last := ops[0], ops[n-1]
	if len(head.Inputs) == 0 {
		return nil, fmt.Errorf("exec: %s: no input", head)
	}
	batchRows := opts.BatchRows
	if batchRows <= 0 {
		batchRows = relation.DefaultBatchRows
	}
	c := &chain{batchRows: batchRows}
	// bindSources' rule, mirrored: a sink streams when no operator reads the
	// rows that end this pipeline — batch by batch, or a table's columns
	// whole (SORT, LIMIT and UDF finish rows).
	if (!terminal(last.Type) || tabled(last.Type)) && opts.uses[last.Out] == 0 {
		c.sink = opts.Sinks[last.Out]
	}
	in, err := bindScan(head, head.Inputs[0], env, opts)
	if err != nil {
		return nil, err
	}
	var second scan // a UNION's
	specs := make([]stagePlan, n)
	defer func() {
		for i := range specs {
			specs[i].release()
		}
	}()
	schemas := make(map[*ir.Op]relation.Schema, 2)
	prev := in.sch
	for i, op := range ops {
		sp := &specs[i]
		*sp = stagePlan{op: op, inSch: prev}
		schemas[op.Inputs[0]] = prev
		var right scan // the first input besides the upstream
		for k, other := range op.Inputs[1:] {
			s, err := bindScan(op, other, env, opts)
			if err != nil {
				return nil, err
			}
			schemas[other] = s.sch
			if k == 0 {
				right = s
			}
		}
		if sp.sch, err = ir.OutputSchema(op, schemas); err != nil {
			return nil, err
		}
		switch op.Type {
		case ir.OpSelect:
			if sp.pred, err = bindPred(op.Params.Pred, prev); err != nil {
				return nil, fmt.Errorf("exec: %s: %w", op, err)
			}
		case ir.OpUnion:
			second = right
		case ir.OpProject, ir.OpSort:
			cols := op.Params.Columns
			if op.Type == ir.OpSort {
				cols = op.Params.SortBy
			}
			sp.idx = make([]int, len(cols))
			for k, col := range cols {
				sp.idx[k] = prev.Index(col)
			}
		case ir.OpArith:
			if sp.arith, err = bindArith(&op.Params, prev); err != nil {
				return nil, fmt.Errorf("exec: %s: %w", op, err)
			}
		case ir.OpJoin, ir.OpCrossJoin:
			if sp.js, err = resolveJoinSpec(op, prev, right.sch); err != nil {
				return nil, err
			}
			// Hash join: build on the right input as its reader yields it —
			// a file's decoded batches or a bound relation's — and probe with
			// the streaming left, under one key for a CROSS JOIN. The table is
			// read-only once complete, so concurrent chunk pipelines share
			// it, and a loop's next round reuses it while its build side is
			// the same relation or opened file.
			built := opts.Joins[op]
			if built.table != nil && built.rel == right.rel && built.file == right.file {
				sp.build = built.table
				break
			}
			if sp.build, err = buildJoinTable(right.reader(0, right.rows, batchRows, false), right.rows, sp.js.rIdx, sp.js.rKeep, opts.Joins == nil || opts.recycleJoins); err != nil {
				return nil, err
			}
			if opts.Joins == nil {
				sp.ownsBuild = true
				break
			}
			if built.table != nil {
				built.table.release() // an earlier round's, over another input
			}
			opts.Joins[op] = builtJoin{right.rel, right.file, sp.build}
		case ir.OpAgg:
			if sp.ag, err = resolveAggSpec(op, prev); err != nil {
				return nil, err
			}
		case ir.OpDistinct, ir.OpIntersect, ir.OpDifference:
			sp.ag = aggSpec{gIdx: allCols(prev.Arity()), keepIn: op.Type == ir.OpIntersect}
			if setFilter(op.Type) {
				if sp.ag.filter, err = buildKeySet(right.reader(0, right.rows, batchRows, false), right.rows); err != nil {
					return nil, err
				}
			}
		}
		prev = sp.sch
	}
	c.stages = specs
	if terminal(last.Type) {
		c.stages, c.term = specs[:n-1], &specs[n-1]
	}
	// passOn: every streaming member only passes rows on (SELECT, UNION), so
	// the rows a bound scan yields reach the drain as they are: its batches
	// carry them, and a materialized output holds those rows themselves, not
	// copies. A distinct table keeps them by reference (byRef) when every
	// scan is bound. Otherwise the output's rows are cells this run built — a
	// table's or the collector's — and sizing may cache widths in them. No
	// row escapes a sink.
	passOn := true
	for _, sp := range c.stages {
		passOn = passOn && (sp.op.Type == ir.OpSelect || sp.op.Type == ir.OpUnion)
	}
	for i := range c.stages {
		specs[i].keepSrc = passOn
	}
	ownsOut := !passOn || in.rel == nil && second.rel == nil
	if c.term != nil && tabled(last.Type) {
		c.term.ag.byRef = passOn && last.Type != ir.OpAgg && in.file == nil && second.file == nil && c.sink == nil
		ownsOut = !c.term.ag.byRef
	}
	n0 := in.rows
	c.rows = n0 + second.rows
	c.open = func(lo, hi int) relation.RowSource { return in.reader(lo, hi, batchRows, passOn) }
	if head.Type == ir.OpUnion {
		c.open = func(lo, hi int) relation.RowSource {
			return &concatSource{first: in.reader(min(lo, n0), min(hi, n0), batchRows, passOn), second: second.reader(max(lo-n0, 0), max(hi-n0, 0), batchRows, passOn)}
		}
	}
	if c.sink != nil {
		c.sink.Schema = specs[n-1].sch // a columnar sink renders by it
	}
	res, err := c.run()
	if err != nil {
		return nil, err
	}
	var out *relation.Relation // stays nil when the rows went to the sink
	switch {
	case res.table != nil:
		if err := res.table.err(last); err != nil {
			res.table.release()
			return nil, err
		}
		if c.sink != nil {
			emitAggPart(res.table, res.inRows, specs[n-1].sch, c.sink.Part())
			break
		}
		out = relation.New(last.Out, specs[n-1].sch)
		emitAggRows(res.table, res.inRows, out)
	case c.sink == nil:
		out = relation.New(last.Out, specs[n-1].sch)
		out.Rows = res.rows
		if c.term != nil {
			if err := finish(c.term, out, env); err != nil {
				return nil, err
			}
		}
	}

	vol := in.volume(trace, opts.sizes)
	var buf [2]volume
	for i, op := range ops {
		ins := append(buf[:0], vol)
		for _, other := range op.Inputs[1:] {
			s, _ := bindScan(op, other, env, opts) // bound while resolving
			ins = append(ins, s.volume(trace, opts.sizes))
		}
		switch {
		case i < n-1:
			vol = trace.record(op, ins, res.taps[i].phys, res.taps[i].rows)
		case out != nil: // a UDF's rows are of unknown provenance
			trace.recordOutput(op, ins, out, ownsOut && op.Type != ir.OpUDF, opts.sizes)
		default: // sized by what was written
			c.sink.LogicalBytes = trace.record(op, ins, c.sink.BodyBytes(), c.sink.Rows()).logical
		}
	}
	return out, nil
}

// buildPipeline composes one pipeline instance over in, a row range of the
// head's input: one streaming stage per member (a terminal member is the
// caller's drain). Each stage hands its vectors back once its upstream is
// drained. taps[i] meters member i; the member past the end of taps (a
// materializing last member) is unmetered.
func buildPipeline(specs []stagePlan, in relation.RowSource, batchRows int, taps []accTap) relation.RowSource {
	src := in
	for i := range specs {
		sp := &specs[i]
		var tap *accTap
		if i < len(taps) {
			tap = &taps[i]
		}
		switch sp.op.Type {
		case ir.OpSelect, ir.OpUnion:
			src = &selectStage{src: src, sch: sp.sch, pred: sp.pred, keepSrc: sp.keepSrc, tap: tap}
		case ir.OpProject:
			src = &projectStage{src: src, sch: sp.sch, idx: sp.idx, tap: tap}
		case ir.OpArith:
			src = &arithStage{src: src, sch: sp.sch, arithSpec: sp.arith, tap: tap}
		case ir.OpJoin, ir.OpCrossJoin:
			src = &joinProbeStage{src: src, sch: sp.sch, lIdx: sp.js.lIdx, build: sp.build, batchRows: batchRows, tap: tap}
		}
	}
	return src
}
