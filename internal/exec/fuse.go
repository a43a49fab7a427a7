package exec

import (
	"fmt"
	"sync"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// This file plans execution units over a topologically-ordered operator
// list and drives the pipelined ones. SELECT, PROJECT, ARITH and JOIN-probe
// have exactly one implementation — the pull stages of stream.go — and a
// pipeline may end in a table: AGG's groups, or the distinct table that
// DISTINCT fills and that INTERSECT and DIFFERENCE fill through a filter on
// their right input's key set. Every such operator always runs as a pipeline
// of length ≥ 1: maximal chains stream through their interior members and
// materialize only the last one's output, and an operator with no fusable
// neighbour is simply a pipeline of one.

// pipelined reports whether t runs as a pipeline member.
func pipelined(t ir.OpType) bool {
	switch t {
	case ir.OpSelect, ir.OpProject, ir.OpArith, ir.OpJoin:
		return true
	}
	return terminal(t)
}

// terminal reports whether t fills a table it emits whole — AGG, or the
// distinct table of DISTINCT, INTERSECT and DIFFERENCE — and so only ever
// ends a pipeline.
func terminal(t ir.OpType) bool {
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
// member: every operator that is not pipelined (INPUT, WHILE, the breaker
// kernels) is a unit of its own, and the pipelined ones group into maximal
// chains. A chain extends past a member — streaming through it, never
// materializing it — only when the member is not terminal, its single
// consumer edge inside the list is the next member's first (probe or left)
// input and the caller does not Keep it; a consumer reading the same
// producer twice (self join) contributes two edges, which ends the chain. A
// unit runs at its last member's position, so join build sides and set
// operators' right inputs are materialized, or open to stream, by then.
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
			if !pipelined(next.Type) || next.Inputs[0] != ops[end] {
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
	idx   []int      // PROJECT
	arith *arithSpec // ARITH
	js    joinSpec   // JOIN
	build *joinTable
	// ownsBuild says the chain built build for itself, and hands it back
	// when it finishes: no later run will probe it.
	ownsBuild bool
	// right is the second input of a JOIN (its build side) or a set
	// operator, bound; rightFile a set operator's right input when it
	// streams instead.
	right     *relation.Relation
	rightFile *relation.Encoded
	ag        aggSpec // terminal AGG, DISTINCT, INTERSECT or DIFFERENCE
	fresh     bool    // allocate fresh value storage per batch (rows escape)
}

// rightVolume sizes the member's second input: a streamed one was metered
// while its key set was built.
func (sp *stagePlan) rightVolume(trace *Trace) volume {
	if f := sp.rightFile; f != nil {
		return volume{phys: f.PhysicalBytes(), logical: f.LogicalBytes}
	}
	return trace.volumeOf(sp.right)
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

// chain is one resolved pipeline: the input its head scans (its row count,
// and open, which yields a row range of it in batches — views of a bound
// relation's rows, or a DFS file decoding as it is pulled), its streaming
// members, the terminal table when it ends in one, and the sink when its
// rows stream out.
type chain struct {
	rows      int
	open      func(lo, hi int) relation.RowSource
	stages    []stagePlan
	term      *stagePlan
	sink      *relation.Writer
	batchRows int
}

// rangeResult is what one pipeline instance over a scan range produced: the
// rows it materialized, in buf, a pooled header buffer, or the partial table
// it filled, plus the taps metering every member that was streamed through.
type rangeResult struct {
	rows   []relation.Row
	buf    *[]relation.Row
	table  *aggTable
	inRows int
	taps   []accTap
	err    error
}

// runRange drives one pipeline instance over input rows [lo, hi): into a
// table when the chain ends in one, into part when it has a sink, else into a
// pooled header buffer.
func (c *chain) runRange(lo, hi int, part *relation.Part) rangeResult {
	var res rangeResult
	tapped := len(c.stages)
	if c.term == nil {
		tapped-- // the output is sized from the relation, or by its writer
	}
	res.taps = make([]accTap, tapped)
	if tapped > 0 {
		memo := new(relation.WidthMemo)
		for i := range res.taps {
			res.taps[i].memo = memo
		}
	}
	pipe := buildPipeline(c.stages, c.open(lo, hi), c.batchRows, res.taps)
	switch {
	case c.term != nil:
		res.table = newAggTable(c.term.ag)
		res.inRows, res.err = drainAgg(pipe, res.table)
	case part != nil:
		res.err = drainSink(pipe, part)
	default:
		res.buf, res.rows, res.err = drainHeaders(pipe)
	}
	return res
}

// run streams the input through the pipeline and merges the ranges' results
// into one: the materialized rows, copied once into exactly sized headers, or
// the table (a sink's ranges each fill their own part), and the summed taps.
// Below
// ParallelThreshold rows the input is one range; from there up it is two
// halves, [0, (n+1)/2) and [(n+1)/2, n), run concurrently. The cut depends
// on the row count alone, so a streamed file splits exactly where its
// materialized rows would, and every host computes the same relation, float
// sums included.
func (c *chain) run() (rangeResult, error) {
	rows := c.rows
	var results [2]rangeResult
	ranges := results[:1]
	if rows < max(ParallelThreshold, 2) {
		results[0] = c.runRange(0, rows, c.sink.Part())
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
			}(ri, rg[0], rg[1], c.sink.Part()) // parts open in range order
		}
		wg.Wait()
	}
	for _, r := range ranges {
		if r.err != nil {
			return rangeResult{}, r.err
		}
	}
	res := results[0]
	if c.term == nil && c.sink == nil {
		res.rows = collectHeaders(ranges)
	}
	for _, r := range ranges[1:] {
		if c.term != nil {
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
// environment, streams the head's input — a bound relation, or an opened
// external input only this head reads (opts.Sources) — through the composed
// stages (two halves from ParallelThreshold rows), materializes only the
// last member's output — unless that streams into its sink (opts.Sinks) and
// nil is returned — and records every member's trace entry: interior members
// from their taps, the last from the relation or the writer.
func runChain(ops []*ir.Op, env Env, trace *Trace, opts RunOptions) (*relation.Relation, error) {
	n := len(ops)
	last := ops[n-1]
	if len(ops[0].Inputs) == 0 {
		return nil, fmt.Errorf("exec: %s: no input", ops[0])
	}
	batchRows := opts.BatchRows
	if batchRows <= 0 {
		batchRows = relation.DefaultBatchRows
	}
	c := &chain{batchRows: batchRows}
	// bindSources' rule, mirrored: a sink streams when no operator reads the
	// rows that end this pipeline (a table is emitted whole).
	if !terminal(last.Type) && opts.uses[last.Out] == 0 {
		c.sink = opts.Sinks[last.Out]
	}
	file, src := opts.Sources[ops[0].Inputs[0].Out], env[ops[0].Inputs[0].Out]
	var prev relation.Schema
	switch {
	case file != nil:
		prev, c.rows = file.Schema, file.NumRows()
	case src != nil:
		prev, c.rows = src.Schema, len(src.Rows)
	default:
		return nil, fmt.Errorf("exec: %s: input relation %q not materialized", ops[0], ops[0].Inputs[0].Out)
	}
	specs := make([]stagePlan, n)
	defer func() {
		for i := range specs {
			specs[i].release()
		}
	}()
	schemas := make(map[*ir.Op]relation.Schema, 2)
	// stable: the rows reaching the last member outlive the pipeline — a
	// bound relation's, passed on by SELECTs — so a distinct table keeps them
	// by reference.
	stable := file == nil
	for i, op := range ops {
		sp := &specs[i]
		*sp = stagePlan{op: op, inSch: prev}
		schemas[op.Inputs[0]] = prev
		if op.Type == ir.OpJoin || setFilter(op.Type) {
			if len(op.Inputs) < 2 {
				return nil, fmt.Errorf("exec: %s: no right input", op)
			}
			// Only a set operator's right input streams (see bindSources).
			in := op.Inputs[1]
			if f := opts.Sources[in.Out]; f != nil && setFilter(op.Type) {
				sp.rightFile, schemas[in] = f, f.Schema
			} else if sp.right = env[in.Out]; sp.right != nil {
				schemas[in] = sp.right.Schema
			} else {
				return nil, fmt.Errorf("exec: %s: input relation %q not materialized", op, in.Out)
			}
		}
		var err error
		if sp.sch, err = ir.OutputSchema(op, schemas); err != nil {
			return nil, err
		}
		switch op.Type {
		case ir.OpSelect:
			if sp.pred, err = bindPred(op.Params.Pred, prev); err != nil {
				return nil, fmt.Errorf("exec: %s: %w", op, err)
			}
		case ir.OpProject:
			sp.idx = make([]int, len(op.Params.Columns))
			for k, col := range op.Params.Columns {
				sp.idx[k] = prev.Index(col)
			}
		case ir.OpArith:
			if sp.arith, err = bindArith(&op.Params, prev); err != nil {
				return nil, fmt.Errorf("exec: %s: %w", op, err)
			}
		case ir.OpJoin:
			if sp.js, err = resolveJoinSpec(op, prev, sp.right.Schema); err != nil {
				return nil, err
			}
			// Hash join: build on the right input, probe with the streaming
			// left. The table is read-only once complete, so concurrent
			// chunk pipelines share it, and a loop's next round reuses it
			// while its build side is the same relation.
			built := opts.Joins[op]
			if built.rel == sp.right {
				sp.build = built.table
				break
			}
			sp.build = buildJoinTable(sp.right.Rows, sp.js.rIdx, opts.Joins == nil || opts.recycleJoins)
			if opts.Joins == nil {
				sp.ownsBuild = true
				break
			}
			if built.table != nil {
				built.table.release() // an earlier round's, over another relation
			}
			opts.Joins[op] = builtJoin{sp.right, sp.build}
		case ir.OpAgg:
			if sp.ag, err = resolveAggSpec(op, prev); err != nil {
				return nil, err
			}
		case ir.OpDistinct, ir.OpIntersect, ir.OpDifference:
			sp.ag = aggSpec{gIdx: allCols(prev.Arity()), keepIn: op.Type == ir.OpIntersect, byRef: stable}
			if !setFilter(op.Type) {
				break
			}
			var keys relation.RowSource
			var rows int
			if f := sp.rightFile; f != nil {
				keys, rows = f.Reader(0, f.NumRows(), batchRows, false), f.NumRows()
			} else {
				keys, rows = sp.right.Reader(0, len(sp.right.Rows), batchRows), len(sp.right.Rows)
			}
			if sp.ag.filter, err = buildKeySet(keys, rows); err != nil {
				return nil, err
			}
		}
		stable = stable && op.Type == ir.OpSelect
		prev = sp.sch
	}
	c.stages = specs
	// ownsOut: the output's rows are storage this run allocated (a table's
	// rows, the fresh stage's arenas, or a file reader's), so sizing may
	// cache widths in them; a pure-SELECT pipeline over a bound relation
	// outputs rows that alias the shared scan rows, and so does a distinct
	// table over it. No row escapes a sink.
	ownsOut := c.sink != nil
	if terminal(last.Type) {
		c.stages, c.term = specs[:n-1], &specs[n-1]
		ownsOut = !c.term.ag.byRef
	} else {
		// The last constructing stage before the materializing drain must
		// allocate per batch: its rows escape the pipeline. A pipeline of
		// pure SELECTs shares the (stable) scan rows and needs no copy.
		for i := n - 1; i >= 0 && !ownsOut; i-- {
			if ops[i].Type != ir.OpSelect {
				specs[i].fresh, ownsOut = true, true
			}
		}
	}
	if file != nil {
		// Rows a pure-SELECT pipeline passes through escape it by reference,
		// so the reader must not recycle their storage.
		fresh := !ownsOut
		c.open = func(lo, hi int) relation.RowSource { return file.Reader(lo, hi, batchRows, fresh) }
		ownsOut = true
	} else {
		c.open = func(lo, hi int) relation.RowSource { return src.Reader(lo, hi, batchRows) }
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
	case c.term != nil: // never a streaming sink
		out = relation.New(last.Out, specs[n-1].sch)
		emitAggRows(c.term.inSch, res.table, res.inRows, out)
	case c.sink == nil:
		out = relation.New(last.Out, specs[n-1].sch)
		out.Rows = res.rows
	}

	// A streamed input was sized by its readers' meter as it was decoded.
	var vol volume
	if file != nil {
		vol = volume{phys: file.PhysicalBytes(), logical: file.LogicalBytes}
	} else {
		vol = trace.volumeOf(src)
	}
	for i, op := range ops {
		ins := [2]volume{vol}
		k := 1
		if len(op.Inputs) == 2 {
			ins[1] = specs[i].rightVolume(trace)
			k = 2
		}
		switch {
		case i < n-1:
			vol = trace.record(op, ins[:k], res.taps[i].phys, res.taps[i].rows)
		case out != nil:
			trace.recordOutput(op, ins[:k], out, ownsOut)
		default: // sized by what was written
			c.sink.LogicalBytes = trace.record(op, ins[:k], c.sink.BodyBytes(), c.sink.Rows()).logical
		}
	}
	return out, nil
}

// buildPipeline composes one pipeline instance over in, a row range of the
// head's input: one streaming stage per member (a terminal table is the
// caller's sink). Each stage hands its arena back once its upstream is
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
		ar := relation.Arena{Fresh: sp.fresh}
		switch sp.op.Type {
		case ir.OpSelect:
			src = &selectStage{src: src, sch: sp.sch, pred: sp.pred, tap: tap, ar: ar}
		case ir.OpProject:
			src = &projectStage{src: src, sch: sp.sch, idx: sp.idx, tap: tap, ar: ar}
		case ir.OpArith:
			src = &arithStage{src: src, sch: sp.sch, arithSpec: sp.arith, tap: tap, ar: ar}
		case ir.OpJoin:
			src = &joinProbeStage{src: src, sch: sp.sch, lIdx: sp.js.lIdx, rKeep: sp.js.rKeep, build: sp.build, batchRows: batchRows, tap: tap, ar: ar}
		}
	}
	return src
}
