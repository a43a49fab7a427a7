package exec

import (
	"fmt"
	"sync"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// This file plans execution units over a topologically-ordered operator
// list and drives the pipelined ones. SELECT, PROJECT, ARITH, JOIN-probe and
// AGG have exactly one implementation — the pull stages of stream.go — and
// always run as a pipeline of length ≥ 1: maximal chains stream through
// their interior members and materialize only the last one's output, and an
// operator with no fusable neighbour is simply a pipeline of one.

// pipelined reports whether t runs as a pipeline member. AGG has no
// streaming output, so it only ever ends a pipeline.
func pipelined(t ir.OpType) bool {
	switch t {
	case ir.OpSelect, ir.OpProject, ir.OpArith, ir.OpJoin, ir.OpAgg:
		return true
	}
	return false
}

// planUnits partitions ops into execution units, ordered by their last
// member: every operator that is not pipelined (INPUT, WHILE, the breaker
// kernels) is a unit of its own, and the pipelined ones group into maximal
// chains. A chain extends past a member — streaming through it, never
// materializing it — only when the member's single consumer edge inside the
// list is the next member's first (probe) input and the caller does not
// Keep it; a consumer reading the same producer twice (self join)
// contributes two edges, which ends the chain. A unit runs at its last
// member's position, so join build sides are materialized by then.
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
		for pipelined(ops[end].Type) && ops[end].Type != ir.OpAgg && edges[end] == 1 && (keep == nil || !keep(ops[end])) {
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
	op       *ir.Op
	inSch    relation.Schema
	sch      relation.Schema
	pred     *boundPred // SELECT
	idx      []int      // PROJECT
	arith    *arithSpec // ARITH
	js       joinSpec   // JOIN
	build    *joinTable
	buildRel *relation.Relation
	ag       aggSpec // terminal AGG
	fresh    bool    // allocate fresh value storage per batch (rows escape)
}

// chain is one resolved pipeline: the input its head scans (its row count,
// and open, which yields a row range of it in batches — views of a bound
// relation's rows, or a DFS file decoding as it is pulled), its streaming
// members, the terminal AGG when it ends in one, and the sink when its rows
// stream out. rowPreserving says every member emits exactly one row per
// input row (PROJECT and ARITH only).
type chain struct {
	rows          int
	open          func(lo, hi int) relation.RowSource
	stages        []stagePlan
	agg           *stagePlan
	sink          *relation.Writer
	rowPreserving bool
	batchRows     int
}

// rangeResult is what one pipeline instance over a scan range produced: the
// rows it materialized or the partial aggregation table it filled, plus the
// taps metering every member that was streamed through.
type rangeResult struct {
	rows   []relation.Row
	table  *aggTable
	inRows int
	taps   []accTap
	err    error
}

// runRange drives one pipeline instance over input rows [lo, hi), draining
// row output into part when the chain has a sink, else into dst.
func (c *chain) runRange(lo, hi int, dst []relation.Row, part *relation.Part) rangeResult {
	var res rangeResult
	tapped := len(c.stages)
	if c.agg == nil {
		tapped-- // the output is sized from the relation, or by its writer
	}
	res.taps = make([]accTap, tapped)
	if tapped > 0 {
		memo := new(relation.WidthMemo)
		for i := range res.taps {
			res.taps[i].memo = memo
		}
	}
	pipe, arenas := buildPipeline(c.stages, c.open(lo, hi), c.batchRows, res.taps)
	switch {
	case c.agg != nil:
		res.table = newAggTable(c.agg.ag)
		res.inRows, res.err = drainAgg(pipe, res.table)
	case part != nil:
		res.err = drainSink(pipe, part)
	default:
		res.rows, res.err = drainRows(pipe, dst)
	}
	// Drained: only the rows of fresh arenas outlive the pipeline.
	for _, ar := range arenas {
		ar.release()
	}
	return res
}

// run streams the input through the pipeline and merges the ranges' results
// into one: the materialized rows or the aggregation table (a sink's ranges
// each fill their own part), and the summed taps. Below ParallelThreshold
// rows the input is one range; from there up it is two halves, [0, (n+1)/2)
// and [(n+1)/2, n), run concurrently. The cut depends on the row count
// alone, so a streamed file splits exactly where its materialized rows
// would, and every host computes the same relation, float sums included.
func (c *chain) run() (rangeResult, error) {
	rows := c.rows
	// A row-preserving pipeline emits exactly its scan range, so its output
	// is allocated once and every range drains into its own disjoint window.
	var window []relation.Row
	if c.rowPreserving && c.sink == nil {
		window = make([]relation.Row, rows)
	}
	if rows < max(ParallelThreshold, 2) {
		res := c.runRange(0, rows, window[:0], c.sink.Part())
		return res, res.err
	}
	mid := (rows + 1) / 2
	ranges := [2][2]int{{0, mid}, {mid, rows}}
	// Combiner-style evaluation: every aggregator merges once AVG is
	// decomposed into SUM+COUNT (the decomposition Musketeer's generated
	// GROUP BY uses, §6.2; float sums up to rounding, see aggTable.absorb),
	// and the row stages are embarrassingly parallel, so the halves run
	// concurrently and merge in range order — which preserves the serial
	// row order (ranges are contiguous) and the serial group
	// first-appearance order.
	var results [2]rangeResult
	var wg sync.WaitGroup
	for ri, rg := range ranges {
		var dst []relation.Row
		if window != nil {
			dst = window[rg[0]:rg[0]:rg[1]]
		}
		wg.Add(1)
		go func(ri, lo, hi int, dst []relation.Row, part *relation.Part) {
			defer wg.Done()
			results[ri] = c.runRange(lo, hi, dst, part)
		}(ri, rg[0], rg[1], dst, c.sink.Part()) // parts open in range order
	}
	wg.Wait()
	total := 0
	for ri := range results {
		if results[ri].err != nil {
			return rangeResult{}, results[ri].err
		}
		total += len(results[ri].rows)
	}
	res := results[0]
	switch {
	case window != nil:
		res.rows = window
	case total > 0:
		res.rows = append(make([]relation.Row, 0, total), res.rows...)
	}
	for _, r := range results[1:] {
		if c.agg != nil {
			res.inRows += r.inRows
			res.table.absorb(r.table)
		} else if window == nil {
			res.rows = append(res.rows, r.rows...)
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
	c := &chain{batchRows: batchRows, rowPreserving: true}
	// bindSources' rule, mirrored: a sink streams when no operator reads the
	// rows that end this pipeline (an AGG emits its table whole).
	if last.Type != ir.OpAgg && opts.uses[last.Out] == 0 {
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
	schemas := make(map[*ir.Op]relation.Schema, 2)
	// ownsOut: the output's rows are storage this run allocated (the AGG's
	// emitted rows, the fresh stage's arenas, or a file reader's), so sizing
	// may cache widths in them; a pure-SELECT pipeline over a bound relation
	// outputs rows that alias the shared scan rows. No row escapes a sink.
	ownsOut := last.Type == ir.OpAgg || c.sink != nil
	for i, op := range ops {
		sp := &specs[i]
		*sp = stagePlan{op: op, inSch: prev}
		schemas[op.Inputs[0]] = prev
		if op.Type == ir.OpJoin {
			if len(op.Inputs) < 2 {
				return nil, fmt.Errorf("exec: %s: no build input", op)
			}
			if sp.buildRel = env[op.Inputs[1].Out]; sp.buildRel == nil {
				return nil, fmt.Errorf("exec: %s: input relation %q not materialized", op, op.Inputs[1].Out)
			}
			schemas[op.Inputs[1]] = sp.buildRel.Schema
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
			if sp.js, err = resolveJoinSpec(op, prev, sp.buildRel.Schema); err != nil {
				return nil, err
			}
			// Hash join: build on the right input, probe with the streaming
			// left. The table is read-only once complete, so concurrent
			// chunk pipelines share it, and a loop's next round reuses it
			// while its build side is the same relation.
			if built := opts.Joins[op]; built.rel == sp.buildRel {
				sp.build = built.table
			} else {
				sp.build = buildJoinTable(sp.buildRel.Rows, sp.js.rIdx)
				if opts.Joins != nil {
					opts.Joins[op] = builtJoin{sp.buildRel, sp.build}
				}
			}
		case ir.OpAgg:
			if sp.ag, err = resolveAggSpec(op, prev); err != nil {
				return nil, err
			}
		}
		c.rowPreserving = c.rowPreserving && (op.Type == ir.OpProject || op.Type == ir.OpArith)
		prev = sp.sch
	}
	c.stages = specs
	if last.Type == ir.OpAgg {
		c.stages, c.agg = specs[:n-1], &specs[n-1]
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
	case c.agg != nil: // never a streaming sink
		out = relation.New(last.Out, specs[n-1].sch)
		emitAggRows(c.agg.inSch, res.table, res.inRows, out)
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
		if op.Type == ir.OpJoin {
			ins[1] = trace.volumeOf(specs[i].buildRel)
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
// head's input: one streaming stage per member (a terminal AGG is the
// caller's sink), and returns it with the stages' reusable arenas, for the
// caller to release once it has drained the pipeline. taps[i] meters member i; the
// member past the end of taps (a materializing last member) is unmetered.
func buildPipeline(specs []stagePlan, in relation.RowSource, batchRows int, taps []accTap) (relation.RowSource, []*valArena) {
	src := in
	var arenas []*valArena
	for i := range specs {
		sp := &specs[i]
		var tap *accTap
		if i < len(taps) {
			tap = &taps[i]
		}
		var ar *valArena
		switch sp.op.Type {
		case ir.OpSelect:
			src = &selectStage{src: src, sch: sp.sch, pred: sp.pred, tap: tap}
		case ir.OpProject:
			st := &projectStage{src: src, sch: sp.sch, idx: sp.idx, tap: tap, ar: valArena{fresh: sp.fresh}}
			src, ar = st, &st.ar
		case ir.OpArith:
			st := &arithStage{src: src, sch: sp.sch, arithSpec: sp.arith, tap: tap, ar: valArena{fresh: sp.fresh}}
			src, ar = st, &st.ar
		case ir.OpJoin:
			st := &joinProbeStage{src: src, sch: sp.sch, lIdx: sp.js.lIdx, rKeep: sp.js.rKeep, build: sp.build, batchRows: batchRows, tap: tap, ar: valArena{fresh: sp.fresh}}
			src, ar = st, &st.ar
		}
		if ar != nil && !ar.fresh {
			arenas = append(arenas, ar)
		}
	}
	return src, arenas
}
