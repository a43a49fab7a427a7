package exec

import (
	"fmt"
	"sync"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// This file is the operator fuser: it plans maximal SELECT/PROJECT/ARITH/
// JOIN-probe(/terminal AGG) chains over a topologically-ordered operator
// list and runs each chain as one streaming pipeline (stream.go) instead of
// materializing every intermediate relation. Elided intermediates are
// metered by accTaps, so the recorded trace — and therefore every simulated
// cost, golden trace, and history entry downstream — is identical to what
// op-by-op materialized evaluation records.

// RunOptions parameterizes a RunOps evaluation.
type RunOptions struct {
	// Keep marks operators whose outputs must materialize into the
	// environment even when a fused pipeline could stream through them
	// (fragment external outputs, loop-carried relations). nil keeps
	// nothing extra: every eligible interior operator fuses.
	Keep func(*ir.Op) bool
	// BatchRows overrides the pipeline batch size
	// (relation.DefaultBatchRows). Tests force tiny batches.
	BatchRows int
	// Check runs before each execution unit (a fused chain or a single
	// operator); a non-nil error aborts the run. Engines use it for
	// cancellation.
	Check func() error
	// SkipInputs skips OpInput operators instead of resolving them
	// (engines bind external inputs into env themselves).
	SkipInputs bool
	// NoFuse disables pipeline fusion: every operator runs as a
	// standalone materialized kernel.
	NoFuse bool
}

// RunOps evaluates ops — which must already be in topological order —
// against env, fusing eligible operator chains into streaming pipelines.
// Results of non-elided operators land in env under their output names;
// trace (which may be nil) records the same per-operator volumes a
// materialized evaluation would.
func RunOps(ops []*ir.Op, env Env, trace *Trace, opts RunOptions) error {
	var elided map[*ir.Op]bool
	var byLast map[*ir.Op]*opChain
	if !opts.NoFuse {
		elided, byLast = planChains(ops, opts.Keep)
	}
	for _, op := range ops {
		if opts.SkipInputs && op.Type == ir.OpInput {
			continue
		}
		if elided[op] {
			continue // runs inside its chain, at the chain's last member
		}
		if opts.Check != nil {
			if err := opts.Check(); err != nil {
				return err
			}
		}
		if c := byLast[op]; c != nil {
			if err := runChain(c, env, trace, opts); err != nil {
				return err
			}
			continue
		}
		var rel *relation.Relation
		var err error
		if op.Type == ir.OpWhile {
			rel, err = runWhile(op, env, trace, opts)
		} else {
			rel, err = RunOp(op, env, trace)
		}
		if err != nil {
			return err
		}
		env[op.Out] = rel
		if trace != nil {
			eff := rel.LogicalBytes
			if eff <= 0 {
				eff = physicalBytes(rel, buildsRows(op.Type))
			}
			trace.OutBytes[op.ID] = eff
			trace.OutRows[op.ID] = rel.NumRows()
			if op.Type != ir.OpInput && op.Type != ir.OpWhile {
				// PROCESS volume covers produced data too: materializing a
				// generative operator's output is real work.
				trace.ProcBytes[op.ID] += eff
			}
		}
	}
	return nil
}

// opChain is one fused pipeline: ops in DAG topological order. All members
// but the last are elided; the chain executes at the last member's position
// and materializes only that member's output.
type opChain struct {
	ops []*ir.Op
}

// fusableMember reports whether t can be an interior or terminal member of
// a fused chain. AGG is terminal-only (it has no streaming output) —
// planChains enforces that by ending a chain once it absorbs one.
func fusableMember(t ir.OpType) bool {
	switch t {
	case ir.OpSelect, ir.OpProject, ir.OpArith, ir.OpJoin, ir.OpAgg:
		return true
	}
	return false
}

// fusableHead reports whether t can start a chain (scan its materialized
// input and stream from there).
func fusableHead(t ir.OpType) bool {
	switch t {
	case ir.OpSelect, ir.OpProject, ir.OpArith, ir.OpJoin:
		return true
	}
	return false
}

// planChains partitions the fusable subgraph of ops into maximal chains. An
// operator is elided (streamed through, never materialized) only when its
// single consumer edge is the next chain member and the caller does not
// Keep it. Join consumers only extend a chain through their probe (first)
// input, and only when their build side is materialized.
func planChains(ops []*ir.Op, keep func(*ir.Op) bool) (map[*ir.Op]bool, map[*ir.Op]*opChain) {
	member := make(map[*ir.Op]bool, len(ops))
	for _, op := range ops {
		if op.Type != ir.OpInput {
			member[op] = true
		}
	}
	// Consumer edges within the list; a consumer reading the same producer
	// twice (self join) contributes two edges, which blocks fusion.
	cons := make(map[*ir.Op][]*ir.Op)
	for _, op := range ops {
		if op.Type == ir.OpInput {
			continue
		}
		for _, in := range op.Inputs {
			if member[in] {
				cons[in] = append(cons[in], op)
			}
		}
	}
	elided := make(map[*ir.Op]bool)
	byLast := make(map[*ir.Op]*opChain)
	assigned := make(map[*ir.Op]bool)
	for _, op := range ops {
		if assigned[op] || !member[op] || !fusableHead(op.Type) {
			continue
		}
		c := &opChain{ops: []*ir.Op{op}}
		cur := op
		for {
			if keep != nil && keep(cur) {
				break // cur must materialize; the chain ends at it
			}
			edges := cons[cur]
			if len(edges) != 1 {
				break
			}
			next := edges[0]
			if assigned[next] || !fusableMember(next.Type) || len(next.Inputs) == 0 || next.Inputs[0] != cur {
				break
			}
			if next.Type == ir.OpJoin && (len(next.Inputs) < 2 || elided[next.Inputs[1]] || next.Inputs[1] == cur) {
				break
			}
			elided[cur] = true
			assigned[next] = true
			c.ops = append(c.ops, next)
			cur = next
			if cur.Type == ir.OpAgg {
				break
			}
		}
		if len(c.ops) == 1 {
			continue // nothing fused with it; runs as a singleton
		}
		assigned[op] = true
		byLast[cur] = c
	}
	return elided, byLast
}

// stagePlan is one chain member's resolved execution plan. The plan is
// immutable once built, so concurrent chunk pipelines share it.
type stagePlan struct {
	op       *ir.Op
	inSch    relation.Schema
	sch      relation.Schema
	pred     *ir.Pred  // SELECT
	idx      []int     // PROJECT
	dstIdx   int       // ARITH; -1 appends
	js       joinSpec  // JOIN
	build    *joinTable
	buildRel *relation.Relation
	ag       aggSpec // terminal AGG
	fresh    bool    // allocate fresh value storage per batch (rows escape)
}

// runChain executes one fused chain: it resolves every member against the
// environment, streams the head's input relation through the composed
// pipeline (chunk-parallel above ParallelThreshold), materializes only the
// terminal's output, and reconstructs the exact per-operator trace the
// materialized path would have recorded.
func runChain(c *opChain, env Env, trace *Trace, opts RunOptions) error {
	head, last := c.ops[0], c.ops[len(c.ops)-1]
	n := len(c.ops)
	src, ok := env[head.Inputs[0].Out]
	if !ok {
		return fmt.Errorf("exec: %s: input relation %q not materialized", head, head.Inputs[0].Out)
	}
	specs := make([]stagePlan, n)
	prev := src.Schema
	for i, op := range c.ops {
		sp := stagePlan{op: op, inSch: prev, dstIdx: -1}
		schemas := map[*ir.Op]relation.Schema{op.Inputs[0]: prev}
		if op.Type == ir.OpJoin {
			b, ok := env[op.Inputs[1].Out]
			if !ok {
				return fmt.Errorf("exec: %s: input relation %q not materialized", op, op.Inputs[1].Out)
			}
			sp.buildRel = b
			schemas[op.Inputs[1]] = b.Schema
		}
		outSch, err := ir.OutputSchema(op, schemas)
		if err != nil {
			return err
		}
		sp.sch = outSch
		switch op.Type {
		case ir.OpSelect:
			sp.pred = op.Params.Pred
		case ir.OpProject:
			sp.idx = make([]int, len(op.Params.Columns))
			for k, col := range op.Params.Columns {
				sp.idx[k] = prev.Index(col)
			}
		case ir.OpArith:
			sp.dstIdx = prev.Index(op.Params.Dst)
		case ir.OpJoin:
			js, err := resolveJoinSpec(op, prev, sp.buildRel.Schema)
			if err != nil {
				return err
			}
			sp.js = js
			sp.build = buildJoinTable(sp.buildRel.Rows, js.rIdx)
		case ir.OpAgg:
			ag, err := resolveAggSpec(op, prev)
			if err != nil {
				return err
			}
			sp.ag = ag
		}
		specs[i] = sp
		prev = outSch
	}
	isAgg := last.Type == ir.OpAgg
	// ownsOut: the output's rows are storage this run allocated (the AGG's
	// emitted rows, or the fresh stage's arenas), so sizing may cache widths
	// in them; a pure-SELECT chain's output aliases the shared scan rows.
	ownsOut := isAgg
	if !isAgg {
		// The last constructing stage before the materializing terminal
		// must allocate per batch: its rows escape the pipeline. A chain of
		// pure SELECTs shares the (stable) scan rows and needs no copy.
		for i := n - 1; i >= 0; i-- {
			switch specs[i].op.Type {
			case ir.OpProject, ir.OpArith, ir.OpJoin:
				specs[i].fresh = true
				ownsOut = true
			default:
				continue
			}
			break
		}
	}
	pipeSpecs := specs
	if isAgg {
		pipeSpecs = specs[:n-1]
	}
	out := relation.New(last.Out, specs[n-1].sch)

	type chunkResult struct {
		rows   []relation.Row
		table  *aggTable
		inRows int
		taps   []*accTap
		err    error
	}
	ranges := [][2]int{{0, len(src.Rows)}}
	if len(src.Rows) >= ParallelThreshold {
		ranges = chunkRanges(len(src.Rows))
	}
	results := make([]chunkResult, len(ranges))
	runChunk := func(ci, lo, hi int) {
		res := &results[ci]
		res.taps = make([]*accTap, n)
		for i := 0; i < n-1; i++ {
			res.taps[i] = &accTap{}
		}
		pipe := buildPipeline(pipeSpecs, src.Schema, src.Rows[lo:hi], opts.BatchRows, res.taps)
		if isAgg {
			res.table = newAggTable()
			res.inRows, res.err = drainAgg(pipe, res.table, specs[n-1].ag.gIdx, specs[n-1].ag.aIdx)
		} else {
			res.rows, res.err = drainRows(pipe, nil)
		}
	}
	if len(ranges) == 1 {
		runChunk(0, ranges[0][0], ranges[0][1])
	} else {
		var wg sync.WaitGroup
		for ci, rg := range ranges {
			wg.Add(1)
			go func(ci, lo, hi int) {
				defer wg.Done()
				runChunk(ci, lo, hi)
			}(ci, rg[0], rg[1])
		}
		wg.Wait()
	}
	// Merge chunk results in chunk order, which preserves the serial row
	// order (chunks are contiguous input ranges) and the serial group
	// first-appearance order.
	taps := make([]*accTap, n)
	for i := 0; i < n-1; i++ {
		taps[i] = &accTap{}
	}
	var table *aggTable
	aggIn := 0
	total := 0
	for i := range results {
		if results[i].err != nil {
			return results[i].err
		}
		total += len(results[i].rows)
	}
	if !isAgg && total > 0 {
		out.Rows = make([]relation.Row, 0, total)
	}
	for ri := range results {
		res := &results[ri]
		if isAgg {
			aggIn += res.inRows
			if table == nil {
				table = res.table
			} else {
				table.absorb(res.table)
			}
		} else {
			out.Rows = append(out.Rows, res.rows...)
		}
		for i := 0; i < n-1; i++ {
			taps[i].rows += res.taps[i].rows
			taps[i].phys += res.taps[i].phys
		}
	}
	if isAgg {
		emitAggRows(last, specs[n-1].inSch, specs[n-1].ag, table, aggIn, out)
	}

	// Reconstruct the trace of the equivalent materialized evaluation: walk
	// the chain accumulating each member's input volume, scale ratio, and
	// (virtual) output size, using the exact float arithmetic of
	// propagateScale/ScaleRatio so traces — and everything costed from them
	// — are bit-identical with fusion on or off.
	prevEff := src.EffectiveBytes()
	prevRatio := src.ScaleRatio()
	for i, op := range c.ops {
		if trace != nil {
			trace.ProcBytes[op.ID] += prevEff
			trace.InBytes[op.ID] += prevEff
		}
		ratio := prevRatio
		if ratio < 1 {
			ratio = 1
		}
		if op.Type == ir.OpJoin {
			b := specs[i].buildRel
			if trace != nil {
				beff := b.EffectiveBytes()
				trace.ProcBytes[op.ID] += beff
				trace.InBytes[op.ID] += beff
			}
			if r := b.ScaleRatio(); r > ratio {
				ratio = r
			}
		}
		var phys int64
		var rowsN int
		if i == n-1 {
			phys = physicalBytes(out, ownsOut)
			rowsN = len(out.Rows)
		} else {
			phys = taps[i].phys
			rowsN = taps[i].rows
		}
		var logical int64
		if ratio > 1 {
			logical = int64(float64(phys) * ratio)
		}
		eff := phys
		if logical > 0 {
			eff = logical
		}
		if i == n-1 {
			out.LogicalBytes = logical
		}
		if trace != nil {
			trace.OutBytes[op.ID] = eff
			trace.OutRows[op.ID] = rowsN
			trace.ProcBytes[op.ID] += eff
		}
		prevEff = eff
		if logical > 0 && phys > 0 {
			prevRatio = float64(logical) / float64(phys)
		} else {
			prevRatio = 1
		}
	}
	env[last.Out] = out
	return nil
}

// buildPipeline composes one pipeline instance over a scan range. The
// chain's leading SELECTs and an immediately following PROJECT fold into
// the scan itself (predicate and projection pushdown); remaining members
// become streaming stages.
func buildPipeline(specs []stagePlan, srcSch relation.Schema, rows []relation.Row, batchRows int, taps []*accTap) relation.RowSource {
	scan := &scanSource{in: rows, inSch: srcSch, sch: srcSch, batchRows: batchRows}
	i := 0
	for ; i < len(specs) && specs[i].op.Type == ir.OpSelect; i++ {
		scan.preds = append(scan.preds, specs[i].pred)
		scan.predTaps = append(scan.predTaps, taps[i])
	}
	if i < len(specs) && specs[i].op.Type == ir.OpProject {
		scan.proj = specs[i].idx
		scan.projTap = taps[i]
		scan.ar = valArena{fresh: specs[i].fresh}
		scan.sch = specs[i].sch
		i++
	}
	var src relation.RowSource = scan
	for ; i < len(specs); i++ {
		sp := &specs[i]
		switch sp.op.Type {
		case ir.OpSelect:
			src = &selectStage{src: src, sch: sp.sch, pred: sp.pred, tap: taps[i]}
		case ir.OpProject:
			src = &projectStage{src: src, sch: sp.sch, idx: sp.idx, tap: taps[i], ar: valArena{fresh: sp.fresh}}
		case ir.OpArith:
			src = &arithStage{src: src, inSch: sp.inSch, sch: sp.sch, op: sp.op, dstIdx: sp.dstIdx, tap: taps[i], ar: valArena{fresh: sp.fresh}}
		case ir.OpJoin:
			src = &joinProbeStage{src: src, sch: sp.sch, lIdx: sp.js.lIdx, rKeep: sp.js.rKeep, build: sp.build, tap: taps[i], ar: valArena{fresh: sp.fresh}}
		}
	}
	return src
}
