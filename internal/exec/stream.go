package exec

import "musketeer/internal/relation"

// This file holds the operator kernels for SELECT, PROJECT, ARITH and
// JOIN-probe — relation.RowSource stages that a pipeline composes into a
// single pull chain (see fuse.go for unit planning and the driver) — and the
// sinks a pipeline drains into: a table (AGG, or the distinct table of
// DISTINCT, INTERSECT and DIFFERENCE), a writer, or a collector of
// materialized rows. A batch is a vector per column (relation.Batch): SELECT
// compacts the vectors, PROJECT re-slices them, ARITH computes one and the
// JOIN probe gathers its output's. Each stage cuts its vectors from
// relation.VecBufs reused across batches and handed back once its upstream is
// drained, so a SELECT→PROJECT→AGG or a SELECT→INTERSECT pipeline runs with
// no per-row allocation, no materialized intermediates and, warm, no scratch
// of its own. Only the materializing drain builds rows.

// accTap accumulates the row count and physical byte size of the rows a
// streamed-through stage emits: per row a separator or newline per cell, per
// column its cells' text (relation.Vec.TextBytes) — Σ relation.Row.EncodedLen
// over the same rows, as Relation.PhysicalBytes sums it — so a member's trace
// entry is the same whether its output was materialized or not. A column a
// stage passes on unchanged carries the sum an upstream tap took. The taps of
// one pipeline range share its width memo.
type accTap struct {
	rows int
	phys int64
	memo *relation.WidthMemo
}

// add meters b; a nil tap meters nothing.
func (a *accTap) add(b *relation.Batch) {
	if a == nil {
		return
	}
	a.rows += b.N
	a.phys += int64(b.N * len(b.Cols))
	for c := range b.Cols {
		a.phys += b.Cols[c].TextBytes(b.N, a.memo)
	}
}

// selectStage filters an upstream source: a batch whose rows all pass goes on
// as it came, the rest are compacted into the stage's own vectors. With
// keepSrc the source rows are compacted too, so the rows it passes on stay
// the bound relation's own (see runChain).
type selectStage struct {
	src     relation.RowSource
	sch     relation.Schema
	pred    *boundPred
	keepSrc bool
	tap     *accTap
	set     relation.VecSet // per column, then the selection's and the source rows'
}

func (s *selectStage) Schema() relation.Schema { return s.sch }

func (s *selectStage) Next() (relation.Batch, error) {
	for {
		b, err := s.src.Next()
		if err != nil || b.Empty() {
			s.set.Release()
			return relation.Batch{}, err
		}
		if !s.keepSrc {
			b.Src = nil
		}
		arity := len(b.Cols)
		bufs := s.set.Bufs(arity + 1)
		sel := s.pred.filter(&b, bufs[arity].Idx(b.N)[:0])
		if len(sel) == 0 {
			continue
		}
		if len(sel) < b.N {
			cols := s.set.Cols(arity)
			for c := range cols {
				cols[c] = b.Cols[c].Gather(&bufs[c], sel)
			}
			out := relation.Batch{N: len(sel), Cols: cols}
			if b.Src != nil {
				out.Src = bufs[arity].Rows(len(sel))
				for i, j := range sel {
					out.Src[i] = b.Src[j]
				}
			}
			b = out
		}
		s.tap.add(&b)
		return b, nil
	}
}

// projectStage narrows batches to a column subset: its vectors are the
// upstream's, re-sliced, with no cell copied.
type projectStage struct {
	src relation.RowSource
	sch relation.Schema
	idx []int
	tap *accTap
	set relation.VecSet
}

func (p *projectStage) Schema() relation.Schema { return p.sch }

func (p *projectStage) Next() (relation.Batch, error) {
	b, err := p.src.Next()
	if err != nil || b.Empty() {
		p.set.Release()
		return relation.Batch{}, err
	}
	cols := p.set.Cols(len(p.idx))
	for k, j := range p.idx {
		cols[k] = b.Cols[j]
	}
	out := relation.Batch{N: b.N, Cols: cols}
	p.tap.add(&out)
	return out, nil
}

// arithStage computes a derived column per batch (see arithSpec.compute);
// every other column is the upstream's vector.
type arithStage struct {
	src relation.RowSource
	sch relation.Schema
	*arithSpec
	tap *accTap
	set relation.VecSet // the result's buffer, and the two operands' as floats
}

func (a *arithStage) Schema() relation.Schema { return a.sch }

func (a *arithStage) Next() (relation.Batch, error) {
	b, err := a.src.Next()
	if err != nil || b.Empty() {
		a.set.Release()
		return relation.Batch{}, err
	}
	cols := a.set.Cols(a.sch.Arity())
	copy(cols, b.Cols)
	cols[a.dst] = a.compute(&b, a.set.Bufs(3))
	out := relation.Batch{N: b.N, Cols: cols}
	a.tap.add(&out)
	return out, nil
}

// joinProbeStage probes a pre-built hash-join table with the streaming
// (left) side, emitting left-row ++ kept-right-column rows: the left vectors
// gathered at each match's probe row, and the kept cells of the matched build
// rows, which stay rows, transposed. The build table is read-only and may be
// shared across concurrent pipeline instances; each stage hashes through its
// own KeyHasher.
//
// The stage is resumable: it probes an upstream batch once and then emits
// that batch's matches in windows of at most batchRows rows over successive
// Next calls, so a fan-out join hands downstream stages batches no larger
// than the scan does and their vectors stop growing after the first one.
type joinProbeStage struct {
	src       relation.RowSource
	sch       relation.Schema
	lIdx      []int
	rKeep     []int
	build     *joinTable
	batchRows int
	h         relation.KeyHasher
	tap       *accTap
	set       relation.VecSet // per output column, then the window's probe rows and build rows

	// The upstream batch being emitted: its matches (a buffer from
	// matchLists), the probe row and match to emit next and how many are
	// left.
	cur     relation.Batch
	matches *[][]relation.Row
	row, m  int
	pending int
}

// matchLists backs every probe stage's per-batch match lists.
var matchLists relation.Pool[[]relation.Row]

func (j *joinProbeStage) Schema() relation.Schema { return j.sch }

// releaseMatches clears the match lists, so the pool keeps no build rows
// alive, and hands them back.
func (j *joinProbeStage) releaseMatches() {
	if j.matches != nil {
		clear(*j.matches)
		matchLists.Put(j.matches)
		j.matches = nil
	}
}

func (j *joinProbeStage) Next() (relation.Batch, error) {
	for j.pending == 0 {
		b, err := j.src.Next()
		if err != nil || b.Empty() {
			j.set.Release()
			j.releaseMatches()
			j.cur = relation.Batch{}
			return relation.Batch{}, err
		}
		// The match lists are sized to the batch they hold, not to the
		// pipeline's batch size.
		if j.matches == nil || cap(*j.matches) < b.N {
			j.releaseMatches()
			j.matches = matchLists.Get(b.N)
		}
		matches := *j.matches
		for i := 0; i < b.N; i++ {
			matches[i] = j.build.probe(&j.h, &b, j.lIdx, i)
			j.pending += len(matches[i])
		}
		// The upstream batch is held only while its matches are pending:
		// src.Next is not called again until the last of them is emitted.
		j.cur, j.row, j.m = b, 0, 0
	}
	n := min(j.pending, j.batchRows)
	j.pending -= n
	nl, arity := len(j.cur.Cols), j.sch.Arity()
	cols, bufs := j.set.Cols(arity), j.set.Bufs(arity+1)
	rows, at := bufs[arity].Rows(n), bufs[arity].Idx(n)
	for k := 0; k < n; {
		m := (*j.matches)[j.row]
		if j.m == len(m) {
			j.row, j.m = j.row+1, 0
			continue
		}
		take := min(len(m)-j.m, n-k)
		for _, rr := range m[j.m : j.m+take] {
			rows[k], at[k] = rr, int32(j.row)
			k++
		}
		j.m += take
	}
	for c := range j.cur.Cols {
		cols[c] = j.cur.Cols[c].Gather(&bufs[c], at)
	}
	for k, c := range j.rKeep {
		cols[nl+k] = bufs[nl+k].Transpose(rows, c)
	}
	out := relation.Batch{N: n, Cols: cols}
	j.tap.add(&out)
	return out, nil
}

// drainAgg is the table sink: it folds every upstream batch into the table —
// an aggregation's groups or a distinct table, which copies the cells it
// keeps unless the batches carry their source rows — and reports how many
// rows it consumed.
func drainAgg(src relation.RowSource, table *aggTable) (int, error) {
	rows := 0
	for {
		b, err := src.Next()
		if err != nil {
			return rows, err
		}
		if b.Empty() {
			return rows, nil
		}
		table.addBatch(&b)
		rows += b.N
	}
}

// drainSink is the streaming sink: every batch is rendered into part before
// the next is pulled.
func drainSink(src relation.RowSource, part *relation.Part) error {
	for {
		b, err := src.Next()
		if err != nil || b.Empty() {
			return err
		}
		part.AppendBatch(&b)
	}
}

// drainRows is the materializing sink: every batch is copied into the
// collector, which chain.run turns into the output's rows, exactly sized.
func drainRows(src relation.RowSource, out *relation.Collector) error {
	for {
		b, err := src.Next()
		if err != nil || b.Empty() {
			return err
		}
		out.Append(&b)
	}
}
