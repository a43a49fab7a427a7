package exec

import "musketeer/internal/relation"

// This file holds the operator kernels for SELECT, PROJECT, ARITH and
// JOIN-probe — relation.RowSource stages that a pipeline composes into a
// single pull chain (see fuse.go for unit planning and the driver) — and the
// sinks a pipeline drains into: a table (AGG, or the distinct table of
// DISTINCT, INTERSECT and DIFFERENCE), a writer, or a collector of
// materialized rows. A batch is a vector per column (relation.Batch): SELECT
// compacts the vectors, PROJECT re-slices them, ARITH computes one and the
// JOIN probe gathers its output's from the probe side's and the build
// table's columns. Each stage cuts its vectors from relation.VecBufs reused
// across batches and handed back once its upstream is drained, so a
// SELECT→PROJECT→AGG or a SELECT→INTERSECT pipeline runs with no per-row
// allocation, no materialized intermediates and, warm, no scratch of its
// own. Only the materializing drain builds rows.

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
// gathered at each match's probe row, and the table's kept build columns at
// the matched build rows. The build table is read-only and may be shared
// across concurrent pipeline instances; each stage hashes through its own
// KeyHasher.
//
// The stage is resumable: it probes an upstream batch once and then emits
// that batch's matches in windows of at most batchRows rows over successive
// Next calls, so a fan-out join hands downstream stages batches no larger
// than the scan does and their vectors stop growing after the first one.
type joinProbeStage struct {
	src       relation.RowSource
	sch       relation.Schema
	lIdx      []int
	build     *joinTable
	batchRows int
	h         relation.KeyHasher
	tap       *accTap
	// per output column, then the window's probe rows, its build rows and the
	// upstream batch's keys
	set relation.VecSet

	// The upstream batch being emitted: each of its rows' key number (-1 for
	// none), the probe row and match to emit next and how many are left.
	cur     relation.Batch
	keys    []int32
	row, m  int
	pending int
}

func (j *joinProbeStage) Schema() relation.Schema { return j.sch }

func (j *joinProbeStage) Next() (relation.Batch, error) {
	arity := j.sch.Arity()
	bufs := j.set.Bufs(arity + 3)
	for j.pending == 0 {
		b, err := j.src.Next()
		if err != nil || b.Empty() {
			j.set.Release()
			j.cur, j.keys = relation.Batch{}, nil
			return relation.Batch{}, err
		}
		j.keys = bufs[arity+2].Idx(b.N)
		for i := range j.keys {
			k := j.build.probe(&j.h, &b, j.lIdx, i)
			j.keys[i] = int32(k)
			j.pending += len(j.build.matches(k))
		}
		// The upstream batch is held only while its matches are pending:
		// src.Next is not called again until the last of them is emitted.
		j.cur, j.row, j.m = b, 0, 0
	}
	n := min(j.pending, j.batchRows)
	j.pending -= n
	nl := len(j.cur.Cols)
	cols := j.set.Cols(arity)
	at, rows := bufs[arity].Idx(n), bufs[arity+1].Idx(n)
	for k := 0; k < n; {
		m := j.build.matches(int(j.keys[j.row]))
		if j.m == len(m) {
			j.row, j.m = j.row+1, 0
			continue
		}
		take := copy(rows[k:], m[j.m:])
		for end := k + take; k < end; k++ {
			at[k] = int32(j.row)
		}
		j.m += take
	}
	for c := range j.cur.Cols {
		cols[c] = j.cur.Cols[c].Gather(&bufs[c], at)
	}
	for k := range j.build.cols {
		cols[nl+k] = j.build.cols[k].Gather(&bufs[nl+k], rows)
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
