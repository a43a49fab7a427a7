package exec

import "musketeer/internal/relation"

// This file holds the operator kernels for SELECT, PROJECT, ARITH and
// JOIN-probe — relation.RowSource stages that a pipeline composes into a
// single pull chain (see fuse.go for unit planning and the driver) — and the
// sinks a pipeline drains into: a table (AGG, or the distinct table of
// DISTINCT, INTERSECT and DIFFERENCE), a writer, or materialized rows. Each
// stage consumes its upstream via the iterator interface only and builds its
// batches in a relation.Arena — SELECT only its row headers, the
// constructing stages their cells too, which they overwrite whole — reused
// across batches and handed back once its upstream is drained, so a
// SELECT→PROJECT→AGG or a SELECT→INTERSECT pipeline runs with no per-row
// allocation, no materialized intermediates and, warm, no scratch of its
// own.

// accTap accumulates the row count and physical byte size of the rows a
// streamed-through stage emits, summing the same relation.Row.EncodedLen
// that Relation.PhysicalBytes sums — so a member's trace entry is the same
// whether its output was materialized or not. The taps of one pipeline range
// share its width memo.
type accTap struct {
	rows int
	phys int64
	memo *relation.WidthMemo
}

// addRow meters a row the stage passes through by reference (SELECT): the
// row's storage belongs to someone else, so it is only read.
func (a *accTap) addRow(row relation.Row) {
	a.rows++
	a.phys += row.EncodedLen()
}

// addOwned meters a row the stage has just built in its own arena: measured
// widths are cached in the cells, so downstream stages, taps and the
// materialized output they are copied into never measure them again.
func (a *accTap) addOwned(row relation.Row) {
	a.rows++
	a.phys += row.StampEncodedLen(a.memo)
}

// selectStage filters an upstream source. Rows pass through by reference;
// the stage owns only the batch's row headers.
type selectStage struct {
	src  relation.RowSource
	sch  relation.Schema
	pred *boundPred
	tap  *accTap
	ar   relation.Arena
}

func (s *selectStage) Schema() relation.Schema { return s.sch }

func (s *selectStage) Next() (relation.Batch, error) {
	for {
		b, err := s.src.Next()
		if err != nil || b.Empty() {
			s.ar.Release()
			return relation.Batch{}, err
		}
		// out is this stage's per-Next output view, re-sliced every Next:
		// aliased rows never outlive the upstream batch.
		out := s.ar.Rows(len(b.Rows))[:0]
		for _, row := range b.Rows {
			if s.pred.eval(row) {
				if s.tap != nil {
					s.tap.addRow(row)
				}
				out = append(out, row)
			}
		}
		if len(out) > 0 {
			return relation.Batch{Rows: out}, nil
		}
	}
}

// projectStage narrows rows to a column subset, copying values into its
// arena (value structs are copied, so outputs never alias upstream storage).
type projectStage struct {
	src relation.RowSource
	sch relation.Schema
	idx []int
	tap *accTap
	ar  relation.Arena
}

func (p *projectStage) Schema() relation.Schema { return p.sch }

func (p *projectStage) Next() (relation.Batch, error) {
	b, err := p.src.Next()
	if err != nil || b.Empty() {
		p.ar.Release()
		return relation.Batch{}, err
	}
	arity := len(p.idx)
	vals := p.ar.Values(len(b.Rows) * arity)
	out := p.ar.Rows(len(b.Rows))
	for i, row := range b.Rows {
		nr := relation.Row(vals[:arity:arity])
		vals = vals[arity:]
		for k, j := range p.idx {
			nr[k] = row[j]
		}
		if p.tap != nil {
			p.tap.addOwned(nr)
		}
		out[i] = nr
	}
	return relation.Batch{Rows: out}, nil
}

// arithStage computes a derived column per row (see arithSpec).
type arithStage struct {
	src relation.RowSource
	sch relation.Schema
	*arithSpec
	tap *accTap
	ar  relation.Arena
}

func (a *arithStage) Schema() relation.Schema { return a.sch }

func (a *arithStage) Next() (relation.Batch, error) {
	b, err := a.src.Next()
	if err != nil || b.Empty() {
		a.ar.Release()
		return relation.Batch{}, err
	}
	arity := a.sch.Arity()
	vals := a.ar.Values(len(b.Rows) * arity)
	out := a.ar.Rows(len(b.Rows))
	for i, row := range b.Rows {
		nr := relation.Row(vals[:arity:arity])
		vals = vals[arity:]
		copy(nr, row)
		nr[a.dst] = a.op.Apply(a.l.value(row), a.r.value(row))
		if a.tap != nil {
			a.tap.addOwned(nr)
		}
		out[i] = nr
	}
	return relation.Batch{Rows: out}, nil
}

// joinProbeStage probes a pre-built hash-join table with the streaming
// (left) side, emitting left-row ++ kept-right-column rows. The build table
// is read-only and may be shared across concurrent pipeline instances; each
// stage hashes through its own KeyHasher.
//
// The stage is resumable: it probes an upstream batch once and then emits
// that batch's matches in windows of at most batchRows rows over successive
// Next calls, so a fan-out join hands downstream stages batches no larger
// than the scan does and their arenas stop growing after the first one.
type joinProbeStage struct {
	src       relation.RowSource
	sch       relation.Schema
	lIdx      []int
	rKeep     []int
	build     *joinTable
	batchRows int
	h         relation.KeyHasher
	tap       *accTap
	ar        relation.Arena

	// The upstream batch being emitted: its probe rows, their matches (a
	// buffer from matchLists), the position of the next match to emit and
	// how many are left.
	cur     []relation.Row
	matches *[][]relation.Row
	row, at int
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
			j.ar.Release()
			j.releaseMatches()
			return relation.Batch{}, err
		}
		// The match lists and the output headers are sized to the batch
		// they hold, not to the pipeline's batch size.
		if j.matches == nil || cap(*j.matches) < len(b.Rows) {
			j.releaseMatches()
			j.matches = matchLists.Get(len(b.Rows))
		}
		matches := *j.matches
		for i, lr := range b.Rows {
			matches[i] = j.build.probe(&j.h, lr, j.lIdx)
			j.pending += len(matches[i])
		}
		// The upstream batch is held only while its matches are pending:
		// src.Next is not called again until the last of them is emitted.
		j.cur, j.row, j.at = b.Rows, 0, 0
	}
	n := min(j.pending, j.batchRows)
	j.pending -= n
	arity := j.sch.Arity()
	vals := j.ar.Values(n * arity)
	out := j.ar.Rows(n)[:0]
	for len(out) < n {
		m := (*j.matches)[j.row]
		if j.at == len(m) {
			j.row, j.at = j.row+1, 0
			continue
		}
		lr, rr := j.cur[j.row], m[j.at]
		j.at++
		nr := relation.Row(vals[:arity:arity])
		vals = vals[arity:]
		copy(nr, lr)
		k := len(lr)
		for _, c := range j.rKeep {
			nr[k] = rr[c]
			k++
		}
		if j.tap != nil {
			j.tap.addOwned(nr)
		}
		out = append(out, nr)
	}
	return relation.Batch{Rows: out}, nil
}

// drainAgg is the table sink: it folds every upstream row into the table —
// an aggregation's groups or a distinct table, which copies the values it
// keeps unless its rows are stable — and reports how many rows it consumed.
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
		for _, row := range b.Rows {
			table.add(row)
		}
		rows += len(b.Rows)
	}
}

// drainSink is the streaming sink: every batch is rendered into part before
// the next is pulled, so no stage upstream needs fresh storage.
func drainSink(src relation.RowSource, part *relation.Part) error {
	for {
		b, err := src.Next()
		if err != nil || b.Empty() {
			return err
		}
		part.Append(b.Rows)
	}
}

// headerBufs backs drainHeaders' buffers.
var headerBufs relation.Pool[relation.Row]

// drainHeaders is the materializing sink: it collects every batch's row
// headers in a buffer from headerBufs, moving to one twice the size when it
// fills, and returns the buffer and the rows in it, which chain.run copies
// out exactly sized before it hands the buffer back (collectHeaders). The
// final constructing stage allocates fresh value storage, so the rows are
// durable.
func drainHeaders(src relation.RowSource) (*[]relation.Row, []relation.Row, error) {
	var buf *[]relation.Row
	n := 0
	for {
		b, err := src.Next()
		if err != nil || b.Empty() {
			if buf == nil {
				return nil, nil, err
			}
			return buf, (*buf)[:n], err
		}
		if buf == nil || n+len(b.Rows) > cap(*buf) {
			grown := headerBufs.Get(max(2*n, n+len(b.Rows)))
			if buf != nil {
				copy((*grown)[:n], (*buf)[:n])
				releaseHeaders(buf, (*buf)[:n])
			}
			buf = grown
		}
		n += copy((*buf)[n:cap(*buf)], b.Rows)
	}
}

// releaseHeaders clears rows, the part of buf in use, so the pool keeps no
// rows alive, and hands buf back.
func releaseHeaders(buf *[]relation.Row, rows []relation.Row) {
	clear(rows)
	headerBufs.Put(buf)
}

// collectHeaders copies the rows the ranges drained, in range order, into one
// exactly sized slice (nil for none) and hands their buffers back.
func collectHeaders(ranges []rangeResult) []relation.Row {
	total := 0
	for _, r := range ranges {
		total += len(r.rows)
	}
	var rows []relation.Row
	if total > 0 {
		rows = make([]relation.Row, 0, total)
	}
	for _, r := range ranges {
		rows = append(rows, r.rows...)
		if r.buf != nil {
			releaseHeaders(r.buf, r.rows)
		}
	}
	return rows
}
