package exec

import (
	"math/bits"
	"sync"

	"musketeer/internal/relation"
)

// This file holds the operator kernels for SELECT, PROJECT, ARITH, JOIN-probe
// and AGG: relation.RowSource stages that a pipeline composes into a single
// pull chain (see fuse.go for unit planning and the driver). Each stage
// consumes its upstream via the iterator interface only and reuses its
// output buffers across batches, so a SELECT→PROJECT→AGG pipeline runs with
// no per-row allocation and no materialized intermediates.

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

// valArena hands out value storage for constructing stages. A reusable
// arena recycles one slab across batches, taken from slabPools and put back
// when its pipeline instance is drained (release); a fresh arena allocates
// per batch, which the last constructing stage before a materializing
// terminal needs because its rows escape the pipeline. A pooled slab holds
// whatever its last user wrote: only stages that overwrite whole Values
// (PROJECT, ARITH, JOIN-probe) may take one, never a reader that parses into
// zeroed cells.
type valArena struct {
	fresh bool
	slab  *[]relation.Value
}

// slabPools[k] holds released slabs of capacity 1<<k, so a stage never takes
// a slab more than twice the size it asked for.
var slabPools [bits.UintSize]sync.Pool

func (a *valArena) take(n int) []relation.Value {
	if a.fresh {
		return make([]relation.Value, n)
	}
	if a.slab == nil || cap(*a.slab) < n {
		a.release()
		k := bits.Len(uint(max(n, 1) - 1))
		if a.slab, _ = slabPools[k].Get().(*[]relation.Value); a.slab == nil {
			s := make([]relation.Value, 1<<k)
			a.slab = &s
		}
	}
	return (*a.slab)[:n]
}

// release puts the arena's slab back in its pool: no row carved from it may
// be read again.
func (a *valArena) release() {
	if a.slab != nil {
		slabPools[bits.Len(uint(cap(*a.slab)))-1].Put(a.slab)
		a.slab = nil
	}
}

// selectStage filters an upstream source. Rows pass through by reference;
// the stage owns only the batch header slice.
type selectStage struct {
	src  relation.RowSource
	sch  relation.Schema
	pred *boundPred
	tap  *accTap
	out  []relation.Row
}

func (s *selectStage) Schema() relation.Schema { return s.sch }

func (s *selectStage) Next() (relation.Batch, error) {
	for {
		b, err := s.src.Next()
		if err != nil || b.Empty() {
			return relation.Batch{}, err
		}
		if s.out = s.out[:0]; cap(s.out) < len(b.Rows) {
			s.out = make([]relation.Row, 0, len(b.Rows))
		}
		for _, row := range b.Rows {
			if s.pred.eval(row) {
				if s.tap != nil {
					s.tap.addRow(row)
				}
				// s.out is this stage's per-Next output view, re-sliced at
				// the top of every Next: aliased rows never outlive the
				// upstream batch.
				s.out = append(s.out, row)
			}
		}
		if len(s.out) > 0 {
			return relation.Batch{Rows: s.out}, nil
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
	ar  valArena
	out []relation.Row
}

func (p *projectStage) Schema() relation.Schema { return p.sch }

func (p *projectStage) Next() (relation.Batch, error) {
	b, err := p.src.Next()
	if err != nil || b.Empty() {
		return relation.Batch{}, err
	}
	arity := len(p.idx)
	vals := p.ar.take(len(b.Rows) * arity)
	if p.out = p.out[:0]; cap(p.out) < len(b.Rows) {
		p.out = make([]relation.Row, 0, len(b.Rows))
	}
	for _, row := range b.Rows {
		nr := relation.Row(vals[:arity:arity])
		vals = vals[arity:]
		for k, j := range p.idx {
			nr[k] = row[j]
		}
		if p.tap != nil {
			p.tap.addOwned(nr)
		}
		p.out = append(p.out, nr)
	}
	return relation.Batch{Rows: p.out}, nil
}

// arithStage computes a derived column per row (see arithSpec).
type arithStage struct {
	src relation.RowSource
	sch relation.Schema
	*arithSpec
	tap *accTap
	ar  valArena
	out []relation.Row
}

func (a *arithStage) Schema() relation.Schema { return a.sch }

func (a *arithStage) Next() (relation.Batch, error) {
	b, err := a.src.Next()
	if err != nil || b.Empty() {
		return relation.Batch{}, err
	}
	arity := a.sch.Arity()
	vals := a.ar.take(len(b.Rows) * arity)
	if a.out = a.out[:0]; cap(a.out) < len(b.Rows) {
		a.out = make([]relation.Row, 0, len(b.Rows))
	}
	for _, row := range b.Rows {
		nr := relation.Row(vals[:arity:arity])
		vals = vals[arity:]
		copy(nr, row)
		nr[a.dst] = a.op.Apply(a.l.value(row), a.r.value(row))
		if a.tap != nil {
			a.tap.addOwned(nr)
		}
		a.out = append(a.out, nr)
	}
	return relation.Batch{Rows: a.out}, nil
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
	ar        valArena
	out       []relation.Row

	// The upstream batch being emitted: its probe rows, their matches, the
	// position of the next match to emit and how many are left.
	cur     []relation.Row
	matches [][]relation.Row
	row, at int
	pending int
}

func (j *joinProbeStage) Schema() relation.Schema { return j.sch }

func (j *joinProbeStage) Next() (relation.Batch, error) {
	for j.pending == 0 {
		b, err := j.src.Next()
		if err != nil || b.Empty() {
			return relation.Batch{}, err
		}
		// matches and out are each sized to the batch they hold, not
		// grown by doubling from empty.
		if cap(j.matches) < len(b.Rows) {
			j.matches = make([][]relation.Row, 0, len(b.Rows))
		}
		j.matches = j.matches[:0]
		for _, lr := range b.Rows {
			m := j.build.probe(&j.h, lr, j.lIdx)
			j.matches = append(j.matches, m)
			j.pending += len(m)
		}
		// The upstream batch is held only while its matches are pending:
		// src.Next is not called again until the last of them is emitted.
		j.cur, j.row, j.at = b.Rows, 0, 0
	}
	n := min(j.pending, j.batchRows)
	j.pending -= n
	arity := j.sch.Arity()
	vals := j.ar.take(n * arity)
	if cap(j.out) < n {
		j.out = make([]relation.Row, 0, n)
	}
	j.out = j.out[:0]
	for len(j.out) < n {
		m := j.matches[j.row]
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
		j.out = append(j.out, nr)
	}
	return relation.Batch{Rows: j.out}, nil
}

// drainAgg is the aggregation sink: it folds every upstream row into the
// table (which copies the values it keeps) and reports how many rows it
// consumed.
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

// drainRows is the materializing sink: it appends every batch's row headers
// to dst (the final constructing stage allocates fresh value storage, so
// the appended rows are durable).
func drainRows(src relation.RowSource, dst []relation.Row) ([]relation.Row, error) {
	for {
		b, err := src.Next()
		if err != nil {
			return nil, err
		}
		if b.Empty() {
			return dst, nil
		}
		dst = append(dst, b.Rows...)
	}
}
