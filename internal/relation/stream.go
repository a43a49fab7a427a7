package relation

// RowSource is the pull interface of the streaming executor: a stage yields
// its output one batch at a time instead of materializing a full relation.
// Operator kernels compose by wrapping an upstream RowSource, which is what
// lets a fused SELECT→PROJECT→ARITH chain run as a single pipeline with no
// intermediate relations.
//
// Next returns an empty batch once the source is exhausted (and on every
// call thereafter). A non-empty error aborts the pipeline; partial batches
// accompanying an error are ignored.
type RowSource interface {
	// Schema describes the rows every batch carries.
	Schema() Schema
	// Next yields the next batch. The returned batch is only valid until
	// the following Next call.
	Next() (Batch, error)
}

// DefaultBatchRows is the row capacity pipelines pull per batch unless the
// caller overrides it (tests force tiny batches to exercise refill paths).
const DefaultBatchRows = 1024

// sliceReader batches rows that are already decoded, transposing each batch
// into vectors it recycles.
type sliceReader struct {
	sch       Schema
	rows      []Row
	batchRows int
	src       bool
	set       VecSet
}

func (s *sliceReader) Schema() Schema { return s.sch }

func (s *sliceReader) Next() (Batch, error) {
	n := min(s.batchRows, len(s.rows))
	if n == 0 {
		s.set.Release()
		return Batch{}, nil
	}
	rows := s.rows[:n]
	s.rows = s.rows[n:]
	arity := s.sch.Arity()
	cols, bufs := s.set.Cols(arity), s.set.Bufs(arity)
	for c := range cols {
		cols[c] = bufs[c].Transpose(rows, c)
	}
	b := Batch{N: n, Cols: cols}
	if s.src {
		b.Src = rows
	}
	return b, nil
}

// Reader returns a source over r.Rows[lo:hi] in batches of at most batchRows
// rows, transposed into vectors; with src, every batch carries the rows it
// was cut from (Batch.Src), which outlive the pull loop.
func (r *Relation) Reader(lo, hi, batchRows int, src bool) RowSource {
	return &sliceReader{sch: r.Schema, rows: r.Rows[lo:hi], batchRows: batchRows, src: src}
}
