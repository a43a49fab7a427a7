package relation

// Batch is one unit of rows flowing through a streaming operator pipeline.
//
// A batch is a view, not a copy: its Rows slice (and, for constructing
// stages, the value storage behind the rows) is owned by the stage that
// returned it and is only valid until the next Next call on that stage.
// Consumers that need rows to outlive the pull loop must copy them; the
// terminal materializing stage of a pipeline arranges fresh storage for
// exactly this reason.
type Batch struct {
	Rows []Row
}

// Empty reports whether the batch carries no rows. By the RowSource
// contract an empty batch means the source is exhausted.
func (b Batch) Empty() bool { return len(b.Rows) == 0 }

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

// sliceReader batches rows that are already decoded.
type sliceReader struct {
	sch       Schema
	rows      []Row
	batchRows int
}

func (s *sliceReader) Schema() Schema { return s.sch }

func (s *sliceReader) Next() (Batch, error) {
	n := min(s.batchRows, len(s.rows))
	b := Batch{Rows: s.rows[:n]}
	s.rows = s.rows[n:]
	return b, nil
}

// Reader returns a source over r.Rows[lo:hi] in batches of at most batchRows
// rows: views of the relation's own rows, which outlive the pull loop.
func (r *Relation) Reader(lo, hi, batchRows int) RowSource {
	return &sliceReader{sch: r.Schema, rows: r.Rows[lo:hi], batchRows: batchRows}
}
