package exec

// ParallelThreshold is the row count above which pipelines (runChain) and
// the sort kernel split work across goroutines. Chunking costs one goroutine
// plus one pipeline instance per chunk and (for the sort) a full copy per
// merge round, so it only pays once per-row work dominates: with
// BenchmarkSortRows/BenchmarkKernelAgg the crossover lands between ~1k rows
// (sort, join probe) and ~4k rows (aggregate, whose per-chunk tables must be
// re-merged); 2048 sits in that band while keeping small test relations on
// the cheaper single-range paths. On a single-core host relation.ChunkRanges
// collapses to one chunk, which pipelines run inline (BenchmarkSortRows/
// parallel runs within ~5% of serial at GOMAXPROCS=1). Tests lower the
// threshold to exercise the parallel code on small data.
var ParallelThreshold = 2048
