package exec

import "runtime"

// ParallelThreshold is the row count above which pipelines (runChain) and
// the sort kernel split work across goroutines. Chunking costs one goroutine
// plus one pipeline instance per chunk and (for the sort) a full copy per
// merge round, so it only pays once per-row work dominates: with
// BenchmarkSortRows/BenchmarkKernelAgg the crossover lands between ~1k rows
// (sort, join probe) and ~4k rows (aggregate, whose per-chunk tables must be
// re-merged); 2048 sits in that band while keeping small test relations on
// the cheaper single-range paths. On a single-core host chunkRanges
// collapses to one chunk, which pipelines run inline (BenchmarkSortRows/
// parallel runs within ~5% of serial at GOMAXPROCS=1). Tests lower the
// threshold to exercise the parallel code on small data.
var ParallelThreshold = 2048

// chunkRanges splits [0, n) into roughly GOMAXPROCS contiguous ranges. A
// tiny trailing remainder (under half a chunk) is folded into the previous
// range instead of spawning a near-empty goroutine.
func chunkRanges(n int) [][2]int {
	if n <= 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	size := (n + workers - 1) / workers
	ranges := make([][2]int, 0, workers)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		ranges = append(ranges, [2]int{lo, hi})
	}
	if k := len(ranges); k >= 2 && ranges[k-1][1]-ranges[k-1][0] < size/2 {
		ranges[k-2][1] = ranges[k-1][1]
		ranges = ranges[:k-1]
	}
	return ranges
}
