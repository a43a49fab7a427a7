package exec

// ParallelThreshold is the row count from which a pipeline (chain.run)
// splits its input into two halves that run concurrently. A second range
// costs a goroutine, a pipeline instance and, for an aggregate, a partial
// table to re-merge, so it only pays once per-row work dominates:
// BenchmarkKernelAgg put the crossover between ~1k and ~4k rows, and 2048
// sits in that band while keeping small relations on one range. The split is
// a function of the row count alone, never of the host, so every host
// computes the same relation. Tests lower the threshold to exercise the
// split on small data.
var ParallelThreshold = 2048
