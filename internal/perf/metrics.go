package perf

// MetricDef names one reported number. BENCHMARK.json carries the same
// names, units, directions and bounds; TestBenchmarkJSONMatchesTables pins
// the two together.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which carry no bound).
	Bound float64
	// Moves names the end-to-end metric(s) a per-layer metric should move,
	// and on which workload.
	Moves string
}

// EndToEnd are the numbers a user of the system sees. Every workload
// reports every one of them, measured with tracing off.
var EndToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "lat_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "workflows_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.12},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "sim_makespan_s", Unit: "s", Better: "lower", Bound: 0.08},
}

const (
	movesPlan     = "lat_ms on plan_cold; lat_ms on serve_open"
	movesSearch   = "lat_ms on plan_cold; the never-seen class of lat_ms on serve_open; nothing on the batch workloads"
	movesCache    = "lat_ms on serve_open: the hot class (hits) and the never-seen class (misses, invalidations)"
	movesRun      = "lat_ms on serve_open; lat_ms on batch_per_op_jobs"
	movesProcess  = "lat_ms on batch_merged"
	movesPullPush = "lat_ms on batch_per_op_jobs"
	movesExec     = "lat_ms, alloc_mb_per_op, live_heap_mb on batch_merged"
	movesCodec    = "lat_ms on batch_per_op_jobs; setup_s"
	movesDFS      = "lat_ms on batch_per_op_jobs; live_heap_mb on serve_open"
	movesSched    = "lat_ms on serve_open; lat_ms on batch_per_op_jobs"
	movesServe    = "lat_ms and failed operations on serve_open"
	movesNone     = "none with tracing off: it is the cost of observing"
	movesRuntime  = "alloc_mb_per_op, live_heap_mb on every workload"
	movesWindow   = "none: lat_ms with the machine's and the collector's interference left in, unscaled"
	movesMachine  = "none: the speedometer's reading; lat_ms, workflows_per_s and setup_s are scaled by nominal / reading"
)

// PerLayer are single-layer numbers from the traced pass. A metric that
// does not apply to a workload (serve.* on a batch workload) reads 0 there.
var PerLayer = []MetricDef{
	{Name: "frontends.parse_us", Unit: "us", Better: "lower", Moves: movesPlan},
	{Name: "analysis.check_us", Unit: "us", Better: "lower", Moves: movesPlan},
	{Name: "ir.validate_us", Unit: "us", Better: "lower", Moves: movesPlan},
	{Name: "ir.canonical_hash_us", Unit: "us", Better: "lower", Moves: movesPlan},
	{Name: "ir.dag_hash_us", Unit: "us", Better: "lower", Moves: movesPlan},
	{Name: "ir.ops_after_optimize", Unit: "count", Better: "lower", Moves: movesPlan},
	{Name: "core.optimize_us", Unit: "us", Better: "lower", Moves: movesSearch},
	{Name: "core.optimize_rewrites", Unit: "count", Better: "higher", Moves: movesSearch},
	{Name: "core.plan_search_us", Unit: "us", Better: "lower", Moves: movesSearch},
	{Name: "core.plan_candidates_explored", Unit: "count", Better: "lower", Moves: movesSearch},
	{Name: "core.plan_memo_hit_ratio", Unit: "ratio", Better: "higher", Moves: movesSearch},
	{Name: "core.plancache_lookup_us", Unit: "us", Better: "lower", Moves: movesCache},
	{Name: "core.plancache_store_us", Unit: "us", Better: "lower", Moves: movesCache},
	{Name: "core.plancache_hit_ratio", Unit: "ratio", Better: "higher", Moves: movesCache},
	{Name: "core.plancache_evictions", Unit: "count", Better: "lower", Moves: movesCache},
	{Name: "core.calibration_version_bumps", Unit: "count", Better: "lower", Moves: movesCache},
	{Name: "core.run_overhead_ms", Unit: "ms", Better: "lower", Moves: movesRun},
	{Name: "core.while_iterations", Unit: "count", Better: "lower", Moves: movesRun},
	{Name: "core.while_iteration_overhead_ms", Unit: "ms", Better: "lower", Moves: movesRun},
	{Name: "engines.codegen_us", Unit: "us", Better: "lower", Moves: movesRun},
	{Name: "engines.jobs_per_workflow", Unit: "count", Better: "lower", Moves: movesRun},
	{Name: "engines.pull_ms", Unit: "ms", Better: "lower", Moves: movesPullPush},
	{Name: "engines.process_ms", Unit: "ms", Better: "lower", Moves: movesProcess},
	{Name: "engines.push_ms", Unit: "ms", Better: "lower", Moves: movesPullPush},
	{Name: "engines.phase_share_of_lat_p50", Unit: "ratio", Better: "higher", Moves: movesRun},
	{Name: "exec.fused_rows_per_s", Unit: "1/s", Better: "higher", Moves: movesExec},
	{Name: "exec.unfused_rows_per_s", Unit: "1/s", Better: "higher", Moves: movesExec},
	{Name: "exec.alloc_mb_per_run", Unit: "MB", Better: "lower", Moves: movesExec},
	{Name: "relation.tsv_encode_mb_per_s", Unit: "MB/s", Better: "higher", Moves: movesCodec},
	{Name: "relation.tsv_decode_mb_per_s", Unit: "MB/s", Better: "higher", Moves: movesCodec},
	{Name: "relation.columnar_encode_mb_per_s", Unit: "MB/s", Better: "higher", Moves: movesCodec},
	{Name: "relation.columnar_decode_mb_per_s", Unit: "MB/s", Better: "higher", Moves: movesCodec},
	{Name: "relation.columnar_vs_tsv_bytes", Unit: "ratio", Better: "lower", Moves: movesCodec},
	{Name: "relation.sort_rows_per_s", Unit: "1/s", Better: "higher", Moves: movesCodec},
	{Name: "dfs.write_mb_per_s", Unit: "MB/s", Better: "higher", Moves: movesDFS},
	{Name: "dfs.read_mb_per_s", Unit: "MB/s", Better: "higher", Moves: movesDFS},
	{Name: "dfs.copy_us", Unit: "us", Better: "lower", Moves: movesDFS},
	{Name: "dfs.pull_bytes_per_op", Unit: "B", Better: "lower", Moves: movesDFS},
	{Name: "dfs.push_bytes_per_op", Unit: "B", Better: "lower", Moves: movesDFS},
	{Name: "dfs.resident_mb_end", Unit: "MB", Better: "lower", Moves: movesDFS},
	{Name: "sched.queue_wait_ms_p50", Unit: "ms", Better: "lower", Moves: movesSched},
	{Name: "sched.queue_wait_ms_p95", Unit: "ms", Better: "lower", Moves: movesSched},
	{Name: "sched.jobs_dispatched", Unit: "count", Better: "lower", Moves: movesSched},
	{Name: "sched.fairqueue_wait_ms_p50", Unit: "ms", Better: "lower", Moves: movesSched},
	{Name: "sched.fairqueue_wait_ms_p95", Unit: "ms", Better: "lower", Moves: movesSched},
	{Name: "serve.submit_call_ms_p50", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "serve.submit_call_ms_p95", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "serve.run_ms_p50", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "serve.status_get_ms_p50", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "serve.hit_lat_p50_ms", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "serve.miss_lat_p50_ms", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "serve.lat_p95_ms", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "serve.lat_p99_ms", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "serve.sender_late_ms_p50", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "serve.sender_late_ms_p99", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "serve.max_outstanding", Unit: "count", Better: "lower", Moves: movesServe},
	{Name: "serve.backlog_end", Unit: "count", Better: "lower", Moves: movesServe},
	{Name: "serve.rejected_429", Unit: "count", Better: "lower", Moves: movesServe},
	{Name: "serve.max_rate_ok_rps", Unit: "1/s", Better: "higher", Moves: movesServe},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower", Moves: movesNone},
	{Name: "obs.spans_per_op", Unit: "count", Better: "lower", Moves: movesNone},
	{Name: "obs.prom_scrape_ms", Unit: "ms", Better: "lower", Moves: movesNone},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: movesRuntime},
	{Name: "runtime.gc_cpu_pct", Unit: "%", Better: "lower", Moves: movesRuntime},
	{Name: "runtime.goroutines_end", Unit: "count", Better: "lower", Moves: movesRuntime},
	{Name: "window.lat_p50_ms", Unit: "ms", Better: "lower", Moves: movesWindow},
	{Name: "window.lat_p90_ms", Unit: "ms", Better: "lower", Moves: movesWindow},
	{Name: "machine.probe_ms", Unit: "ms", Better: "lower", Moves: movesMachine},
}

// Workloads lists the four workloads in the order they run.
var Workloads = []string{"batch_merged", "batch_per_op_jobs", "plan_cold", "serve_open"}
