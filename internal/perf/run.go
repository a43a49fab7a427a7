// Package perf is the repository's benchmark: four seeded workloads that
// drive Musketeer only through its public functions, an independent
// reference checker, end-to-end metrics measured with tracing off and
// per-layer metrics from a separate traced pass. cmd/mkperf is its command;
// BENCHMARK.json is its contract; README.md explains every choice.
package perf

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/metrics"
	"time"

	"musketeer"
	"musketeer/internal/dfs"
	"musketeer/internal/obs"
)

// Options selects one run of one workload.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64 // length of the timed window
	// Trace selects the traced pass (per-layer metrics) instead of the
	// timed run (end-to-end metrics).
	Trace bool
	// Quick shrinks inputs so the harness's own smoke test takes seconds;
	// numbers from a quick run are not comparable with anything.
	Quick bool
	// TraceOut, when set, receives the traced pass's spans as Chrome trace
	// JSON. Nothing is written otherwise.
	TraceOut string
	// Log receives progress and mismatch details (nil discards them).
	Log io.Writer
}

// Report is the outcome of one run.
type Report struct {
	Workload  string
	Attempted int
	Failed    int
	Samples   int // latency samples behind lat_ms
	Metrics   map[string]float64
	// MemberMS is, for the closed-loop workloads, each member workflow's
	// undisturbed operation time — the values lat_ms is the geometric mean of.
	MemberMS map[string]float64
	// InputDigest and ScheduleDigest identify what the seed generated, for
	// -check-determinism.
	InputDigest, ScheduleDigest string
}

// Correct reports whether every operation succeeded and every output
// matched its reference.
func (r *Report) Correct() bool { return r.Failed == 0 }

// setupRepeats is how many times a timed run sets up; setup_s is the
// median, the last set-up is the one measured against.
const setupRepeats = 5

// loop is what the runner needs from a workload.
type loop interface {
	setup(ctx context.Context) error
	// verify checks outputs against the references, one error per mismatch;
	// checks is how many operations it attempts.
	verify(ctx context.Context) []error
	checks() int
	inputDigest() string
	// deployment is the current Musketeer and the DFS views whose contents
	// make up its resident storage.
	deployment() (*musketeer.Musketeer, []*dfs.DFS)
	close()
}

func newLoop(o Options, traced bool) (loop, error) {
	sz := FullSizes
	if o.Quick {
		sz = QuickSizes
	}
	switch o.Workload {
	case "batch_merged":
		return &closedLoop{kind: kindMerged, seed: o.Seed, sz: sz, traced: traced}, nil
	case "batch_per_op_jobs":
		return &closedLoop{kind: kindPerOp, seed: o.Seed, sz: sz, traced: traced}, nil
	case "plan_cold":
		return &closedLoop{kind: kindPlan, seed: o.Seed, sz: sz, traced: traced}, nil
	case "serve_open":
		return &serveLoop{seed: o.Seed, sz: sz, traced: traced}, nil
	}
	return nil, fmt.Errorf("perf: unknown workload %q (want one of %v)", o.Workload, Workloads)
}

// Run executes one run of one workload and returns its metrics: every
// end-to-end metric for a timed run, every per-layer metric for a traced
// pass. A non-nil error means the run could not be measured at all; wrong
// outputs and failed operations are counted in the report instead.
func Run(ctx context.Context, o Options) (*Report, error) {
	if o.Log == nil {
		o.Log = io.Discard
	}
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("perf: -seconds must be positive, got %g", o.Seconds)
	}
	if o.Trace {
		return runTraced(ctx, o)
	}
	return runTimed(ctx, o)
}

// windowResult is one window's end-to-end metrics and accounting, whichever
// kind of loop ran it.
type windowResult struct {
	attempted, failed, samples int
	errs                       []error
	metrics                    map[string]float64
	probeMS                    float64 // the speedometer's reading the times were scaled by
	closed                     *closedWindow
	serve                      *serveWindow
	schedule                   string
}

// probeBurst is how many probe samples are taken in a row before and after
// a window and before each set-up.
const probeBurst = 20

// runWindow runs one window of l with a speedometer beside it — a burst
// before, a burst after and, in the closed loops, a sample between rotations
// — and scales the window's times to the nominal machine speed. An open
// loop's throughput is not a time of the program's: it is the offered rate
// unless requests fail.
func runWindow(ctx context.Context, l loop, seed int64, d time.Duration, tr *Tracer) (*windowResult, error) {
	sp := newSpeedometer()
	sp.burst(probeBurst)
	var res *windowResult
	switch l := l.(type) {
	case *closedLoop:
		w := l.window(ctx, d, tr, sp)
		m, err := w.endToEnd(l.members)
		if err != nil {
			return nil, fmt.Errorf("%w (first failure: %v)", err, firstErr(w.errs))
		}
		ok := w.attempted - len(w.errs)
		res = &windowResult{attempted: w.attempted, failed: len(w.errs), samples: ok, errs: w.errs, metrics: m, closed: w}
	case *serveLoop:
		// The arrival schedule is drawn from its own stream, so the same seed
		// offers the same schedule whatever set-up drew before it.
		w := l.window(ctx, serveRate, d, rand.New(rand.NewSource(seed^0x5eed)))
		m, err := w.endToEnd()
		if err != nil {
			return nil, err
		}
		ms, failed := w.latencies(nil)
		res = &windowResult{attempted: len(w.requests), failed: failed, samples: len(ms), metrics: m, serve: w, schedule: w.digest}
	}
	sp.burst(probeBurst)
	res.probeMS = sp.reading()
	res.metrics["lat_ms"] *= sp.factor()
	if res.closed != nil {
		res.metrics["workflows_per_s"] /= sp.factor()
	}
	return res, nil
}

func firstErr(errs []error) error {
	if len(errs) == 0 {
		return nil
	}
	return errs[0]
}

func logErrs(w io.Writer, what string, errs []error) {
	for i, err := range errs {
		if i == 5 {
			fmt.Fprintf(w, "%s: … %d more\n", what, len(errs)-i)
			return
		}
		fmt.Fprintf(w, "%s: %v\n", what, err)
	}
}

func runTimed(ctx context.Context, o Options) (*Report, error) {
	l, err := newLoop(o, false)
	if err != nil {
		return nil, err
	}
	defer l.close()
	var setups []float64
	sp := newSpeedometer()
	for i := 0; i < setupRepeats; i++ {
		sp.burst(probeBurst)
		t0 := time.Now()
		if err := l.setup(ctx); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.Workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	sp.burst(probeBurst)
	rep := &Report{Workload: o.Workload, InputDigest: l.inputDigest()}
	fmt.Fprintf(o.Log, "%s: set-ups took %.3f s with the probe at %.4f ms\n", o.Workload, setups, sp.reading())

	before := l.verify(ctx)
	logErrs(o.Log, o.Workload+": reference check before the window", before)

	var win *windowResult
	res := measure(func() {
		win, err = runWindow(ctx, l, o.Seed, time.Duration(o.Seconds*float64(time.Second)), nil)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.Workload, err)
	}
	logErrs(o.Log, o.Workload+": operation failed", win.errs)

	after := l.verify(ctx)
	logErrs(o.Log, o.Workload+": reference check after the window", after)

	rep.Attempted = win.attempted + 2*l.checks()
	rep.Failed = win.failed + len(before) + len(after)
	rep.Samples = win.samples
	rep.ScheduleDigest = win.schedule
	rep.Metrics = win.metrics
	if win.closed != nil {
		rep.MemberMS = map[string]float64{}
		for name, xs := range win.closed.ms {
			rep.MemberMS[name] = nearestRank(xs, undisturbedPct)
		}
	}
	rep.Metrics["setup_s"] = median(setups) * sp.factor()
	fmt.Fprintf(o.Log, "%s: window ran with the probe at %.4f ms; times are scaled to a probe of %g ms\n", o.Workload, win.probeMS, probeNominalMS)
	rep.Metrics["alloc_mb_per_op"] = float64(res.allocBytes) / (1 << 20) / float64(max(win.samples, 1))
	rep.Metrics["live_heap_mb"] = res.liveHeap / (1 << 20)
	return rep, nil
}

// resources is what one measured interval cost the process.
type resources struct {
	allocBytes uint64
	// liveHeap is the mean of /gc/heap/live:bytes sampled every 50 ms. High
	// percentiles of the ~480 samples are one GC cycle's luck: the maximum
	// ranged over 80 % between runs of plan_cold, the p95 flipped between
	// 43 and 49 MB on batch_merged; the mean stayed within 3 %.
	liveHeap   float64
	gcCycles   uint64
	gcCPUPct   float64
	goroutines uint64
}

var resourceSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/goroutines:goroutines",
}

func readResources() []metrics.Sample {
	s := make([]metrics.Sample, len(resourceSamples))
	for i, n := range resourceSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// measure runs fn while a sampler goroutine polls the live heap, and
// returns what the interval allocated and how large the heap got.
func measure(fn func()) resources {
	stop, done := make(chan struct{}), make(chan struct{})
	var samples []float64
	//mkvet:ignore scheduler-only-concurrency heap sampler joined via done before return; routing it through sched would put it in the queue it is measuring
	go func() {
		defer close(done)
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(live)
			samples = append(samples, float64(live[0].Value.Uint64()))
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	a := readResources()
	fn()
	b := readResources()
	close(stop)
	<-done
	return resources{
		allocBytes: b[0].Value.Uint64() - a[0].Value.Uint64(),
		liveHeap:   mean(samples),
		gcCycles:   b[1].Value.Uint64() - a[1].Value.Uint64(),
		gcCPUPct:   100 * ratio(b[2].Value.Float64()-a[2].Value.Float64(), b[3].Value.Float64()-a[3].Value.Float64()),
		goroutines: b[4].Value.Uint64(),
	}
}

// residentMB sums the stored size of every file in the views.
func residentMB(views []*dfs.DFS) float64 {
	var total int64
	for _, fs := range views {
		for _, p := range fs.List() {
			if st, err := fs.Stat(p); err == nil { // listed a moment ago
				total += st.PhysicalBytes
			}
		}
	}
	return float64(total) / (1 << 20)
}

// scrapeMS times one GET /metrics against the deployment's debug handler.
func scrapeMS(m *musketeer.Musketeer) (float64, error) {
	ts := httptest.NewServer(m.DebugHandler())
	defer ts.Close()
	t0 := time.Now()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return time.Since(t0).Seconds() * 1e3, nil
}

// histogramDelta subtracts an earlier snapshot of a histogram from a later
// one, so quantiles cover only the window between them.
func histogramDelta(after, before obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum, Bounds: after.Bounds}
	d.Counts = append([]int64(nil), after.Counts...)
	for i := range before.Counts {
		d.Counts[i] -= before.Counts[i]
	}
	return d
}

func runTraced(ctx context.Context, o Options) (*Report, error) {
	seconds := time.Duration(o.Seconds * float64(time.Second))

	// An untraced window on a deployment built without tracing is the
	// baseline the tracing overhead is measured against, and the source of
	// the whole-window median and tail.
	plain, err := newLoop(o, false)
	if err != nil {
		return nil, err
	}
	if err := plain.setup(ctx); err != nil {
		plain.close()
		return nil, fmt.Errorf("%s: set-up: %w", o.Workload, err)
	}
	base, err := runWindow(ctx, plain, o.Seed, seconds/2, nil)
	plain.close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.Workload, err)
	}
	var p50, p90 float64
	switch plain := plain.(type) {
	case *closedLoop:
		p50, p90 = base.closed.wholeWindow(plain.members)
	case *serveLoop:
		p50, p90 = base.serve.wholeWindow()
	}

	l, _ := newLoop(o, true) // the workload name was accepted above
	defer l.close()
	if err := l.setup(ctx); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", o.Workload, err)
	}
	rep := &Report{Workload: o.Workload, InputDigest: l.inputDigest(), Metrics: map[string]float64{}}
	m, views := l.deployment()

	tr := NewTracer()
	snapBefore, calBefore := m.Metrics().Snapshot(), m.Calibration().Version()
	var win *windowResult
	res := measure(func() { win, err = runWindow(ctx, l, o.Seed, seconds/2, tr) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.Workload, err)
	}
	snapAfter, calAfter := m.Metrics().Snapshot(), m.Calibration().Version()
	logErrs(o.Log, o.Workload+": operation failed", win.errs)
	rep.ScheduleDigest = win.schedule
	rep.Samples = win.samples

	out := rep.Metrics
	out["window.lat_p50_ms"], out["window.lat_p90_ms"] = p50, p90
	out["machine.probe_ms"] = base.probeMS
	ops := float64(max(win.samples, 1))
	counter := func(name string) float64 {
		return float64(snapAfter.Counters[name] - snapBefore.Counters[name])
	}
	explored, memo := counter("partition_candidates_explored_total"), counter("partition_memo_hits_total")
	out["core.plan_candidates_explored"] = explored / ops
	out["core.plan_memo_hit_ratio"] = ratio(memo, memo+explored)
	hits, misses := counter("plan_cache_hit_total"), counter("plan_cache_miss_total")
	out["core.plancache_hit_ratio"] = ratio(hits, hits+misses)
	out["core.plancache_evictions"] = counter("plan_cache_evict_total")
	out["core.calibration_version_bumps"] = float64(calAfter - calBefore)
	out["dfs.pull_bytes_per_op"] = counter("dfs_pull_bytes_total") / ops
	out["dfs.push_bytes_per_op"] = counter("dfs_push_bytes_total") / ops
	out["sched.jobs_dispatched"] = counter("sched_jobs_completed_total") / ops
	wait := histogramDelta(snapAfter.Histograms["sched_queue_wait_ms"], snapBefore.Histograms["sched_queue_wait_ms"])
	out["sched.queue_wait_ms_p50"] = wait.Quantile(0.5)
	out["sched.queue_wait_ms_p95"] = wait.Quantile(0.95)
	out["dfs.resident_mb_end"] = residentMB(views)
	out["obs.trace_overhead_pct"] = 100 * (win.metrics["lat_ms"]/base.metrics["lat_ms"] - 1)
	out["runtime.gc_cycles"] = float64(res.gcCycles)
	out["runtime.gc_cpu_pct"] = res.gcCPUPct
	out["runtime.goroutines_end"] = float64(res.goroutines)
	if out["obs.prom_scrape_ms"], err = scrapeMS(m); err != nil {
		return nil, err
	}

	// Each sweep step lasts a fifth of the run, and at least long enough for
	// its p95 to have ten samples beyond it at the lowest rate.
	iso, sweepStep := isolator{isolateBudget, out}, max(seconds/5, 2*time.Second)
	if o.Quick {
		iso.budget, sweepStep = quickBudget, seconds/5
	}
	switch l := l.(type) {
	case *closedLoop:
		err = l.layers(tr, win.closed, iso)
	case *serveLoop:
		err = l.layers(ctx, tr, win.serve, o.Seed, sweepStep, iso)
	}
	if err != nil {
		return nil, err
	}

	after := l.verify(ctx)
	logErrs(o.Log, o.Workload+": reference check after the traced window", after)
	rep.Attempted = base.attempted + win.attempted + l.checks()
	rep.Failed = base.failed + win.failed + len(after)

	if o.TraceOut != "" {
		if err := writeTrace(o.TraceOut, tr); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func writeTrace(path string, tr *Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
