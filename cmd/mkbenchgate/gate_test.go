package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"musketeer/internal/bench"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: musketeer/internal/exec
BenchmarkKernelSelect-4     	     762	   1523563 ns/op	  433185 B/op	      29 allocs/op
BenchmarkKernelProject      	     744	   1604365 ns/op	  816512 B/op	       7 allocs/op
BenchmarkKernelHashJoin-16  	      26	  45058391 ns/op	31676430 B/op	   21852 allocs/op
BenchmarkRowKey/hashed-4    	   50316	     23743 ns/op	       0 B/op	       0 allocs/op
PASS
`

func TestParseGoBenchStripsGOMAXPROCS(t *testing.T) {
	m, err := ParseGoBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Measurement{
		"BenchmarkKernelSelect":   {NsOp: 1523563, AllocsOp: 29, HasAllocs: true, BytesOp: 433185, HasBytes: true},
		"BenchmarkKernelProject":  {NsOp: 1604365, AllocsOp: 7, HasAllocs: true, BytesOp: 816512, HasBytes: true},
		"BenchmarkKernelHashJoin": {NsOp: 45058391, AllocsOp: 21852, HasAllocs: true, BytesOp: 31676430, HasBytes: true},
		"BenchmarkRowKey/hashed":  {NsOp: 23743, AllocsOp: 0, HasAllocs: true, BytesOp: 0, HasBytes: true},
	}
	if len(m) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(m), len(want), m)
	}
	for name, w := range want {
		if m[name] != w {
			t.Errorf("%s = %+v, want %+v", name, m[name], w)
		}
	}
}

func TestParseGoBenchKeepsBestOfRepeatedRuns(t *testing.T) {
	m, err := ParseGoBench(strings.NewReader(`
BenchmarkX-4   100   2000 ns/op   64 B/op   9 allocs/op
BenchmarkX-4   100   1500 ns/op   64 B/op   8 allocs/op
BenchmarkX-4   100   1800 ns/op   64 B/op   9 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := m["BenchmarkX"]; got != (Measurement{NsOp: 1500, AllocsOp: 8, HasAllocs: true, BytesOp: 64, HasBytes: true}) {
		t.Errorf("BenchmarkX = %+v, want best of 3 runs", got)
	}
}

func TestLoadKernelBaselineFromCommittedArtifact(t *testing.T) {
	base, err := LoadKernelBaseline(filepath.Join("..", "..", "BENCH_kernels.json"))
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := base["BenchmarkKernelSelect"]
	if !ok {
		t.Fatalf("BenchmarkKernelSelect missing from baseline: %v", base)
	}
	if sel.NsOp <= 0 || !sel.HasAllocs {
		t.Errorf("implausible baseline %+v", sel)
	}
	// Groups other than "kernels" (row_key, sort, codec, partitioning) must
	// be picked up too, and non-benchmark entries skipped.
	if _, ok := base["BenchmarkSortRows/parallel"]; !ok {
		t.Error("nested group entry BenchmarkSortRows/parallel not loaded")
	}
	for name := range base {
		if !strings.HasPrefix(name, "Benchmark") {
			t.Errorf("non-benchmark baseline entry %q", name)
		}
	}
}

// TestGateFailsOnSlowedBenchmark: a fresh run with one benchmark 2x slower
// than its committed baseline must be reported as a regression by name; the
// untouched benchmarks must not be.
func TestGateFailsOnSlowedBenchmark(t *testing.T) {
	baseline, err := LoadKernelBaseline(filepath.Join("..", "..", "BENCH_kernels.json"))
	if err != nil {
		t.Fatal(err)
	}
	fresh := map[string]Measurement{}
	for name, m := range baseline {
		fresh[name] = m
	}
	slowed := baseline["BenchmarkKernelAgg"]
	slowed.NsOp *= 2
	fresh["BenchmarkKernelAgg"] = slowed

	regs, checked, missing := CompareKernels(fresh, baseline, 0.25)
	if checked != len(baseline) || missing != 0 {
		t.Fatalf("checked %d missing %d, want %d/0", checked, missing, len(baseline))
	}
	if len(regs) != 1 {
		t.Fatalf("regressions = %v, want exactly the slowed benchmark", regs)
	}
	if regs[0].Name != "BenchmarkKernelAgg" || regs[0].Metric != "ns/op" {
		t.Errorf("regression = %+v, want BenchmarkKernelAgg ns/op", regs[0])
	}
	if regs[0].Allowed != slowed.NsOp/2*1.25 {
		t.Errorf("allowed = %v, want baseline x 1.25", regs[0].Allowed)
	}
}

func TestGateAllocRegressionAndZeroAllocGuard(t *testing.T) {
	baseline := map[string]Measurement{
		"BenchmarkZero": {NsOp: 100, AllocsOp: 0, HasAllocs: true},
		"BenchmarkFew":  {NsOp: 100, AllocsOp: 8, HasAllocs: true},
	}
	fresh := map[string]Measurement{
		"BenchmarkZero": {NsOp: 100, AllocsOp: 1, HasAllocs: true},  // zero-alloc path now allocates
		"BenchmarkFew":  {NsOp: 100, AllocsOp: 10, HasAllocs: true}, // within 25%+0.5
	}
	regs, _, _ := CompareKernels(fresh, baseline, 0.25)
	if len(regs) != 1 || regs[0].Name != "BenchmarkZero" || regs[0].Metric != "allocs/op" {
		t.Fatalf("regs = %v, want only BenchmarkZero allocs/op", regs)
	}
}

// B/op gating: a baseline that records bytes fails when fresh heap bytes
// grow past the allowance, and the 64-byte slack absorbs size-class noise.
// Baselines without bytes never gate on them.
func TestGateBytesRegression(t *testing.T) {
	baseline := map[string]Measurement{
		"BenchmarkStreamFused": {NsOp: 100, AllocsOp: 4, HasAllocs: true, BytesOp: 1024, HasBytes: true},
		"BenchmarkNoise":       {NsOp: 100, AllocsOp: 4, HasAllocs: true, BytesOp: 1024, HasBytes: true},
		"BenchmarkNoBytes":     {NsOp: 100, AllocsOp: 4, HasAllocs: true},
	}
	fresh := map[string]Measurement{
		"BenchmarkStreamFused": {NsOp: 100, AllocsOp: 4, HasAllocs: true, BytesOp: 4096, HasBytes: true},
		"BenchmarkNoise":       {NsOp: 100, AllocsOp: 4, HasAllocs: true, BytesOp: 1300, HasBytes: true},
		"BenchmarkNoBytes":     {NsOp: 100, AllocsOp: 4, HasAllocs: true, BytesOp: 1 << 30, HasBytes: true},
	}
	regs, _, _ := CompareKernels(fresh, baseline, 0.25)
	if len(regs) != 1 || regs[0].Name != "BenchmarkStreamFused" || regs[0].Metric != "B/op" {
		t.Fatalf("regs = %v, want only BenchmarkStreamFused B/op", regs)
	}
}

func TestGateToleratesNoiseWithinThreshold(t *testing.T) {
	baseline := map[string]Measurement{"BenchmarkX": {NsOp: 1000, AllocsOp: 100, HasAllocs: true}}
	fresh := map[string]Measurement{"BenchmarkX": {NsOp: 1240, AllocsOp: 120, HasAllocs: true}}
	if regs, _, _ := CompareKernels(fresh, baseline, 0.25); len(regs) != 0 {
		t.Errorf("within-threshold drift flagged: %v", regs)
	}
}

func TestCompareConcurrencySpeedup(t *testing.T) {
	base := &bench.ConcurrencyReport{Speedup: 1.14}
	if regs := CompareConcurrency(&bench.ConcurrencyReport{Speedup: 1.02}, base, 0.25); len(regs) != 0 {
		t.Errorf("within-threshold speedup flagged: %v", regs)
	}
	regs := CompareConcurrency(&bench.ConcurrencyReport{Speedup: 0.70}, base, 0.25)
	if len(regs) != 1 || regs[0].Metric != "speedup" {
		t.Errorf("collapsed speedup not flagged: %v", regs)
	}
}

func TestLoadConcurrencyReportFromCommittedArtifact(t *testing.T) {
	rep, err := loadConcurrencyReport(filepath.Join("..", "..", "BENCH_concurrency.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Speedup <= 0 {
		t.Errorf("speedup = %v, want > 0", rep.Speedup)
	}
}

func TestLoadKernelBaselineRejectsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(path, []byte(`{"description": "x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadKernelBaseline(path); err == nil {
		t.Error("baseline with no benchmarks accepted")
	}
}

func TestCompareServiceGates(t *testing.T) {
	base := &bench.ServiceReport{
		Speedup: 3.0,
		HitRate: 0.90,
		Hit:     bench.ServiceLatency{P99MS: 3},
		Storm:   bench.ServiceLatency{P99MS: 600},
	}
	// Within-threshold drift (speedup -20%, hit rate -10%, p99s inside the
	// relative-plus-absolute allowances) must pass clean.
	ok := &bench.ServiceReport{
		Speedup: 2.4,
		HitRate: 0.81,
		Hit:     bench.ServiceLatency{P99MS: 40},
		Storm:   bench.ServiceLatency{P99MS: 900},
	}
	if regs := CompareService(ok, base, 0.25); len(regs) != 0 {
		t.Errorf("within-threshold service drift flagged: %v", regs)
	}
	// Each metric regressing past its allowance must be flagged by name.
	bad := &bench.ServiceReport{
		Speedup: 1.1,                               // < 3.0*0.75
		HitRate: 0.30,                              // < 0.90*0.75-0.02
		Hit:     bench.ServiceLatency{P99MS: 60},   // > 3*1.25+50
		Storm:   bench.ServiceLatency{P99MS: 1200}, // > 600*1.25+250
	}
	regs := CompareService(bad, base, 0.25)
	if len(regs) != 4 {
		t.Fatalf("regressions = %v, want all four service metrics flagged", regs)
	}
	metrics := map[string]bool{}
	for _, r := range regs {
		if r.Name != "service" {
			t.Errorf("regression name %q, want service", r.Name)
		}
		metrics[r.Metric] = true
	}
	for _, m := range []string{"plan-cache speedup", "hit rate", "hit p99 ms", "storm p99 ms"} {
		if !metrics[m] {
			t.Errorf("metric %q not flagged: %v", m, regs)
		}
	}
}

// TestServiceArtifactMeetsThresholds pins the committed service report to
// the PR's acceptance bar: replaying a cached plan must at least halve the
// unloaded submit-to-result p50 (speedup >= 2x), and the storm's plan-cache
// hit rate must stay high — one cold search per variant plus stragglers,
// not a cache that silently stopped hitting.
func TestServiceArtifactMeetsThresholds(t *testing.T) {
	rep, err := loadServiceReport(filepath.Join("..", "..", "BENCH_service.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Speedup < 2 {
		t.Errorf("plan-cache speedup %.2fx, want >= 2x", rep.Speedup)
	}
	if rep.HitRate < 0.75 {
		t.Errorf("storm hit rate %.2f, want >= 0.75", rep.HitRate)
	}
	if rep.Cold.P50MS <= rep.Hit.P50MS {
		t.Errorf("cold p50 %.2fms not above hit p50 %.2fms", rep.Cold.P50MS, rep.Hit.P50MS)
	}
	if rep.Sessions < 100 || rep.Tenants < 2 {
		t.Errorf("storm ran %d sessions across %d tenants, want a real multi-tenant load", rep.Sessions, rep.Tenants)
	}
	if rep.StormThroughputWFPS <= 0 || rep.Storm.Samples != rep.Sessions {
		t.Errorf("storm completed %d/%d sessions at %.1f wf/s", rep.Storm.Samples, rep.Sessions, rep.StormThroughputWFPS)
	}
}

// TestStreamingArtifactMeetsThresholds pins the committed streaming report
// to the PR's acceptance bar: the fused chain must be >=1.5x faster than
// operator-at-a-time, WHILE-body fusion must cut peak heap by >=30% on the
// fig3 workload, and the columnar shuffle encoding must be <=60% of TSV.
func TestStreamingArtifactMeetsThresholds(t *testing.T) {
	rep, err := loadStreamingReport(filepath.Join("..", "..", "BENCH_streaming.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pipeline.Speedup < 1.5 {
		t.Errorf("fused pipeline speedup %.2fx, want >= 1.5x", rep.Pipeline.Speedup)
	}
	if rep.Memory.PeakReductionPct < 30 {
		t.Errorf("peak memory reduction %.0f%%, want >= 30%%", rep.Memory.PeakReductionPct)
	}
	if rep.Codec.Ratio <= 0 || rep.Codec.Ratio > 0.60 {
		t.Errorf("columnar/tsv ratio %.2f, want in (0, 0.60]", rep.Codec.Ratio)
	}
}
