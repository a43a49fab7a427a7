package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
		"BenchmarkKernelSelect":   {AllocsOp: 29, HasAllocs: true, BytesOp: 433185, HasBytes: true},
		"BenchmarkKernelProject":  {AllocsOp: 7, HasAllocs: true, BytesOp: 816512, HasBytes: true},
		"BenchmarkKernelHashJoin": {AllocsOp: 21852, HasAllocs: true, BytesOp: 31676430, HasBytes: true},
		"BenchmarkRowKey/hashed":  {AllocsOp: 0, HasAllocs: true, BytesOp: 0, HasBytes: true},
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
	if got := m["BenchmarkX"]; got != (Measurement{AllocsOp: 8, HasAllocs: true, BytesOp: 64, HasBytes: true}) {
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
	if !sel.HasAllocs || !sel.HasBytes {
		t.Errorf("implausible baseline %+v", sel)
	}
	// Groups other than "kernels" (row_key, sort, codec, partitioning) must
	// be picked up too, and non-benchmark entries skipped.
	if _, ok := base["BenchmarkSortRows/serial"]; !ok {
		t.Error("nested group entry BenchmarkSortRows/serial not loaded")
	}
	for name := range base {
		if !strings.HasPrefix(name, "Benchmark") {
			t.Errorf("non-benchmark baseline entry %q", name)
		}
	}
}

func TestGateAllocRegressionAndZeroAllocGuard(t *testing.T) {
	baseline := map[string]Measurement{
		"BenchmarkZero": {AllocsOp: 0, HasAllocs: true},
		"BenchmarkFew":  {AllocsOp: 8, HasAllocs: true},
	}
	fresh := map[string]Measurement{
		"BenchmarkZero": {AllocsOp: 1, HasAllocs: true},  // zero-alloc path now allocates
		"BenchmarkFew":  {AllocsOp: 10, HasAllocs: true}, // within 25%+0.5
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
		"BenchmarkStreamFused": {AllocsOp: 4, HasAllocs: true, BytesOp: 1024, HasBytes: true},
		"BenchmarkNoise":       {AllocsOp: 4, HasAllocs: true, BytesOp: 1024, HasBytes: true},
		"BenchmarkNoBytes":     {AllocsOp: 4, HasAllocs: true},
	}
	fresh := map[string]Measurement{
		"BenchmarkStreamFused": {AllocsOp: 4, HasAllocs: true, BytesOp: 4096, HasBytes: true},
		"BenchmarkNoise":       {AllocsOp: 4, HasAllocs: true, BytesOp: 1300, HasBytes: true},
		"BenchmarkNoBytes":     {AllocsOp: 4, HasAllocs: true, BytesOp: 1 << 30, HasBytes: true},
	}
	regs, _, _ := CompareKernels(fresh, baseline, 0.25)
	if len(regs) != 1 || regs[0].Name != "BenchmarkStreamFused" || regs[0].Metric != "B/op" {
		t.Fatalf("regs = %v, want only BenchmarkStreamFused B/op", regs)
	}
}

func TestGateToleratesNoiseWithinThreshold(t *testing.T) {
	baseline := map[string]Measurement{"BenchmarkX": {AllocsOp: 100, HasAllocs: true}}
	fresh := map[string]Measurement{"BenchmarkX": {AllocsOp: 120, HasAllocs: true}}
	if regs, _, _ := CompareKernels(fresh, baseline, 0.25); len(regs) != 0 {
		t.Errorf("within-threshold drift flagged: %v", regs)
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
