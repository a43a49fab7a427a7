// Package allocgate holds kernel benchmarks to the allocations recorded as
// the "after" entries of BENCH_kernels.json. Only tests import it.
package allocgate

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// Table maps a gated benchmark's BENCH_kernels.json name to its setup, which
// returns one iteration of the benchmark's body.
type Table map[string]func(testing.TB) func(testing.TB)

// Measurement is a baseline's allocation per iteration; Bytes is nil where
// it gates allocations only.
type Measurement struct {
	Allocs float64  `json:"allocs_op"`
	Bytes  *float64 `json:"bytes_op"`
}

// Bench times the body named b.Name(); b.Run(sub, tab.Bench) times a
// sub-benchmark's.
func (tab Table) Bench(b *testing.B) {
	body := tab[b.Name()](b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body(b)
	}
}

// Check fails t for each body without an entry in the baseline file at path,
// or that allocates past it. A body runs once to warm the slab pools, then
// three times measured. MemStats are process-wide: t must not be parallel.
func (tab Table) Check(t *testing.T, path string) {
	base, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range slices.Sorted(maps.Keys(tab)) {
		want, ok := base[name]
		if !ok {
			t.Errorf("%s has no \"after\" entry in %s", name, path)
			continue
		}
		// The byte window opens after AllocsPerRun's warm-up and closes in
		// its last run, before it restores GOMAXPROCS, which can allocate.
		body, runs := tab[name](t), 0
		var before, after runtime.MemStats
		allocs := testing.AllocsPerRun(3, func() {
			if runs++; runs == 2 {
				runtime.ReadMemStats(&before)
			}
			body(t)
			if runs == 4 {
				runtime.ReadMemStats(&after)
			}
		})
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / 3
		t.Logf("%s: %.0f allocs/op, %.0f B/op", name, allocs, bytes)
		for _, r := range Regressions(want, allocs, bytes) {
			t.Errorf("%s %s", name, r)
		}
	}
}

// Regressions is the gate's rule: allocations may exceed the baseline by
// 25 % plus half an allocation, so a zero-allocation body stays at zero, and
// bytes by 25 % plus 64 B of size-class rounding.
func Regressions(base Measurement, allocs, bytes float64) (regs []string) {
	if allowed := base.Allocs*1.25 + 0.5; allocs > allowed {
		regs = append(regs, fmt.Sprintf("allocs/op: %.4g, allowed %.4g", allocs, allowed))
	}
	if base.Bytes != nil && bytes > *base.Bytes*1.25+64 {
		regs = append(regs, fmt.Sprintf("B/op: %.4g, allowed %.4g", bytes, *base.Bytes*1.25+64))
	}
	return regs
}

// Load reads the "after" entry of every Benchmark* name in the
// BENCH_kernels.json-shaped file at path, in whichever group it sits.
// Unmarshal skips what does not fit that shape (descriptions, notes, wall
// times) and reports the first such value as a type error.
func Load(path string) (map[string]Measurement, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var groups map[string]map[string]struct{ After *Measurement }
	if err := json.Unmarshal(data, &groups); err != nil && !errors.As(err, new(*json.UnmarshalTypeError)) {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]Measurement{}
	for _, group := range groups {
		for name, e := range group {
			if strings.HasPrefix(name, "Benchmark") && e.After != nil {
				out[name] = *e.After
			}
		}
	}
	return out, nil
}
