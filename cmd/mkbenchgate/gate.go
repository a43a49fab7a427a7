package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"

	"musketeer/internal/bench"
)

// Measurement is one benchmark's fresh or baseline allocation numbers.
// Time is not compared: ns/op against a baseline recorded on another day
// measures the host as much as the code, so it is judged end to end, by
// mkperf pairs of parent and change on one machine.
type Measurement struct {
	AllocsOp  float64
	HasAllocs bool
	BytesOp   float64
	HasBytes  bool
}

// Regression is one benchmark metric that exceeded its allowance.
type Regression struct {
	Name     string
	Metric   string // "allocs/op", "B/op", "mean |error|" or "|makespan error|"
	Fresh    float64
	Baseline float64
	Allowed  float64
}

func (r Regression) String() string {
	return fmt.Sprintf("REGRESSION %s %s: fresh %.4g vs baseline %.4g (allowed %.4g)",
		r.Name, r.Metric, r.Fresh, r.Baseline, r.Allowed)
}

// gomaxprocsSuffix is the `-N` GOMAXPROCS suffix go test appends to
// benchmark names; stripped so fresh runs compare across core counts.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// ParseGoBench reads `go test -bench -benchmem` output and returns the
// measurements keyed by benchmark name (GOMAXPROCS suffix stripped). With
// -count=N the best measurement wins: a pooled slab that one run happens to
// allocate afresh is noise, while a real regression allocates in every
// repetition. A line without -benchmem columns has nothing to compare and is
// skipped.
func ParseGoBench(r io.Reader) (map[string]Measurement, error) {
	out := map[string]Measurement{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		m := Measurement{}
		for i := 2; i < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				continue
			}
			switch fields[i] {
			case "allocs/op":
				m.AllocsOp, m.HasAllocs = v, true
			case "B/op":
				m.BytesOp, m.HasBytes = v, true
			}
		}
		if !m.HasAllocs && !m.HasBytes {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		if prev, ok := out[name]; ok {
			if prev.HasAllocs && prev.AllocsOp < m.AllocsOp {
				m.AllocsOp = prev.AllocsOp
			}
			m.HasAllocs = m.HasAllocs || prev.HasAllocs
			if prev.HasBytes && prev.BytesOp < m.BytesOp {
				m.BytesOp = prev.BytesOp
			}
			m.HasBytes = m.HasBytes || prev.HasBytes
		}
		out[name] = m
	}
	return out, sc.Err()
}

// LoadKernelBaseline walks a BENCH_kernels.json-shaped file: any nested
// object keyed by a Benchmark* name whose value carries an "after"
// measurement becomes a baseline entry. Non-benchmark entries (notes,
// wall-clock figures) are ignored.
type afterEntry struct {
	After *struct {
		AllocsOp float64  `json:"allocs_op"`
		BytesOp  *float64 `json:"bytes_op"`
	} `json:"after"`
}

func LoadKernelBaseline(path string) (map[string]Measurement, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]Measurement{}
	for _, raw := range top {
		var group map[string]json.RawMessage
		if json.Unmarshal(raw, &group) != nil {
			continue
		}
		for name, entry := range group {
			if !strings.HasPrefix(name, "Benchmark") {
				continue
			}
			var e afterEntry
			if json.Unmarshal(entry, &e) != nil || e.After == nil {
				continue
			}
			m := Measurement{AllocsOp: e.After.AllocsOp, HasAllocs: true}
			if e.After.BytesOp != nil {
				m.BytesOp, m.HasBytes = *e.After.BytesOp, true
			}
			out[name] = m
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no Benchmark* entries with an \"after\" measurement", path)
	}
	return out, nil
}

// CompareKernels checks every baseline benchmark present in the fresh run.
// threshold is fractional (0.25 = 25%). Allocations get the relative
// allowance plus half an allocation, so a zero-alloc baseline fails on the
// first fresh allocation. Heap bytes per op (B/op), where the baseline
// records them, get the relative allowance plus 64 bytes of slack — pinning
// the streaming pipelines' steady-state memory without tripping on
// size-class rounding.
func CompareKernels(fresh, baseline map[string]Measurement, threshold float64) (regs []Regression, checked, missing int) {
	for name, base := range baseline {
		f, ok := fresh[name]
		if !ok {
			missing++
			continue
		}
		checked++
		if base.HasAllocs && f.HasAllocs {
			if allowed := base.AllocsOp*(1+threshold) + 0.5; f.AllocsOp > allowed {
				regs = append(regs, Regression{Name: name, Metric: "allocs/op", Fresh: f.AllocsOp, Baseline: base.AllocsOp, Allowed: allowed})
			}
		}
		if base.HasBytes && f.HasBytes {
			if allowed := base.BytesOp*(1+threshold) + 64; f.BytesOp > allowed {
				regs = append(regs, Regression{Name: name, Metric: "B/op", Fresh: f.BytesOp, Baseline: base.BytesOp, Allowed: allowed})
			}
		}
	}
	return regs, checked, missing
}

// CompareAccuracy gates the estimator's calibration loop. Two checks:
// the fresh multi-round run must still converge (final-round mean
// |makespan error| strictly below round 1's — learning that stops helping
// is a regression even if absolute error looks fine), and each fresh
// final-round workflow's |makespan error| must not exceed the committed
// baseline's by more than the relative threshold plus two percentage
// points of absolute slack (errors near zero would otherwise make any
// relative allowance vanishingly strict). Workflows are matched by name so
// a gate run over a case subset compares only what it ran.
func CompareAccuracy(fresh, baseline *bench.AccuracyReport, threshold float64) []Regression {
	var regs []Regression
	if l := fresh.Learning; l != nil && len(l.MeanAbsErrorByRound) > 1 {
		first := l.MeanAbsErrorByRound[0]
		final := l.MeanAbsErrorByRound[len(l.MeanAbsErrorByRound)-1]
		if final >= first {
			regs = append(regs, Regression{
				Name: "accuracy/convergence", Metric: "mean |error|",
				Fresh: final, Baseline: first, Allowed: first,
			})
		}
	}
	base := map[string]float64{}
	for _, w := range baseline.Workflows {
		base[w.Workflow] = abs(w.MakespanError)
	}
	for _, w := range fresh.Workflows {
		b, ok := base[w.Workflow]
		if !ok {
			continue
		}
		if allowed := b*(1+threshold) + 0.02; abs(w.MakespanError) > allowed {
			regs = append(regs, Regression{
				Name: "accuracy/" + w.Workflow, Metric: "|makespan error|",
				Fresh: abs(w.MakespanError), Baseline: b, Allowed: allowed,
			})
		}
	}
	return regs
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func loadAccuracyReport(path string) (*bench.AccuracyReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep bench.AccuracyReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}
