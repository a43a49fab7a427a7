package perf

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p95 of forty samples is the second-largest value, not a
// percentile.
const minBeyond = 10

// Percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples. It refuses, naming the sample count, when fewer than minBeyond
// samples lie on the far side of the percentile. samples is not modified.
func Percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	beyond := float64(n) * math.Min(p, 100-p) / 100
	if beyond < minBeyond {
		return 0, fmt.Errorf("perf: p%g of %d samples has %.1f samples beyond it, want at least %d", p, n, beyond, minBeyond)
	}
	return nearestRank(samples, p), nil
}

// nearestRank is Percentile without the sample-count guard, for values that
// are not reported as percentiles of a latency distribution (the median of
// the set-ups, a per-member value inside a geometric mean).
func nearestRank(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(samples []float64) float64 { return nearestRank(samples, 50) }

// geomean is the geometric mean; it keeps one slow member from dominating
// a workload's headline time the way an arithmetic mean would.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, and 0 when b is 0, for hit ratios over windows that may
// see no attempts.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
