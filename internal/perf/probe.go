package perf

import (
	"slices"
	"strconv"
	"time"
)

// speedometer tells how fast the machine is while a run measures, by timing
// a fixed piece of work of the benchmark's own — no product code, no
// allocation — again and again. The baseline box is two virtual cores of a
// shared host that drifts between speed modes lasting minutes: ten
// consecutive runs of plan_cold, which is one goroutine computing on a heap
// that fits in cache, climbed from 2.29 to 2.98 ms per plan with no steal
// recorded, and the probe climbs with the workloads (correlation 0.7 to 0.94
// over 27 runs of each; README "Machine speed"). Every reported time is
// scaled by factor(), so it reads as it would on a machine running the probe
// in probeNominalMS.
type speedometer struct {
	xs, back []int64
	text     []byte
	seen     map[int64]int32
	sink     int64 // keeps the compiler from discarding the probe's work
	ms       []float64
	last     time.Time
}

// probeNominalMS is the probe's time on the baseline box in its fast mode.
// It only fixes the scale of the reported times; it is not re-measured.
const probeNominalMS = 1.8

// probeN values (0.3 MB with the map, so the probe adds little to
// live_heap_mb) are worked over probePasses times per sample.
const (
	probeN      = 1 << 12
	probePasses = 4
)

func newSpeedometer() *speedometer {
	return &speedometer{
		xs:   make([]int64, probeN),
		back: make([]int64, 0, probeN),
		text: make([]byte, 0, 16*probeN),
		seen: make(map[int64]int32, probeN),
	}
}

// sample runs the probe once. It mixes what the workflows do: fill a
// column, render it to decimal text and parse it back (the TSV codecs),
// build and read a hash map (joins, group-bys) and sort.
func (s *speedometer) sample() {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for pass := 0; pass < probePasses; pass++ {
		for i := range s.xs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			s.xs[i] = int64(x >> 20)
		}
		s.text = s.text[:0]
		for _, v := range s.xs {
			s.text = strconv.AppendInt(s.text, v, 10)
			s.text = append(s.text, '\t')
		}
		s.back = s.back[:0]
		var v int64
		for _, c := range s.text {
			if c == '\t' {
				s.back = append(s.back, v)
				v = 0
			} else {
				v = 10*v + int64(c-'0')
			}
		}
		clear(s.seen)
		for i, v := range s.back {
			s.seen[v] = int32(i)
		}
		var sum int64
		for _, v := range s.xs {
			sum += int64(s.seen[v])
		}
		slices.Sort(s.back)
		s.sink += sum + s.back[0]
	}
	s.last = time.Now()
	s.ms = append(s.ms, s.last.Sub(t0).Seconds()*1e3)
}

// burst runs the probe n times in a row.
func (s *speedometer) burst(n int) {
	for i := 0; i < n; i++ {
		s.sample()
	}
}

// tick runs the probe if it has not run for a tenth of a second, so a loop
// may call it after every operation and spend about 2 % of its time in it.
func (s *speedometer) tick() {
	if time.Since(s.last) >= 100*time.Millisecond {
		s.sample()
	}
}

// reading is the probe's time in ms: like the latencies, the undisturbed
// tenth of the samples.
func (s *speedometer) reading() float64 { return nearestRank(s.ms, undisturbedPct) }

// factor is what a time measured while the samples were taken is multiplied
// by to read as it would with the probe at probeNominalMS.
func (s *speedometer) factor() float64 { return probeNominalMS / s.reading() }
