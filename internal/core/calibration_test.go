package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"musketeer/internal/cluster"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
)

// --- calibration store properties -------------------------------------

// ratesOf flattens a Rates struct for invariant checks.
func ratesOf(r engines.Rates) map[string]float64 {
	return map[string]float64{
		"overhead_s": r.OverheadS,
		"pull":       r.PullMBps,
		"load":       r.LoadMBps,
		"proc":       r.ProcMBps,
		"graph_proc": r.GraphProcMBps,
		"push":       r.PushMBps,
		"shuffle":    r.ShuffleMBps,
	}
}

func TestCalibrationZeroObservationsIsSeed(t *testing.T) {
	// The zero-observation state must be indistinguishable from the Table-1
	// seed: exact rate equality per engine, and bit-identical fragment
	// scores (EstimateCostRates at the calibration's rates vs at SeedRates).
	cal := NewCalibration()
	if cal.Version() != 0 {
		t.Fatalf("fresh calibration version = %d", cal.Version())
	}
	c := cluster.EC2(100)
	v := engines.Volumes{Pull: 5e9, Proc: 12e9, AggProc: 2e9, Shuffle: 3e9, Push: 1e9, Gen: 8e9, Peak: 4e9}
	for _, eng := range engines.StandardEngines() {
		if got, want := cal.Rates(eng), eng.SeedRates(); got != want {
			t.Errorf("%s: zero-observation rates %+v != seed %+v", eng.Name(), got, want)
		}
		seeded := eng.EstimateCostRates(c, v, cal.Rates(eng))
		if direct := eng.EstimateCostRates(c, v, eng.SeedRates()); seeded != direct {
			t.Errorf("%s: EstimateCostRates(calibration) = %v, EstimateCostRates(seed) = %v", eng.Name(), seeded, direct)
		}
	}
	if _, ok := cal.Selectivity(ir.OpJoin); ok {
		t.Error("fresh calibration reports selectivity evidence")
	}
}

func TestCalibrationRatesStayPositiveUnderAnyUpdates(t *testing.T) {
	// Property: no observation sequence — however extreme or corrupt — may
	// drive a learned rate to zero, negative, or outside the seed clamp
	// band [seed/8, seed·8].
	r := rand.New(rand.NewSource(11))
	extremes := []float64{0, 1e-12, 1e12, -3, math.NaN(), math.Inf(1)}
	for _, eng := range engines.StandardEngines() {
		cal := NewCalibration()
		seed := ratesOf(eng.SeedRates())
		for i := 0; i < 400; i++ {
			obs := engines.Rates{}
			fields := []*float64{
				&obs.OverheadS, &obs.PullMBps, &obs.LoadMBps, &obs.ProcMBps,
				&obs.GraphProcMBps, &obs.PushMBps, &obs.ShuffleMBps,
			}
			for _, f := range fields {
				switch r.Intn(3) {
				case 0:
					*f = extremes[r.Intn(len(extremes))]
				case 1:
					*f = r.Float64() * 1000
				}
			}
			cal.ObserveRates(eng, obs)
			learned := ratesOf(cal.Rates(eng))
			for name, s := range seed {
				l := learned[name]
				if s == 0 {
					if l != 0 {
						t.Fatalf("%s %s: phase absent in seed but learned %v", eng.Name(), name, l)
					}
					continue
				}
				if !(l > 0) || l < s/rateClampFactor-1e-9 || l > s*rateClampFactor+1e-9 {
					t.Fatalf("%s %s: learned %v escaped clamp band [%v, %v]", eng.Name(), name, l, s/rateClampFactor, s*rateClampFactor)
				}
			}
		}
	}
}

func TestCalibrationSelectivityClampedAndDamped(t *testing.T) {
	cal := NewCalibration()
	// Garbage observations must be no-ops: no version bump, no state.
	for _, bad := range []float64{-1, math.NaN(), maxSelectivity + 1} {
		cal.ObserveSelectivity(ir.OpJoin, bad)
	}
	if cal.Version() != 0 {
		t.Fatalf("rejected observations bumped version to %d", cal.Version())
	}
	// A valid observation eases halfway from the conservative seed.
	cal.ObserveSelectivity(ir.OpJoin, 1.0)
	got, ok := cal.Selectivity(ir.OpJoin)
	want := 3.0 + SelectivityDamping*(1.0-3.0)
	if !ok || math.Abs(got-want) > 1e-12 {
		t.Errorf("damped JOIN selectivity = %v (%v), want %v", got, ok, want)
	}
	// Repeated extreme-but-valid observations stay within (0, max].
	for i := 0; i < 100; i++ {
		cal.ObserveSelectivity(ir.OpJoin, maxSelectivity)
	}
	if got, _ := cal.Selectivity(ir.OpJoin); !(got > 0) || got > maxSelectivity {
		t.Errorf("learned selectivity %v escaped (0, %v]", got, maxSelectivity)
	}
}

func TestCalibrationVersionInvalidatesScores(t *testing.T) {
	// Learned rates must take effect on the very next score: the memoized
	// fragment choices are keyed to the calibration version, and the
	// un-memoized FragmentCost path reads current rates directly.
	dag := maxPropertyPrice()
	fs := seedPropertyDFS(t, 1000)
	h := NewHistory()
	est, err := NewEstimator(ir.Identify(dag), fs, cluster.Local(7), h)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := ir.NewFragment(dag, dag.Ops)
	if err != nil {
		t.Fatal(err)
	}
	eng := engines.Naiad()
	before := est.FragmentCost(whole, eng)
	seed := eng.SeedRates()
	slow := seed
	slow.ProcMBps = seed.ProcMBps / 4
	h.Calibration().ObserveRates(eng, slow)
	after := est.FragmentCost(whole, eng)
	if after <= before {
		t.Errorf("slower learned proc rate did not raise the score: %v -> %v", before, after)
	}
}

func TestEstimatesMonotoneInInputSize(t *testing.T) {
	// Property: at any fixed calibration state, a strictly larger input
	// must never yield a cheaper fragment score.
	h := NewHistory()
	// Exercise the learned-rate path too, not just the seed.
	h.Calibration().ObserveRates(engines.Naiad(), engines.Rates{ProcMBps: 100, PullMBps: 90})
	var prev cluster.Seconds
	for i, scale := range []int64{10, 100, 1000, 10000} {
		dag := maxPropertyPrice()
		fs := seedPropertyDFS(t, scale)
		est, err := NewEstimator(ir.Identify(dag), fs, cluster.Local(7), h)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := ir.NewFragment(dag, dag.Ops)
		if err != nil {
			t.Fatal(err)
		}
		cost := est.FragmentCost(whole, engines.Naiad())
		if cost <= 0 {
			t.Fatalf("scale %d: non-positive cost %v", scale, cost)
		}
		if i > 0 && cost < prev {
			t.Errorf("scale %d: cost %v below smaller input's %v", scale, cost, prev)
		}
		prev = cost
	}
}

// --- damped history observations --------------------------------------

func TestObserveDampedConvergesMonotonically(t *testing.T) {
	h := NewHistory()
	truth := Observation{OutRatio: 0.2, InBytes: 1000, OutBytes: 200, ProcBytes: 1200}
	prior := 3.0
	prevDist := math.Inf(1)
	for i := 0; i < 12; i++ {
		h.ObserveDamped("k1", truth, prior, SelectivityDamping)
		got, _ := h.Lookup("k1")
		dist := math.Abs(got.OutRatio-truth.OutRatio) +
			math.Abs(float64(got.OutBytes-truth.OutBytes)) +
			math.Abs(float64(got.ProcBytes-truth.ProcBytes))
		if dist > prevDist {
			t.Fatalf("update %d: distance to truth grew %v -> %v (%+v)", i, prevDist, dist, got)
		}
		prevDist = dist
	}
	got, _ := h.Lookup("k1")
	if math.Abs(got.OutRatio-truth.OutRatio) > 1e-3 {
		t.Errorf("ratio did not converge: %v", got.OutRatio)
	}
	if got.InBytes != truth.InBytes {
		t.Errorf("in bytes %d, want exact %d", got.InBytes, truth.InBytes)
	}
	if math.Abs(float64(got.OutBytes-truth.OutBytes)) > 1 || math.Abs(float64(got.ProcBytes-truth.ProcBytes)) > 2 {
		t.Errorf("volumes did not converge: %+v vs %+v", got, truth)
	}
	// First evidence must ease from the prior, not jump to the measurement.
	h2 := NewHistory()
	h2.ObserveDamped("k1", truth, prior, SelectivityDamping)
	first, _ := h2.Lookup("k1")
	if want := prior + SelectivityDamping*(truth.OutRatio-prior); math.Abs(first.OutRatio-want) > 1e-12 {
		t.Errorf("first update ratio = %v, want eased %v", first.OutRatio, want)
	}
	if first.OutBytes == truth.OutBytes {
		t.Error("first update jumped straight to the measured output volume")
	}
}

func TestObserveIterationsPreservesDampedEvidence(t *testing.T) {
	h := NewHistory()
	h.ObserveDamped("k4", Observation{OutRatio: 0.5, InBytes: 100, OutBytes: 50, ProcBytes: 150}, 1.0, SelectivityDamping)
	before, _ := h.Lookup("k4")
	h.ObserveIterations("k4", 9)
	after, _ := h.Lookup("k4")
	if after.Iterations != 9 {
		t.Errorf("iterations = %d", after.Iterations)
	}
	if after.OutRatio != before.OutRatio || after.OutBytes != before.OutBytes || after.ProcBytes != before.ProcBytes {
		t.Errorf("iteration merge stomped damped evidence: %+v -> %+v", before, after)
	}
	// On a fresh op the merge seeds a neutral ratio.
	h.ObserveIterations("k5", 3)
	fresh, _ := h.Lookup("k5")
	if fresh.OutRatio != 1 || fresh.Iterations != 3 {
		t.Errorf("fresh iteration observation = %+v", fresh)
	}
}

// --- persistence -------------------------------------------------------

func TestHistoryRoundTripCarriesCalibration(t *testing.T) {
	h := NewHistory()
	h.ObserveDamped("k2", Observation{OutRatio: 0.4, InBytes: 900, OutBytes: 360, ProcBytes: 1260}, 1.0, SelectivityDamping)
	eng := engines.Spark()
	h.Calibration().ObserveRates(eng, engines.Rates{ProcMBps: 95, PullMBps: 60})
	h.Calibration().ObserveSelectivity(ir.OpAgg, 0.1)
	path := filepath.Join(t.TempDir(), "history.json")
	if err := h.Save(path); err != nil {
		t.Fatal(err)
	}
	h2, err := LoadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	obs, ok := h2.Lookup("k2")
	if !ok {
		t.Fatal("observation lost")
	}
	if want, _ := h.Lookup("k2"); obs != want {
		t.Errorf("observation round trip: %+v != %+v", obs, want)
	}
	// The calibration snapshot must round-trip exactly (JSON-comparable:
	// time stamps marshal identically).
	a, _ := json.Marshal(h.Calibration().Snapshot())
	b, _ := json.Marshal(h2.Calibration().Snapshot())
	if string(a) != string(b) {
		t.Errorf("calibration round trip:\n%s\nvs\n%s", a, b)
	}
	if h2.Calibration().Version() == 0 {
		t.Error("loaded calibration lost its version")
	}
	if got := h2.Calibration().Rates(eng); got == eng.SeedRates() {
		t.Error("loaded calibration lost learned rates")
	}
}

func TestCalibrationImmaterialUpdatesKeepVersion(t *testing.T) {
	// A converged model re-observing its own fixed point must not bump the
	// version: steady-state feedback would otherwise invalidate every
	// version-pinned cache (estimator memos, serve-mode plan cache) on
	// every run, for estimate changes too small to alter any decision.
	cal := NewCalibration()
	eng := engines.Naiad()
	slow := eng.SeedRates()
	slow.ProcMBps /= 2
	cal.ObserveRates(eng, slow)
	if cal.Version() == 0 {
		t.Fatal("material first rate observation did not bump the version")
	}
	for i := 0; i < 64; i++ {
		cal.ObserveRates(eng, slow)
	}
	v := cal.Version()
	cal.ObserveRates(eng, slow)
	if got := cal.Version(); got != v {
		t.Errorf("converged rate re-observation bumped version %d -> %d", v, got)
	}

	cal.ObserveSelectivity(ir.OpJoin, 0.25)
	if cal.Version() == v {
		t.Fatal("material first selectivity observation did not bump the version")
	}
	for i := 0; i < 64; i++ {
		cal.ObserveSelectivity(ir.OpJoin, 0.25)
	}
	v = cal.Version()
	cal.ObserveSelectivity(ir.OpJoin, 0.25)
	if got := cal.Version(); got != v {
		t.Errorf("converged selectivity re-observation bumped version %d -> %d", v, got)
	}
}
