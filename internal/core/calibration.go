package core

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"musketeer/internal/cluster"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
)

// The paper calibrates the cost model once per cluster (§5.2, Table 1) and
// then trusts the constants forever. Calibration makes that continuous: a
// versioned, concurrency-safe store of per-engine phase rates and
// per-operator-class selectivities, seeded from the Table-1 profiles and
// the conservative hiBound factors, refined after every execution from
// observed phase breakdowns and per-operator size ratios. Updates are
// damped moving averages with a decaying step — one noisy run nudges the
// model, it cannot wreck it, and a steady workload's model settles on the
// mean of what it observes — and an update that drifts a learned value
// *materially* from where it sat at the last bump advances a version so
// estimator memo tables and the serve-mode plan cache know their cached
// scores are stale. Sub-threshold wobble (a converged model re-observing
// the same workload) deliberately does not bump: otherwise every
// execution's own feedback would invalidate every cached plan and
// memoized score in steady state, for estimate changes far too small to
// alter any planning decision.

const (
	// SelectivityDamping is the EWMA step for per-class output ratios.
	// 0.5 halves the distance between model and observation per update:
	// convergence is geometric (error shrinks monotonically across learning
	// rounds) yet a single outlier moves the model at most halfway.
	SelectivityDamping = 0.5
	// RateDamping is the (more cautious) EWMA step for phase rates:
	// observed rates fold in systematic residuals like codegen tax, but a
	// single straggling or tiny-volume job should barely register.
	RateDamping = 0.3
	// rateClampFactor bounds learned rates to [seed/8, seed·8]: no stream
	// of observations, however corrupt, can drive a rate to zero, negative,
	// or absurd — cost-model invariants (strictly positive rates, monotone
	// estimates) survive arbitrary update sequences.
	rateClampFactor = 8.0
	// maxSelectivity bounds a learned class ratio: cross joins legitimately
	// blow up output sizes, but no class model should exceed the worst
	// conservative bound by more than an order of magnitude.
	maxSelectivity = 250.0
	// versionEpsilon is the relative drift of a learned value — measured
	// from its anchor, the value it held at the last version bump — below
	// which updates are immaterial: the version is not bumped, so converged
	// models stop invalidating memo tables and cached plans. 1% is far
	// below any margin at which the partitioner's engine choice could flip.
	// Anchoring to the last bump (not the last update) means many tiny
	// moves that accumulate into a real drift still invalidate, while
	// steady-state wobble around a fixed point never does.
	versionEpsilon = 0.01
)

// materially reports whether a learned value drifted enough from its
// anchor to warrant invalidating version-pinned caches.
func materially(anchor, new float64) bool {
	base := math.Abs(anchor)
	if base < 1e-12 {
		base = 1e-12
	}
	return math.Abs(new-anchor)/base > versionEpsilon
}

// step is the damped update size for the n-th observation (n counted from
// zero): α₀ on first evidence, then the Robbins–Monro schedule
// α₀/(1+α₀·n). A class model is fed *heterogeneous* instances — two JOINs
// in one workflow can have wildly different selectivities — and under a
// constant step the learned value oscillates between them forever with
// amplitude ~α₀·spread, re-invalidating every version-pinned cache on
// every run. The decaying step converges to the observation stream's mean
// instead, and because Σstep diverges the model still tracks a genuine
// workload shift, just increasingly slowly.
func step(alpha0 float64, n int) float64 {
	return alpha0 / (1 + alpha0*float64(n))
}

// EngineCalibration is one engine's seed vs learned phase rates. The
// unexported anchor holds each rate's value at the last version bump;
// drift is measured against it (it deliberately does not persist — a
// reloaded store re-anchors on its first update).
type EngineCalibration struct {
	Engine  string        `json:"engine"`
	Seed    engines.Rates `json:"seed"`
	Learned engines.Rates `json:"learned"`
	Samples int           `json:"samples"`
	anchor  engines.Rates
}

// SelectivityCalibration is one operator class's seed vs learned
// output-size ratio; anchor as in EngineCalibration.
type SelectivityCalibration struct {
	Class   string  `json:"class"`
	Seed    float64 `json:"seed"`
	Learned float64 `json:"learned"`
	Samples int     `json:"samples"`
	anchor  float64
}

// CalibrationSnapshot is a point-in-time copy of the store, used for
// display (musketeer stats) and persisted inside the history file.
type CalibrationSnapshot struct {
	Version       uint64                   `json:"version"`
	UpdatedAt     time.Time                `json:"updated_at,omitempty"`
	Engines       []EngineCalibration      `json:"engines,omitempty"`
	Selectivities []SelectivityCalibration `json:"selectivities,omitempty"`
}

// Calibration is the feedback-calibration state. Safe for concurrent use;
// the zero-observation state is indistinguishable from the Table-1 seed
// (Rates returns SeedRates exactly, Selectivity reports no evidence).
type Calibration struct {
	mu      sync.RWMutex
	version atomic.Uint64
	engs    map[string]*EngineCalibration
	sels    map[string]*SelectivityCalibration
	// updatedAt stamps when evidence last arrived — provenance for
	// persisted state and CLI display; it never feeds a cost estimate.
	updatedAt time.Time
}

// NewCalibration returns a store holding only seeds.
func NewCalibration() *Calibration {
	return &Calibration{
		engs: map[string]*EngineCalibration{},
		sels: map[string]*SelectivityCalibration{},
	}
}

// Version returns the update counter. Estimators key their memo tables on
// it: a bump means cached fragment scores were computed on stale rates.
func (c *Calibration) Version() uint64 {
	if c == nil {
		return 0
	}
	return c.version.Load()
}

// UpdatedAt reports when evidence last arrived (zero time = never).
func (c *Calibration) UpdatedAt() time.Time {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.updatedAt
}

// touch stamps the provenance clock on an update. The calibration path
// owns this wall-clock read by design (the determinism rule's exempt-
// clock-owner set sanctions it): the stamp annotates persisted state and
// CLI output only — no cost estimate ever reads it.
func (c *Calibration) touch() {
	c.updatedAt = time.Now()
}

// Rates returns the engine's current phase rates: the learned values once
// evidence exists, the exact Table-1 seed otherwise.
func (c *Calibration) Rates(eng *engines.Engine) engines.Rates {
	if c == nil {
		return eng.SeedRates()
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	ec, ok := c.engs[eng.Name()]
	if !ok || ec.Samples == 0 {
		return eng.SeedRates()
	}
	return ec.Learned
}

// Selectivity returns the learned output-size ratio for an operator class,
// reporting ok only when at least one observation has been folded in.
func (c *Calibration) Selectivity(t ir.OpType) (float64, bool) {
	if c == nil {
		return 0, false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	sc, ok := c.sels[t.String()]
	if !ok || sc.Samples == 0 {
		return 0, false
	}
	return sc.Learned, true
}

// SelectivityPrior returns the ratio the planner would currently assume
// for an operator class: the learned value when evidence exists, the
// conservative hiBound otherwise. It is the prior that damped history
// observations ease away from.
func (c *Calibration) SelectivityPrior(t ir.OpType) float64 {
	if s, ok := c.Selectivity(t); ok {
		return s
	}
	return hiBound(t)
}

// ObserveSelectivity folds one observed output/input ratio into the class
// model with the damped update learned += α·(observed − learned), seeding
// from the conservative hiBound on first evidence.
func (c *Calibration) ObserveSelectivity(t ir.OpType, ratio float64) {
	if c == nil || ratio < 0 || ratio != ratio || ratio > maxSelectivity {
		return
	}
	key := t.String()
	c.mu.Lock()
	sc, ok := c.sels[key]
	if !ok {
		sc = &SelectivityCalibration{Class: key, Seed: hiBound(t), Learned: hiBound(t), anchor: hiBound(t)}
		c.sels[key] = sc
	}
	sc.Learned += step(SelectivityDamping, sc.Samples) * (ratio - sc.Learned)
	sc.Samples++
	c.touch()
	if materially(sc.anchor, sc.Learned) {
		sc.anchor = sc.Learned
		c.version.Add(1)
	}
	c.mu.Unlock()
}

// ObserveRates folds one job's observed phase rates into the engine model.
// Zero fields carry no signal and are skipped; every learned rate is
// clamped to [seed/clamp, seed·clamp], so rates stay strictly positive
// under any observation sequence.
func (c *Calibration) ObserveRates(eng *engines.Engine, obs engines.Rates) {
	if c == nil {
		return
	}
	c.mu.Lock()
	ec, ok := c.engs[eng.Name()]
	if !ok {
		seed := eng.SeedRates()
		ec = &EngineCalibration{Engine: eng.Name(), Seed: seed, Learned: seed, anchor: seed}
		c.engs[eng.Name()] = ec
	}
	fields := []struct {
		seed, learned, anchor, obs *float64
	}{
		{&ec.Seed.OverheadS, &ec.Learned.OverheadS, &ec.anchor.OverheadS, &obs.OverheadS},
		{&ec.Seed.PullMBps, &ec.Learned.PullMBps, &ec.anchor.PullMBps, &obs.PullMBps},
		{&ec.Seed.LoadMBps, &ec.Learned.LoadMBps, &ec.anchor.LoadMBps, &obs.LoadMBps},
		{&ec.Seed.ProcMBps, &ec.Learned.ProcMBps, &ec.anchor.ProcMBps, &obs.ProcMBps},
		{&ec.Seed.GraphProcMBps, &ec.Learned.GraphProcMBps, &ec.anchor.GraphProcMBps, &obs.GraphProcMBps},
		{&ec.Seed.PushMBps, &ec.Learned.PushMBps, &ec.anchor.PushMBps, &obs.PushMBps},
		{&ec.Seed.ShuffleMBps, &ec.Learned.ShuffleMBps, &ec.anchor.ShuffleMBps, &obs.ShuffleMBps},
	}
	st := step(RateDamping, ec.Samples)
	moved := false
	for _, f := range fields {
		o := *f.obs
		if o <= 0 || o != o || *f.seed <= 0 {
			continue // no signal, or the engine has no such phase
		}
		v := *f.learned + st*(o-*f.learned)
		if lo := *f.seed / rateClampFactor; v < lo {
			v = lo
		}
		if hi := *f.seed * rateClampFactor; v > hi {
			v = hi
		}
		*f.learned = v
		if materially(*f.anchor, v) {
			*f.anchor = v
			moved = true
		}
	}
	ec.Samples++
	c.touch()
	if moved {
		c.version.Add(1)
	}
	c.mu.Unlock()
}

// ObserveRun extracts the effective phase rates one executed job achieved
// and folds them in — the runner's post-execution feedback hook.
func (c *Calibration) ObserveRun(eng *engines.Engine, cl *cluster.Cluster, res *engines.RunResult) {
	c.ObserveRates(eng, eng.ObservedRates(cl, res))
}

// Snapshot copies the store for display or persistence, engines and
// classes sorted by name.
func (c *Calibration) Snapshot() CalibrationSnapshot {
	if c == nil {
		return CalibrationSnapshot{}
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	snap := CalibrationSnapshot{Version: c.version.Load(), UpdatedAt: c.updatedAt}
	for _, ec := range c.engs {
		snap.Engines = append(snap.Engines, *ec)
	}
	for _, sc := range c.sels {
		snap.Selectivities = append(snap.Selectivities, *sc)
	}
	sort.Slice(snap.Engines, func(i, j int) bool { return snap.Engines[i].Engine < snap.Engines[j].Engine })
	sort.Slice(snap.Selectivities, func(i, j int) bool { return snap.Selectivities[i].Class < snap.Selectivities[j].Class })
	return snap
}

// restore replaces the store's contents with a snapshot (persistence
// load); the version counter resumes from the snapshot's.
func (c *Calibration) restore(snap CalibrationSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.engs = map[string]*EngineCalibration{}
	for i := range snap.Engines {
		ec := snap.Engines[i]
		c.engs[ec.Engine] = &ec
	}
	c.sels = map[string]*SelectivityCalibration{}
	for i := range snap.Selectivities {
		sc := snap.Selectivities[i]
		c.sels[sc.Class] = &sc
	}
	c.updatedAt = snap.UpdatedAt
	c.version.Store(snap.Version)
}
