// Package core implements Musketeer's contribution: the layer that turns a
// front-end-produced IR DAG into executable back-end jobs. It contains the
// IR optimizer (§4.2), the DAG partitioner with its exhaustive and
// dynamic-programming algorithms (§5.1), the cost function with calibrated
// rates, conservative data-volume bounds and workflow history (§5.2), the
// automatic back-end mapper plus the decision-tree baseline it is evaluated
// against (§6.7), and the workflow runner that executes partitionings —
// including driving WHILE loops iteration by iteration on back-ends without
// native iteration support.
package core

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Observation is what one execution revealed about an operator.
type Observation struct {
	// OutRatio is observed output bytes divided by observed input bytes;
	// ratios (not absolute sizes) transfer across input scales, so history
	// collected at one scale factor still refines bounds at another.
	OutRatio float64 `json:"out_ratio"`
	// Iterations records how many times a WHILE operator looped.
	Iterations int `json:"iterations,omitempty"`
	// InBytes / OutBytes / ProcBytes are damped absolute per-iteration
	// volumes from the engine trace: consumed input, produced output, and
	// what the engine's PROCESS phase actually charged. Chained ratios
	// cannot reproduce iterative fixed points (a per-vertex aggregation
	// emits vertex-count bytes regardless of message volume, so a ratio
	// model compounds the error every round); absolute volumes anchor
	// repeat runs of the same workflow to measured truth, while OutRatio
	// remains the signal that transfers across input scales. Zero until
	// observed.
	InBytes   int64 `json:"in_bytes,omitempty"`
	OutBytes  int64 `json:"out_bytes,omitempty"`
	ProcBytes int64 `json:"proc_bytes,omitempty"`
}

// History is the workflow-history store (paper §5.2): per-workflow,
// per-operator observations collected from prior runs — output-size ratios,
// WHILE iteration counts, and per-job runtimes ("Musketeer collects
// information about each job it runs (e.g., runtime and input/output
// sizes)"). Keys are the DAG's structural hash, so re-running the same
// workflow (even at a different input size) reuses its history. Safe for
// concurrent use.
type History struct {
	mu sync.RWMutex
	m  map[string]map[int]Observation
	// runtimes records measured job makespans keyed by workflow hash,
	// fragment identity and engine. Recorded runtimes are surfaced by
	// Explain and available to operators; they deliberately do NOT
	// short-circuit cost estimates — replacing estimates with measurements
	// for previously-run fragments (but not their unexplored alternatives)
	// locks the mapper into its first choice, measurably degrading the
	// Fig 14 partial-history results. Bound refinement via size ratios is
	// the mechanism that transfers fairly across candidate mappings.
	runtimes map[string]float64
	// cal is the feedback-calibration state that travels with the history:
	// learned per-engine phase rates and per-operator-class selectivities,
	// persisted alongside the per-workflow observations. Lazily created so
	// zero-value and legacy-loaded stores behave identically.
	calMu sync.Mutex
	cal   *Calibration
}

// NewHistory returns an empty store.
func NewHistory() *History {
	return &History{m: map[string]map[int]Observation{}, runtimes: map[string]float64{}}
}

// Calibration returns the store's feedback-calibration state, creating an
// all-seed state on first use. Never nil on a non-nil history.
func (h *History) Calibration() *Calibration {
	h.calMu.Lock()
	defer h.calMu.Unlock()
	if h.cal == nil {
		h.cal = NewCalibration()
	}
	return h.cal
}

// runtimeKey identifies a (workflow, fragment, engine) execution. The
// fragment identity is the sorted operator-ID list, so the same job split
// matches across rebuilds of the workflow.
func runtimeKey(dagHash, fragKey, engine string) string {
	return dagHash + "|" + fragKey + "|" + engine
}

// ObserveRuntime records a job's measured makespan.
func (h *History) ObserveRuntime(dagHash, fragKey, engine string, seconds float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.runtimes == nil {
		h.runtimes = map[string]float64{}
	}
	h.runtimes[runtimeKey(dagHash, fragKey, engine)] = seconds
}

// LookupRuntime returns the recorded makespan of a (workflow, fragment,
// engine) combination.
func (h *History) LookupRuntime(dagHash, fragKey, engine string) (float64, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	s, ok := h.runtimes[runtimeKey(dagHash, fragKey, engine)]
	return s, ok
}

// ObserveDamped folds an execution's observation into the store with the
// calibration loop's damped update: the stored ratio moves fraction alpha
// of the way from its current value (or, on first evidence, from the
// planner's prior) toward the observation. Easing in from the prior is
// what makes estimator error shrink monotonically across learning rounds
// instead of jumping to the first measurement — which may itself be noisy
// (external-input volumes are observed coarsely). Iteration counts are
// stored exactly; they are discrete and stable.
func (h *History) ObserveDamped(dagHash string, opID int, obs Observation, prior, alpha float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	byOp, ok := h.m[dagHash]
	if !ok {
		byOp = map[int]Observation{}
		h.m[dagHash] = byOp
	}
	old, seen := byOp[opID]
	base := prior
	if seen {
		base = old.OutRatio
	}
	obs.OutRatio = base + alpha*(obs.OutRatio-base)
	// Volumes damp the same way; the first-evidence base is the
	// prior-implied volume (prior selectivity applied to the observed
	// input), so round-over-round estimates ease geometrically from what
	// the planner believed toward what the engine measured.
	inTruth := obs.InBytes
	dampVol := func(stored, truth, firstBase int64) int64 {
		if truth <= 0 {
			return stored
		}
		b := firstBase
		if stored > 0 {
			b = stored
		}
		return b + int64(alpha*float64(truth-b))
	}
	priorOut := int64(prior * float64(inTruth))
	obs.InBytes = dampVol(old.InBytes, inTruth, inTruth)
	obs.OutBytes = dampVol(old.OutBytes, obs.OutBytes, priorOut)
	obs.ProcBytes = dampVol(old.ProcBytes, obs.ProcBytes, inTruth+priorOut)
	if obs.Iterations == 0 {
		obs.Iterations = old.Iterations
	}
	byOp[opID] = obs
}

// ObserveIterations merges a WHILE operator's measured loop count into its
// observation without disturbing damped ratio/volume evidence recorded by
// the same run.
func (h *History) ObserveIterations(dagHash string, opID int, iters int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	byOp, ok := h.m[dagHash]
	if !ok {
		byOp = map[int]Observation{}
		h.m[dagHash] = byOp
	}
	old := byOp[opID]
	if old.OutRatio == 0 {
		old.OutRatio = 1
	}
	old.Iterations = iters
	byOp[opID] = old
}

// Lookup returns the stored observation for an operator.
func (h *History) Lookup(dagHash string, opID int) (Observation, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	obs, ok := h.m[dagHash][opID]
	return obs, ok
}

// Coverage returns how many operators of the workflow have observations.
func (h *History) Coverage(dagHash string) int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.m[dagHash])
}

// persistedHistory is the JSON layout of a saved store. Every field the
// store holds — observations, runtimes, calibration — round-trips; Save
// and LoadHistory are symmetric by construction and pinned by test.
type persistedHistory struct {
	Ops      map[string]map[int]Observation `json:"ops"`
	Runtimes map[string]float64             `json:"runtimes,omitempty"`
	// Calibration carries the learned rates/selectivities alongside the
	// per-workflow history, so one file restores the whole learned model.
	Calibration *CalibrationSnapshot `json:"calibration,omitempty"`
}

// Save writes the store as JSON to path.
func (h *History) Save(path string) error {
	p := persistedHistory{}
	if snap := h.Calibration().Snapshot(); snap.Version > 0 {
		p.Calibration = &snap
	}
	h.mu.RLock()
	p.Ops, p.Runtimes = h.m, h.runtimes
	data, err := json.MarshalIndent(p, "", "  ")
	h.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadHistory reads a store saved by Save; a missing file yields an empty
// store so first runs need no setup.
func LoadHistory(path string) (*History, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewHistory(), nil
	}
	if err != nil {
		return nil, err
	}
	var p persistedHistory
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("history: %s: %w", path, err)
	}
	h := NewHistory()
	if p.Ops != nil {
		h.m = p.Ops
	}
	if p.Runtimes != nil {
		h.runtimes = p.Runtimes
	}
	if p.Calibration != nil {
		h.Calibration().restore(*p.Calibration)
	}
	return h, nil
}
