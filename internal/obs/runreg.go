package obs

import (
	"strconv"
	"sync"
	"time"
)

// The run registry is the queryable third leg of the telemetry plane: a
// bounded in-process ring of execution digests — per-phase span rollups,
// predicted-vs-measured accuracy, chaos/recovery counts, the chosen engine
// per fragment — retained for the last N executions and served by the
// debug server (/debug/runs, /debug/runs/<id>/trace). Where the metrics
// registry answers "how much, cumulatively" and the flight recorder
// answers "what happened inside one run", the run registry answers "what
// were the recent runs, and how did their plans hold up".

// RunDigest is the retained summary of one workflow execution.
type RunDigest struct {
	// ID is assigned by the registry at Record time (monotonic, unique for
	// the process lifetime) and addresses the run in /debug/runs/<id>.
	ID string `json:"id"`
	// Workflow names the execution by its sink relations.
	Workflow string `json:"workflow,omitempty"`
	// Namespace is the execution's DFS session prefix.
	Namespace string `json:"namespace,omitempty"`
	// Tenant names the tenant the execution ran for ("" outside serve
	// mode's multi-tenant sessions).
	Tenant string `json:"tenant,omitempty"`
	// Start and WallMS place the execution on the real clock.
	Start  time.Time `json:"start"`
	WallMS float64   `json:"wall_ms"`
	// Status is "ok" or "failed"; Err carries the failure message.
	Status string `json:"status"`
	Err    string `json:"err,omitempty"`
	// MakespanS / PredictedS / MakespanError are the measured simulated
	// makespan, the planner's critical-path prediction, and the signed
	// relative error between them.
	MakespanS     float64 `json:"makespan_s"`
	PredictedS    float64 `json:"predicted_makespan_s"`
	MakespanError float64 `json:"makespan_error"`
	// Jobs lists every scheduled job with its chosen engine and accuracy.
	Jobs []JobAccuracy `json:"jobs,omitempty"`
	// Phases are the per-(engine, phase) span rollups of the run's flight
	// recorder (empty when the run was not traced).
	Phases []PhaseRate `json:"phases,omitempty"`
	// Chaos/recovery accounting, aggregated across the run's engine jobs.
	Faults      int     `json:"faults,omitempty"`
	RecoveryS   float64 `json:"recovery_s,omitempty"`
	Checkpoints int     `json:"checkpoints,omitempty"`
	DFSRetries  int     `json:"dfs_retries,omitempty"`
	OOM         bool    `json:"oom,omitempty"`
	// Spans counts the run's recorded spans; Traced reports whether the
	// registry retains the recorder (i.e. /debug/runs/<id>/trace serves).
	Spans  int  `json:"spans,omitempty"`
	Traced bool `json:"traced"`
}

// runEntry pairs a digest with its (optional) retained flight recorder.
type runEntry struct {
	d   RunDigest
	rec *Recorder
}

// RunRegistry retains digests of the last N executions. Safe for
// concurrent use; a nil *RunRegistry discards records and serves nothing,
// so the registry can be plumbed unconditionally.
type RunRegistry struct {
	mu      sync.Mutex
	limit   int
	seq     int64
	entries []runEntry // oldest first; bounded to limit
}

// DefaultRunRetention is how many executions a deployment retains when no
// explicit retention is configured.
const DefaultRunRetention = 64

// NewRunRegistry builds a registry retaining the last n executions
// (DefaultRunRetention when n <= 0).
func NewRunRegistry(n int) *RunRegistry {
	if n <= 0 {
		n = DefaultRunRetention
	}
	return &RunRegistry{limit: n}
}

// Limit returns the retention bound.
func (r *RunRegistry) Limit() int {
	if r == nil {
		return 0
	}
	return r.limit
}

// Record stores one execution's digest (assigning and returning its ID)
// along with its flight recorder, which the debug server serves as a
// Chrome trace; rec may be nil for untraced runs. The oldest digest is
// evicted once the retention bound is exceeded. No-op (returning "") on a
// nil registry.
func (r *RunRegistry) Record(d RunDigest, rec *Recorder) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	d.ID = "r" + strconv.FormatInt(r.seq, 10)
	d.Spans = rec.Len()
	d.Traced = rec != nil
	r.entries = append(r.entries, runEntry{d: d, rec: rec})
	if len(r.entries) > r.limit {
		// Shift in place instead of re-slicing so evicted entries do not
		// pin the backing array's recorders.
		copy(r.entries, r.entries[1:])
		r.entries[len(r.entries)-1] = runEntry{}
		r.entries = r.entries[:len(r.entries)-1]
	}
	return d.ID
}

// Runs returns the retained digests, newest first.
func (r *RunRegistry) Runs() []RunDigest {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RunDigest, 0, len(r.entries))
	for i := len(r.entries) - 1; i >= 0; i-- {
		out = append(out, r.entries[i].d)
	}
	return out
}

// Len reports how many digests are retained.
func (r *RunRegistry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Get returns the digest with the given ID and its retained recorder (nil
// for untraced runs); ok is false when the ID is unknown or evicted.
func (r *RunRegistry) Get(id string) (RunDigest, *Recorder, bool) {
	if r == nil {
		return RunDigest{}, nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.entries) - 1; i >= 0; i-- {
		if r.entries[i].d.ID == id {
			return r.entries[i].d, r.entries[i].rec, true
		}
	}
	return RunDigest{}, nil, false
}
