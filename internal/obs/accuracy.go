package obs

import (
	"fmt"
	"math"
)

// JobAccuracy compares the cost model's predicted makespan for one job
// against the simulated makespan it actually took.
type JobAccuracy struct {
	Job    string `json:"job"`
	Engine string `json:"engine"`
	// PredictedS is the estimator's planning-time cost (simulated seconds);
	// ActualS the measured simulated duration.
	PredictedS float64 `json:"predicted_s"`
	ActualS    float64 `json:"actual_s"`
	// Error is the signed relative error (actual-predicted)/predicted: the
	// estimator ran long when positive, pessimistic when negative.
	Error float64 `json:"error"`
}

// WorkflowAccuracy aggregates one execution's estimator accuracy: the
// predicted critical path through the job DAG versus the measured makespan,
// plus every job's individual comparison.
type WorkflowAccuracy struct {
	Workflow string `json:"workflow,omitempty"`
	// PredictedMakespanS is the critical path through the job dependency
	// DAG using the estimator's per-job costs — the same accounting the
	// scheduler applies to measured durations.
	PredictedMakespanS float64 `json:"predicted_makespan_s"`
	ActualMakespanS    float64 `json:"actual_makespan_s"`
	// MakespanError is the signed relative makespan error.
	MakespanError float64       `json:"makespan_error"`
	Jobs          []JobAccuracy `json:"jobs"`
}

// RelError returns the signed relative error of actual against predicted,
// defined as 0 when there is no prediction to compare against.
func RelError(predicted, actual float64) float64 {
	if predicted <= 0 || math.IsInf(predicted, 0) || math.IsNaN(predicted) {
		return 0
	}
	return (actual - predicted) / predicted
}

// MeanAbsJobError averages the magnitude of the per-job errors.
func (w *WorkflowAccuracy) MeanAbsJobError() float64 {
	if w == nil || len(w.Jobs) == 0 {
		return 0
	}
	var sum float64
	for _, j := range w.Jobs {
		sum += math.Abs(j.Error)
	}
	return sum / float64(len(w.Jobs))
}

// String renders a one-line summary.
func (w *WorkflowAccuracy) String() string {
	if w == nil {
		return "<no accuracy>"
	}
	return fmt.Sprintf("predicted %.1fs actual %.1fs error %+.0f%% (jobs %d, mean |job error| %.0f%%)",
		w.PredictedMakespanS, w.ActualMakespanS, 100*w.MakespanError,
		len(w.Jobs), 100*w.MeanAbsJobError())
}

// AccuracySummary condenses a set of executions' accuracy records: how far
// off the estimator has been, on average and at worst.
type AccuracySummary struct {
	Workflows int `json:"workflows"`
	Jobs      int `json:"jobs"`
	// MeanMakespanError and MeanAbsMakespanError are the signed mean and
	// the mean magnitude of workflow-level relative errors.
	MeanMakespanError    float64 `json:"mean_makespan_error"`
	MeanAbsMakespanError float64 `json:"mean_abs_makespan_error"`
	MeanAbsJobError      float64 `json:"mean_abs_job_error"`
	// WorstAbsMakespanError is the largest workflow-level |error|.
	WorstAbsMakespanError float64 `json:"worst_abs_makespan_error"`
}

// Summarize computes the aggregate accuracy of the given executions.
func Summarize(workflows []*WorkflowAccuracy) AccuracySummary {
	var s AccuracySummary
	var jobErrSum float64
	for _, w := range workflows {
		s.Workflows++
		s.MeanMakespanError += w.MakespanError
		abs := math.Abs(w.MakespanError)
		s.MeanAbsMakespanError += abs
		if abs > s.WorstAbsMakespanError {
			s.WorstAbsMakespanError = abs
		}
		for _, j := range w.Jobs {
			s.Jobs++
			jobErrSum += math.Abs(j.Error)
		}
	}
	if s.Workflows > 0 {
		s.MeanMakespanError /= float64(s.Workflows)
		s.MeanAbsMakespanError /= float64(s.Workflows)
	}
	if s.Jobs > 0 {
		s.MeanAbsJobError = jobErrSum / float64(s.Jobs)
	}
	return s
}
