package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"musketeer"
	"musketeer/internal/core"
	"musketeer/internal/obs"
	"musketeer/internal/workloads"
)

// The accuracy benchmark measures the estimator's track record — and, run
// over several rounds, the feedback calibration loop's convergence. Every
// round executes the same auto-mapped workloads against ONE shared history
// store; after each execution the runner feeds observed phase rates and
// operator selectivities back into the calibration state, so later rounds
// plan with learned parameters. The paper's mapping quality (§6.7) depends
// directly on these predictions being usable; Fig 14's conservatism (never
// short-circuiting estimates with measured runtimes) is preserved — only
// rates and selectivities are calibrated.

// AccuracyReport is the benchmark's JSON artifact (BENCH_accuracy.json).
// Workflows and Summary describe the FINAL round (the calibrated
// steady-state, and the schema older tooling reads); Rounds and Learning
// record the convergence trajectory.
type AccuracyReport struct {
	Description string                  `json:"description"`
	Meta        Meta                    `json:"meta"`
	Workflows   []*obs.WorkflowAccuracy `json:"workflows"`
	Summary     obs.AccuracySummary     `json:"summary"`
	Rounds      []AccuracyRound         `json:"rounds,omitempty"`
	Learning    *AccuracyLearning       `json:"learning,omitempty"`
}

// AccuracyRound is one learning round's accuracy across every case.
type AccuracyRound struct {
	Round     int                     `json:"round"`
	Workflows []*obs.WorkflowAccuracy `json:"workflows"`
	Summary   obs.AccuracySummary     `json:"summary"`
}

// EngineFlip records a job that changed engine between learning rounds:
// the calibrated cost model disagreed with the seed model's choice.
type EngineFlip struct {
	Workflow string `json:"workflow"`
	Job      string `json:"job"`
	// Round is the first round planned with the new engine (1-based).
	Round int    `json:"round"`
	From  string `json:"from"`
	To    string `json:"to"`
	// BeforeActualS / AfterActualS are the job's measured simulated
	// durations on the old and new engine.
	BeforeActualS float64 `json:"before_actual_s"`
	AfterActualS  float64 `json:"after_actual_s"`
}

// AccuracyLearning summarizes the convergence trajectory.
type AccuracyLearning struct {
	Rounds int `json:"rounds"`
	// MeanAbsErrorByRound is each round's mean |workflow makespan error|.
	MeanAbsErrorByRound []float64 `json:"mean_abs_error_by_round"`
	// Converged reports whether the final round's mean |error| is below the
	// first round's (the calibration-convergence gate's condition).
	Converged bool `json:"converged"`
	// Flips lists every job whose engine assignment changed as evidence
	// accumulated.
	Flips []EngineFlip `json:"engine_flips,omitempty"`
	// Calibration is the learned state after the final round.
	Calibration *core.CalibrationSnapshot `json:"calibration,omitempty"`
}

// accuracyCases are the representative workloads: a relational query, a
// recommender join pipeline, an iterative graph computation, and an
// iterative clustering job — each auto-mapped over the standard engines.
func accuracyCases() []struct {
	name string
	w    func() *workloads.Workload
	c    musketeer.Option
} {
	return []struct {
		name string
		w    func() *workloads.Workload
		c    musketeer.Option
	}{
		{"tpch-q17-sf10/ec100", func() *workloads.Workload { return workloads.TPCHQ17(10) }, musketeer.EC2(100)},
		{"netflix-30/ec100", func() *workloads.Workload { return workloads.Netflix(30) }, musketeer.EC2(100)},
		{"pagerank-lj-5/ec16", func() *workloads.Workload { return workloads.PageRank(workloads.LiveJournal(), 5) }, musketeer.EC2(16)},
		{"kmeans-10M/ec100", func() *workloads.Workload { return workloads.KMeans(10_000_000, 100, 5) }, musketeer.EC2(100)},
	}
}

// AccuracyCaseNames lists the benchmark's workload case names.
func AccuracyCaseNames() []string {
	var names []string
	for _, cse := range accuracyCases() {
		names = append(names, cse.name)
	}
	return names
}

// RunAccuracy executes the accuracy cases for the given number of learning
// rounds (minimum 1) against one shared history + calibration store and
// aggregates every per-job and per-workflow predicted-vs-measured record
// into one report. caseFilter, when non-empty, restricts the run to cases
// whose name contains one of the given substrings.
func RunAccuracy(rounds int, caseFilter []string) (*AccuracyReport, error) {
	if rounds < 1 {
		rounds = 1
	}
	cases := accuracyCases()
	if len(caseFilter) > 0 {
		kept := cases[:0]
		for _, cse := range cases {
			for _, f := range caseFilter {
				if strings.Contains(cse.name, f) {
					kept = append(kept, cse)
					break
				}
			}
		}
		if len(kept) == 0 {
			return nil, fmt.Errorf("bench: accuracy case filter %v matches no case (have %v)", caseFilter, AccuracyCaseNames())
		}
		cases = kept
	}

	// ONE history (hence one calibration state) across all cases and all
	// rounds: rate evidence transfers across workloads, selectivity
	// evidence transfers across operator classes.
	h := core.NewHistory()
	rep := &AccuracyReport{
		Description: "Estimator accuracy: predicted workflow makespan (critical path over per-job estimated costs at planning time) vs simulated makespan, per job and per workflow, for representative auto-mapped workloads. Rounds share one history/calibration store, so later rounds plan with feedback-calibrated rates and selectivities.",
		Meta:        CollectMeta("-accuracy"),
	}
	learning := &AccuracyLearning{Rounds: rounds}
	// prevEngines maps workflow|job -> (engine, actual seconds) of the
	// previous round, for engine-flip detection.
	type jobRun struct {
		engine  string
		actualS float64
	}
	prev := map[string]jobRun{}
	for round := 1; round <= rounds; round++ {
		var workflows []*obs.WorkflowAccuracy
		for _, cse := range cases {
			res, err := runAuto(cse.w(), cse.c, musketeer.WithHistory(h))
			if err != nil {
				return nil, fmt.Errorf("bench: accuracy %s round %d: %w", cse.name, round, err)
			}
			if res.Accuracy == nil {
				return nil, fmt.Errorf("bench: accuracy %s round %d: no accuracy record", cse.name, round)
			}
			res.Accuracy.Workflow = cse.name
			workflows = append(workflows, res.Accuracy)
			for _, j := range res.Accuracy.Jobs {
				key := cse.name + "|" + j.Job
				if p, ok := prev[key]; ok && p.engine != j.Engine {
					learning.Flips = append(learning.Flips, EngineFlip{
						Workflow: cse.name, Job: j.Job, Round: round,
						From: p.engine, To: j.Engine,
						BeforeActualS: p.actualS, AfterActualS: j.ActualS,
					})
				}
				prev[key] = jobRun{engine: j.Engine, actualS: j.ActualS}
			}
		}
		summary := obs.Summarize(workflows)
		rep.Rounds = append(rep.Rounds, AccuracyRound{Round: round, Workflows: workflows, Summary: summary})
		learning.MeanAbsErrorByRound = append(learning.MeanAbsErrorByRound, summary.MeanAbsMakespanError)
	}
	final := rep.Rounds[len(rep.Rounds)-1]
	rep.Workflows, rep.Summary = final.Workflows, final.Summary
	if n := len(learning.MeanAbsErrorByRound); n > 1 {
		learning.Converged = learning.MeanAbsErrorByRound[n-1] < learning.MeanAbsErrorByRound[0]
	}
	if snap := h.Calibration().Snapshot(); snap.Version > 0 {
		learning.Calibration = &snap
	}
	rep.Learning = learning
	return rep, nil
}

// WriteAccuracyJSON writes the report as indented JSON.
func WriteAccuracyJSON(path string, rep *AccuracyReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
