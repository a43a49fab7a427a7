package bench

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestAccuracyLearningConverges(t *testing.T) {
	// The calibration loop's core promise: re-running the same workloads
	// against a shared history/calibration store shrinks estimator error
	// round over round. This is the run BENCH_accuracy.json records (`go run
	// ./cmd/mkbench -accuracy -rounds 3 -accuracy-json BENCH_accuracy.json`):
	// learning depends on the case mix, so a subset is another experiment.
	rep, err := RunAccuracy(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := rep.Learning
	if l == nil || len(l.MeanAbsErrorByRound) != 3 {
		t.Fatalf("learning trajectory missing: %+v", l)
	}
	if !l.Converged {
		t.Errorf("not converged: %v", l.MeanAbsErrorByRound)
	}
	if final, first := l.MeanAbsErrorByRound[2], l.MeanAbsErrorByRound[0]; final >= first {
		t.Errorf("round-3 mean |error| %.3f did not shrink below round-1 %.3f", final, first)
	}
	if l.Calibration == nil || l.Calibration.Version == 0 {
		t.Error("no calibration evidence accumulated")
	}
	// The report keeps the final round in the legacy top-level fields.
	if len(rep.Rounds) != 3 || rep.Summary != rep.Rounds[2].Summary {
		t.Errorf("top-level summary is not the final round's")
	}
	// No workflow's final-round |makespan error| may exceed the committed
	// baseline's by more than 25 % plus two percentage points: errors near
	// zero would make any relative allowance vanishingly strict.
	data, err := os.ReadFile("../../BENCH_accuracy.json")
	if err != nil {
		t.Fatal(err)
	}
	var base AccuracyReport
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	baseErr := map[string]float64{}
	for _, w := range base.Workflows {
		baseErr[w.Workflow] = math.Abs(w.MakespanError)
	}
	for _, w := range rep.Workflows {
		b, ok := baseErr[w.Workflow]
		if !ok {
			t.Errorf("%s has no entry in BENCH_accuracy.json", w.Workflow)
			continue
		}
		if got, allowed := math.Abs(w.MakespanError), b*1.25+0.02; got > allowed {
			t.Errorf("%s |makespan error| %.4f, allowed %.4f (baseline %.4f)", w.Workflow, got, allowed, b)
		}
	}
}

func TestAccuracyLearningFlipsEngineToFaster(t *testing.T) {
	// Pins the ISSUE's success criterion: after learning, at least one job
	// must flip to an engine that is genuinely faster (measured, not just
	// predicted). On the TPC-H case the calibrated model discovers the
	// workload is small enough for the low-overhead serial engine.
	rep, err := RunAccuracy(4, []string{"tpch"})
	if err != nil {
		t.Fatal(err)
	}
	l := rep.Learning
	if l == nil || len(l.Flips) == 0 {
		t.Fatal("no engine flip after 4 learning rounds")
	}
	fasterFlip := false
	for _, f := range l.Flips {
		if f.From == f.To || f.Round < 2 {
			t.Errorf("malformed flip record: %+v", f)
		}
		if f.AfterActualS < f.BeforeActualS {
			fasterFlip = true
		}
	}
	if !fasterFlip {
		t.Errorf("no flip landed on a measurably faster engine: %+v", l.Flips)
	}
}

func TestAccuracyCaseFilter(t *testing.T) {
	rep, err := RunAccuracy(1, []string{"kmeans"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workflows) != 1 || !strings.Contains(rep.Workflows[0].Workflow, "kmeans") {
		t.Errorf("filter kept %v", rep.Workflows)
	}
	if _, err := RunAccuracy(1, []string{"no-such-case"}); err == nil || !strings.Contains(err.Error(), "matches no case") {
		t.Errorf("bad filter error = %v", err)
	}
}
