package core

import (
	"fmt"

	"musketeer/internal/analysis"
	"musketeer/internal/cluster"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
)

// AutoMap picks back-end execution engines automatically (paper §5.2): it
// runs the DAG partitioning algorithm with every available engine in the
// candidate set and returns the cheapest partitioning, which may combine
// engines across jobs (§6.3). The analyzer's engine-feasibility pass runs
// first, so an operator no candidate engine can execute is rejected with a
// per-operator diagnostic instead of surfacing as a failed search.
func AutoMap(dag *ir.DAG, est *Estimator, engs []*engines.Engine) (*Partitioning, error) {
	if err := analysis.CheckEngines(dag, engs).Err(); err != nil {
		return nil, err
	}
	return Partition(dag, est, engs)
}

// SeedView returns an estimator over the same DAG, cluster, and input
// sizes but with no history and no calibration evidence — the estimates a
// first-run planner would have produced. AutoMap re-scores continuously as
// evidence accumulates; SeedView is the fixed pre-learning baseline those
// re-scored choices are compared against (the Explain learning delta).
// Returns ok=false when the estimator has no input sizes to re-propagate.
func (e *Estimator) SeedView() (*Estimator, bool) {
	if len(e.inputs) == 0 {
		return nil, false
	}
	sv, err := NewEstimator(e.id, nil, e.Cluster, NewHistory())
	if err != nil {
		return nil, false
	}
	// A fresh estimator has nothing memoized yet, and inputs is written only
	// while an estimator is built: sharing it and sizing from it is safe.
	sv.chaos, sv.inputs = e.chaos, e.inputs
	if err := sv.propagate(sv.id.DAG, nil); err != nil {
		return nil, false
	}
	return sv, true
}

// PerOperatorPartitioning builds the merging-disabled partitioning: every
// operator becomes its own job on the given engine. This is both the
// Fig 12 ablation baseline and the "operator-by-operator profiling" run
// that seeds full workflow history (§6.7).
func PerOperatorPartitioning(dag *ir.DAG, est *Estimator, eng *engines.Engine) (*Partitioning, error) {
	var jobs []Assignment
	var total cluster.Seconds
	for _, op := range computeOps(dag) {
		frag, err := ir.NewFragment(dag, []*ir.Op{op})
		if err != nil {
			return nil, err
		}
		c := est.FragmentCost(frag, eng)
		if c == Infeasible {
			return nil, fmt.Errorf("core: %s cannot run %s alone", eng.Name(), op)
		}
		job, err := est.assignment(frag, eng, c)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job)
		total += c
	}
	return &Partitioning{Jobs: jobs, Cost: total}, nil
}

// DecisionTree is the baseline mapper the paper compares against (§6.7):
// a hand-built tree over back-end features and workload characteristics.
// Its weaknesses are the point — fixed thresholds, one engine for the whole
// workflow, and no awareness of operator merging or shared scans.
func DecisionTree(dag *ir.DAG, est *Estimator, reg map[string]*engines.Engine) (*engines.Engine, error) {
	var inputBytes int64
	for _, op := range dag.Ops {
		if op.Type == ir.OpInput {
			inputBytes += est.Size(op)
		}
	}
	iterative := false
	for _, op := range dag.Ops {
		if op.Type == ir.OpWhile {
			iterative = true
		}
	}
	const gb = 1e9
	pick := func(name string) (*engines.Engine, error) {
		e, ok := reg[name]
		if !ok {
			return nil, fmt.Errorf("core: decision tree wants %q, not registered", name)
		}
		return e, nil
	}
	switch {
	case dag.IsGraphWorkflow() && float64(inputBytes) < 2*gb:
		return pick("graphchi")
	case dag.IsGraphWorkflow():
		return pick("powergraph")
	case float64(inputBytes) < 0.5*gb:
		return pick("metis")
	case iterative:
		return pick("spark")
	default:
		return pick("hadoop")
	}
}

// DecisionTreePartition maps the whole workflow onto the decision tree's
// single choice. Graph-only engines can only run the idiom itself, so
// surrounding relational operators fall back to Hadoop (the tree's default
// general-purpose system), mimicking a user who follows the tree's advice.
func DecisionTreePartition(dag *ir.DAG, est *Estimator, reg map[string]*engines.Engine) (*Partitioning, error) {
	choice, err := DecisionTree(dag, est, reg)
	if err != nil {
		return nil, err
	}
	engs := []*engines.Engine{choice}
	if choice.Paradigm() == engines.ParadigmVertexCentric {
		if h, ok := reg["hadoop"]; ok {
			engs = append(engs, h)
		}
	}
	return PartitionDynamic(dag, est, engs)
}
