package core

import (
	"fmt"
	"math"

	"musketeer/internal/analysis"
	"musketeer/internal/chaos"
	"musketeer/internal/cluster"
	"musketeer/internal/dfs"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
)

// Infeasible is the cost of a partition containing non-mergeable operators
// (paper §5.1: "the cost of any partition containing non-mergeable
// operators is infinite").
var Infeasible = cluster.Seconds(math.Inf(1))

// DefaultIterEstimate is assumed for condition-only WHILE loops with no
// recorded iteration history.
const DefaultIterEstimate = 10

// hiBound returns the conservative first-run output-size factor of an
// operator relative to its total input volume (paper §5.2: "Musketeer
// applies conservative data size bounds... JOIN operators have unknown data
// size bounds"). Selective operators are bounded by their input; generative
// operators get deliberately pessimistic factors, which is what makes the
// first-run mapper shy away from merging past joins.
func hiBound(t ir.OpType) float64 {
	switch t {
	case ir.OpJoin:
		return 3.0
	case ir.OpCrossJoin:
		return 25.0
	case ir.OpUnion:
		return 1.0 // of the summed inputs
	case ir.OpUDF:
		return 2.0
	case ir.OpArith:
		return 1.1
	case ir.OpLimit:
		return 0.05 // top-N outputs are tiny relative to their input
	default: // SELECT, PROJECT, DISTINCT, INTERSECT, DIFFERENCE, AGG, SORT
		return 1.0
	}
}

// Estimator predicts per-operator data volumes for a workflow and scores
// fragment/engine combinations. It seeds source sizes from the DFS (the
// run-time input data size), propagates them through the DAG using
// conservative bounds, and substitutes observed ratios where workflow
// history exists.
//
// An Estimator is not safe for concurrent use: scoring fills its indexes and
// memos unlocked. Nothing shares one — every planning call builds its own
// (Workflow.estimator per Plan / Explain / Execute, SeedView per baseline,
// internal/bench per measurement) and partitions on its own goroutine. The
// History and Calibration it reads are shared, and lock for themselves.
type Estimator struct {
	Cluster *cluster.Cluster
	History *History

	// id identifies the estimated DAG (id.DAG); its operator keys, loop
	// bodies' included, key history lookups.
	id     *ir.Identity
	sizes  map[*ir.Op]int64
	iters  map[*ir.Op]int
	inputs map[string]int64 // DFS path -> effective bytes; written by NewEstimator only
	// opObs caches each operator's history observation found during size
	// propagation, so volume accounting can prefer damped measured
	// per-iteration volumes (Observation.ProcBytes et al.) over the
	// in+out structural model.
	opObs map[*ir.Op]Observation
	// chaos, when non-nil, adds each engine's expected fault-recovery cost
	// to fragment scores, so the automatic mapper prefers engines with
	// cheaper recovery mechanisms under a configured fault rate.
	chaos *chaos.Plan
	// props holds the analyzer's propagated key-uniqueness/sortedness
	// facts; shuffle surcharges are skipped for provably redundant
	// repartitions (a DISTINCT over already-unique rows, a SORT over
	// already-ordered rows, an AGG whose groups are single rows).
	props map[*ir.Op]analysis.Props
	// cal is the history's feedback-calibration state: fragment scores run
	// on its learned per-engine rates, and size propagation falls back to
	// its learned per-class selectivities where no per-operator history
	// exists. calVer is the calibration version the memo table was filled
	// under; a bump invalidates memoized choices (see syncCalibration).
	cal    *Calibration
	calVer uint64

	// indexes holds one search index per partitioned DAG: the workflow's,
	// built with the estimator, and each WHILE body's, built when the loop is
	// first priced. An index carries the memo of cheapest engine/cost per
	// (engine set, operator set): partition searches — exhaustive branches,
	// the DP heuristic's O(n²) segments, and PartitionDynamicMulti's repeated
	// orders — evaluate the same candidates over and over. engSets interns
	// engine sets (by engsKey) to the ordinals those memos are keyed on.
	indexes map[*ir.DAG]*searchIndex
	engSets map[string]uint32

	// searchExplored counts fragment/engine-set evaluations actually
	// scored; searchMemoHits counts evaluations answered from a memo.
	// Together they measure how hard the partition search worked — exported
	// through SearchStats for the observability layer.
	searchExplored, searchMemoHits int64
}

// SearchStats reports how many candidate fragments the partition search
// scored (explored) and how many repeats the memo table absorbed (memoHits)
// since the estimator was built.
func (e *Estimator) SearchStats() (explored, memoHits int64) {
	return e.searchExplored, e.searchMemoHits
}

// NewEstimator analyses the identified DAG against the stored inputs and
// history.
func NewEstimator(id *ir.Identity, fs *dfs.DFS, c *cluster.Cluster, h *History) (*Estimator, error) {
	if h == nil {
		h = NewHistory()
	}
	dag := id.DAG
	est := &Estimator{
		Cluster: c, History: h, id: id,
		sizes:   map[*ir.Op]int64{},
		iters:   map[*ir.Op]int{},
		inputs:  map[string]int64{},
		opObs:   map[*ir.Op]Observation{},
		indexes: map[*ir.DAG]*searchIndex{},
		engSets: map[string]uint32{},
		props:   analysis.PropagateProperties(dag),
		cal:     h.Calibration(),
	}
	est.calVer = est.cal.Version()
	if fs != nil {
		for _, path := range collectInputPaths(dag, nil) {
			st, err := fs.Stat(path)
			if err != nil {
				return nil, fmt.Errorf("core: input %q: %w", path, err)
			}
			est.inputs[path] = st.EffectiveBytes()
		}
		if err := est.propagate(dag, nil); err != nil {
			return nil, err
		}
	}
	if _, err := est.index(dag); err != nil {
		return nil, err
	}
	return est, nil
}

// index returns the search index of d, building it on first use.
func (e *Estimator) index(d *ir.DAG) (*searchIndex, error) {
	if x := e.indexes[d]; x != nil {
		return x, nil
	}
	x, err := newSearchIndex(e, d)
	if err != nil {
		return nil, err
	}
	e.indexes[d] = x
	return x, nil
}

// engineSet interns an engine set to the ordinal its memo entries carry.
func (e *Estimator) engineSet(engs []*engines.Engine) uint32 {
	key := engsKey(engs)
	ord, ok := e.engSets[key]
	if !ok {
		ord = uint32(len(e.engSets))
		e.engSets[key] = ord
	}
	return ord
}

// resetMemo drops every memoized choice — whatever changed (fault rates,
// learned rates), the next score is computed afresh — and stamps the memo
// with the calibration version it will be refilled under. Sizes are fixed
// once the estimator is built, so the size snapshots stay.
func (e *Estimator) resetMemo() {
	for _, x := range e.indexes {
		x.memo = fragMemo{}
	}
	e.calVer = e.cal.Version()
}

// WithChaos makes fragment scores include the engine's expected recovery
// cost under the plan's fault rates (nil removes the term). Recovery terms
// change fragment costs, so memoized choices are dropped.
func (e *Estimator) WithChaos(p *chaos.Plan) *Estimator {
	e.chaos = p
	e.resetMemo()
	return e
}

func collectInputPaths(d *ir.DAG, acc []string) []string {
	for _, op := range d.Ops {
		if op.Type == ir.OpInput && op.Params.Path != "" {
			acc = append(acc, op.Params.Path)
		}
		if op.Params.Body != nil {
			acc = collectInputPaths(op.Params.Body, acc)
		}
	}
	return acc
}

// propagate computes estimated sizes for every op of d. For WHILE bodies,
// outerSizes binds body input names to outer estimates.
func (e *Estimator) propagate(d *ir.DAG, outerSizes map[string]int64) error {
	ops, err := d.TopoSort()
	if err != nil {
		return err
	}
	for _, op := range ops {
		switch op.Type {
		case ir.OpInput:
			if outerSizes != nil {
				if s, ok := outerSizes[op.Out]; ok {
					e.sizes[op] = s
					continue
				}
			}
			s, ok := e.inputs[op.Params.Path]
			if !ok {
				return fmt.Errorf("core: no size for input %q (path %q)", op.Out, op.Params.Path)
			}
			e.sizes[op] = s
		case ir.OpWhile:
			if err := e.propagateWhile(op); err != nil {
				return err
			}
		default:
			var in int64
			for _, p := range op.Inputs {
				in += e.sizes[p]
			}
			// Refinement ladder (§5.2 made continuous): a per-operator
			// observation of what this operator computes beats the learned
			// per-class selectivity, which beats the conservative first-run
			// bound. Within an observation, a damped measured volume beats
			// the ratio (ratios compound wrongly through iterative bodies).
			if obs, ok := e.History.Lookup(e.id.Key(op)); ok {
				e.opObs[op] = obs
				if obs.OutBytes > 0 {
					e.sizes[op] = obs.OutBytes
				} else {
					e.sizes[op] = int64(obs.OutRatio * float64(in))
				}
			} else if sel, ok := e.cal.Selectivity(op.Type); ok {
				e.sizes[op] = int64(sel * float64(in))
			} else {
				e.sizes[op] = int64(hiBound(op.Type) * float64(in))
			}
		}
	}
	return nil
}

func (e *Estimator) propagateWhile(w *ir.Op) error {
	body := w.Params.Body
	outer := map[string]int64{}
	for _, in := range w.Inputs {
		outer[in.Out] = e.sizes[in]
	}
	if err := e.propagate(body, outer); err != nil {
		return err
	}
	iters := w.Params.MaxIter
	if iters <= 0 || iters > ir.MaxCondIters {
		iters = DefaultIterEstimate
	}
	if obs, ok := e.History.Lookup(e.id.Key(w)); ok && obs.Iterations > 0 {
		iters = obs.Iterations
	}
	e.iters[w] = iters
	res := body.ByOut(w.ResultRelation())
	if res == nil {
		return fmt.Errorf("core: WHILE %s has no result relation", w.Out)
	}
	e.sizes[w] = e.sizes[res]
	return nil
}

// Size returns the estimated output volume of an operator.
func (e *Estimator) Size(op *ir.Op) int64 { return e.sizes[op] }

// Iters returns the estimated iteration count of a WHILE operator:
// DefaultIterEstimate for a loop size propagation never reached.
func (e *Estimator) Iters(op *ir.Op) int {
	if n := e.iters[op]; n != 0 {
		return n
	}
	return DefaultIterEstimate
}

// FragmentCost scores running the fragment as a single job on the engine:
// the paper's c_s(o_1..o_j). Infeasible combinations cost +Inf. It is the
// search's scorer (jobCost) given the fragment's own external inputs and
// outputs — forced outputs included — instead of the index's.
func (e *Estimator) FragmentCost(f *ir.Fragment, eng *engines.Engine) cluster.Seconds {
	x, err := e.index(f.DAG())
	if err != nil {
		return Infeasible
	}
	c, vol := x.describeFragment(f), x.volumes(e)
	pull, push := x.boundaryBytes(c, vol)
	return e.jobCost(x, vol, c, eng, pull, push)
}

// jobCost scores the described candidate as a single job on the engine,
// given the bytes it pulls and pushes (engine-independent, so computed once
// per candidate). A WHILE on an engine without native iteration is
// driver-looped: the body is partitioned for this engine and the whole
// per-iteration pipeline — job overheads and DFS materialization included —
// is paid every round, which is exactly why MapReduce-class back-ends lose
// badly on iterative workflows (§2.2, §6.2).
func (e *Estimator) jobCost(x *searchIndex, vol *opVolumes, c *candidate, eng *engines.Engine, pull, push int64) cluster.Seconds {
	if !eng.Accepts(c.ops) {
		return Infeasible
	}
	if w := c.while; w != nil && !eng.Profile().NativeIteration {
		body, err := e.bodyPlan(w, eng)
		if err != nil {
			return Infeasible
		}
		return cluster.Seconds(float64(body.Cost) * float64(e.Iters(w)))
	}
	v, depth, err := e.jobVolumes(x, vol, c, eng, pull, push)
	if err != nil {
		return Infeasible
	}
	return e.withRecovery(eng, depth, e.estimate(eng, v))
}

// bodyPlan partitions w's body for an engine that cannot iterate natively.
// It is a function of the memoized scores alone, so the plan jobCost prices
// the loop from and the plan assignment attaches are one plan: the body that
// runs is the body that was priced. Forcing the loop outputs afterwards
// leaves every job's Cost as searched.
func (e *Estimator) bodyPlan(w *ir.Op, eng *engines.Engine) (*Partitioning, error) {
	body, err := PartitionDynamic(w.Params.Body, e, []*engines.Engine{eng})
	if err != nil {
		return nil, err
	}
	return body, forceLoopOutputs(w, body)
}

// assignment completes one job of a plan — the step every constructor of a
// Partitioning ends in: a driver-looped WHILE carries its body's plan.
func (e *Estimator) assignment(f *ir.Fragment, eng *engines.Engine, cost cluster.Seconds) (Assignment, error) {
	job := Assignment{Frag: f, Engine: eng, Cost: cost}
	var err error
	if w := job.DriverLoop(); w != nil {
		job.Body, err = e.bodyPlan(w, eng)
	}
	return job, err
}

// jobVolumes returns the volumes the candidate is priced at as one job on
// the engine, and the operator executions a fault would replay. A WHILE job
// runs the loop natively: inputs pulled and the result pushed once, the
// body's operators processed every iteration.
func (e *Estimator) jobVolumes(x *searchIndex, vol *opVolumes, c *candidate, eng *engines.Engine, pull, push int64) (engines.Volumes, int, error) {
	w := c.while
	if w == nil {
		v := engines.Volumes{Pull: pull, Push: push}
		x.addOpVolumes(&v, vol, c.nums, eng, 1)
		return v, len(c.nums), nil
	}
	xb, err := e.index(w.Params.Body)
	if err != nil {
		return engines.Volumes{}, 0, err
	}
	iters := e.Iters(w)
	v := engines.Volumes{Graph: ir.DetectGraphIdiom(w) != nil, Push: e.sizes[w]}
	for _, in := range w.Inputs {
		v.Pull += e.sizes[in]
	}
	xb.addOpVolumes(&v, xb.volumes(e), xb.compute, eng, int64(iters))
	return v, len(w.Params.Body.Ops) * iters, nil
}

// estimate scores the volumes on the engine at the calibration state's
// current rates; with no observations those are the Table-1 seed.
func (e *Estimator) estimate(eng *engines.Engine, v engines.Volumes) cluster.Seconds {
	return eng.EstimateCostRates(e.Cluster, v, e.cal.Rates(eng))
}

// syncCalibration flushes the memo when the calibration version has moved
// since it was filled: learned rates change fragment scores, so cached
// choices computed on stale rates must not be reused. Called on the memo
// read path (searcher.choice); the fast path is one atomic load. Note size
// propagation is NOT redone here — sizes refresh with the next estimator,
// while rate changes take effect on the very next score.
func (e *Estimator) syncCalibration() {
	if e.calVer != e.cal.Version() {
		e.resetMemo()
	}
}

// withRecovery adds the engine's expected fault-recovery cost (paper
// Table 3's mechanism priced under the chaos plan's rates) to a predicted
// base cost. A no-op without a chaos plan, on infeasible fragments, and
// under a zero fault rate.
func (e *Estimator) withRecovery(eng *engines.Engine, depth int, base cluster.Seconds) cluster.Seconds {
	if e.chaos == nil || math.IsInf(float64(base), 1) {
		return base
	}
	return base + engines.ExpectedRecovery(e.chaos, eng, e.Cluster, depth, base)
}

// redundantShuffle reports whether the operator's repartition provably
// does no collapsing work, per the analyzer's propagated properties
// (pass 6): deduplicating already-unique rows, re-sorting already-ordered
// rows, or grouping rows that are each already their own group. The
// operator still streams its data, but pays no shuffle surcharge.
func (e *Estimator) redundantShuffle(op *ir.Op) bool {
	if len(op.Inputs) == 0 {
		return false
	}
	p, ok := e.props[op.Inputs[0]]
	if !ok {
		return false
	}
	switch op.Type {
	case ir.OpDistinct:
		return p.RowsUnique
	case ir.OpSort:
		return analysis.SortCovered(p, op.Params.SortBy, op.Params.Desc)
	case ir.OpAgg:
		return p.UniqueKey != nil && subsetOf(p.UniqueKey, op.Params.GroupBy)
	}
	return false
}

func subsetOf(xs, of []string) bool {
	for _, x := range xs {
		found := false
		for _, o := range of {
			if o == x {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
