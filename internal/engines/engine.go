// Package engines implements Musketeer's seven back-end execution engines:
// Hadoop MapReduce, Spark, Naiad, PowerGraph, GraphChi, Metis and serial C
// (paper Table 3, bold rows).
//
// Every engine genuinely executes the jobs generated for it — operator
// semantics come from internal/exec, and data moves through the simulated
// DFS at job boundaries — so cross-engine result equality is a tested
// invariant. What distinguishes engines is (i) which IR fragments they can
// run as a single job (paradigm restrictions and mergeability, §4.3.2),
// (ii) the physical plans and textual code generated for them (§4.3), and
// (iii) a calibrated performance profile that converts the logical data
// volumes a job moves into simulated makespan (§5.2, Table 1). The profile
// constants and their provenance live in profiles.go.
package engines

import (
	"fmt"
	"math"
	"slices"

	"musketeer/internal/cluster"
	"musketeer/internal/ir"
)

// Paradigm classifies an engine's computation model.
type Paradigm uint8

const (
	// ParadigmMapReduce engines run map*-shuffle-reduce* jobs: at most one
	// by-key shuffle per job (Hadoop, Metis).
	ParadigmMapReduce Paradigm = iota
	// ParadigmGeneral engines execute arbitrary operator DAGs, including
	// native iteration, in a single job (Spark, Naiad, serial C).
	ParadigmGeneral
	// ParadigmVertexCentric engines only run detected graph idioms
	// (PowerGraph, GraphChi).
	ParadigmVertexCentric
)

// String names the paradigm.
func (p Paradigm) String() string {
	switch p {
	case ParadigmMapReduce:
		return "mapreduce"
	case ParadigmGeneral:
		return "general"
	default:
		return "vertex-centric"
	}
}

// Profile is an engine's calibrated performance model. Rates are per node
// in MB/s of *logical* data; see profiles.go for the calibration story.
type Profile struct {
	// PerJobOverheadS is the fixed job submission/startup/teardown cost.
	PerJobOverheadS float64
	// PullMBps / PushMBps are per-node DFS streaming rates (Table 1 PULL
	// and PUSH).
	PullMBps, PushMBps float64
	// LoadMBps is the per-node rate of the engine's ingest transformation
	// (Spark's RDD materialization, PowerGraph's partitioning, GraphChi's
	// shard construction); zero means no load phase (Table 1 LOAD).
	LoadMBps float64
	// ProcMBps is the per-node operator processing rate on in-memory data
	// (Table 1 PROCESS).
	ProcMBps float64
	// GraphProcMBps, when non-zero, replaces ProcMBps for detected graph
	// idioms (vertex-centric engines move edges, not tuples).
	GraphProcMBps float64
	// SingleMachine engines use exactly one node regardless of cluster.
	SingleMachine bool
	// MaxUsefulNodes caps scaling (PowerGraph sees no benefit beyond 16
	// nodes in the paper); zero means unlimited.
	MaxUsefulNodes int
	// NativeIteration engines run a WHILE inside one job; others re-submit
	// body jobs per iteration.
	NativeIteration bool
	// NonAssocGroupBy models Lindi's high-level GROUP BY, which collects
	// all data on a single machine before applying the operator
	// (paper §6.2); aggregation then proceeds at single-node rate.
	NonAssocGroupBy bool
	// ShuffleMBps is the per-node effective network shuffle rate for
	// by-key repartitioning (serialization + transfer + spill); zero means
	// shuffles are free (single-machine engines, and vertex-centric
	// engines whose messaging is already in GraphProcMBps).
	ShuffleMBps float64
	// ShuffleFactor multiplies the PROCESS volume of shuffle operators:
	// MapReduce-paradigm engines pay extra passes for partition/sort/
	// merge on joins and aggregations. Zero means 1 (no surcharge).
	ShuffleFactor float64
	// LoadOutputs extends the LOAD phase to generated data: Spark
	// materializes operator results into in-memory RDDs, so large
	// intermediates cost ingest-side work too.
	LoadOutputs bool
	// CrossJoinBlowup multiplies a CROSS JOIN output's contribution to the
	// memory working set: Spark's cartesian() creates a task per partition
	// pair and buffers both sides, which is what OOMs the paper's k-means
	// (§6.7). Zero means 1.
	CrossJoinBlowup float64
	// GraphMemFactor scales a graph's edge-list size to the engine's
	// in-memory representation (PowerGraph's vertex/edge structures are
	// several times the on-disk edge list); used with MemCapGB to decide
	// whether the graph fits. Zero means 1.
	GraphMemFactor float64
	// MemCapGB is the in-memory working-set capacity (per machine for
	// single-machine engines, per node × nodes for distributed in-memory
	// engines). Zero means streaming/out-of-core: no cap.
	MemCapGB float64
	// ThrashFactor multiplies processing time when the working set
	// exceeds MemCapGB.
	ThrashFactor float64
	// CodegenTaxPct is the residual overhead of Musketeer-generated code
	// over a hand-optimized implementation for this engine (paper §6.4:
	// 5–30%, near zero for Naiad).
	CodegenTaxPct float64
	// NaiveFactor multiplies processing time for naive (unfused,
	// no shared scans, no type inference) generated code.
	NaiveFactor float64
	// CheckpointS is the engine's default periodic-checkpoint interval in
	// simulated seconds, for engines whose fault tolerance rolls back to a
	// global checkpoint (Table 3: Naiad, PowerGraph). Zero means the chaos
	// plan's (or the global 60s) default.
	CheckpointS float64
}

// Engine is one back-end execution engine instance.
type Engine struct {
	name     string
	paradigm Paradigm
	prof     Profile
	dialect  dialect
}

// Name returns the engine's registry name.
func (e *Engine) Name() string { return e.name }

// Paradigm returns the engine's computation model.
func (e *Engine) Paradigm() Paradigm { return e.paradigm }

// Profile returns the calibrated performance model.
func (e *Engine) Profile() Profile { return e.prof }

// EffectiveNodes returns how many cluster nodes the engine actually uses.
func (e *Engine) EffectiveNodes(c *cluster.Cluster) int {
	n := c.Nodes
	if e.prof.SingleMachine {
		return 1
	}
	if e.prof.MaxUsefulNodes > 0 && n > e.prof.MaxUsefulNodes {
		return e.prof.MaxUsefulNodes
	}
	return n
}

// RateNodes returns the node count used for rate scaling: distributed
// engines scale sublinearly (stragglers, task scheduling, coordination), so
// aggregate throughput grows as n^0.75 — which is what makes per-job
// overheads matter less and crossover points land where the paper's do.
func (e *Engine) RateNodes(c *cluster.Cluster) float64 {
	n := e.EffectiveNodes(c)
	if n <= 1 {
		return 1
	}
	return math.Pow(float64(n), 0.75)
}

// ValidFragment reports whether the fragment can execute as a single job on
// this engine: ValidOps over its non-INPUT operators.
func (e *Engine) ValidFragment(f *ir.Fragment) error { return e.ValidOps(f.ComputeOps()) }

// ValidOps reports whether the compute (non-INPUT) operators, given in
// topological order, can execute as a single job on this engine: nil, or
// an error saying why not. It formats the verdict of the one rule Accepts
// also asks, so the two cannot disagree; formatting a refusal allocates.
func (e *Engine) ValidOps(compute []*ir.Op) error {
	switch v := e.rule(compute); v.why {
	case accepted:
		return nil
	case refusedEmpty:
		return fmt.Errorf("%s: empty fragment", e.name)
	case refusedVertexMerge:
		return fmt.Errorf("%s: vertex-centric back-end cannot merge %d operators", e.name, v.n)
	case refusedNotGraph:
		return fmt.Errorf("%s: only graph idioms are expressible", e.name)
	case refusedNotGAS:
		return fmt.Errorf("%s: WHILE %s does not match the GAS idiom", e.name, v.a.Out)
	case refusedWhileMerged:
		return fmt.Errorf("%s: WHILE cannot merge with other operators", e.name)
	case refusedTwoShuffles:
		return fmt.Errorf("%s: shuffles %s and %s need separate jobs", e.name, v.a.Type, v.b.Type)
	default: // refusedShuffles
		return fmt.Errorf("%s: %d shuffle operators in one job", e.name, v.n)
	}
}

// Accepts reports whether the compute operators can execute as a single
// job on this engine: ValidOps without the reason. The partition search
// asks it once per candidate job and engine, and most candidates are
// refused, so it reads the operators in place and allocates nothing.
func (e *Engine) Accepts(compute []*ir.Op) bool { return e.rule(compute).why == accepted }

// reason names the mergeability rule a job breaks; accepted breaks none.
type reason uint8

const (
	accepted reason = iota
	refusedEmpty
	refusedVertexMerge
	refusedNotGraph
	refusedNotGAS
	refusedWhileMerged
	refusedTwoShuffles
	refusedShuffles
)

// verdict is the rule's answer: the reason, and the operator count and
// operators (the WHILE, or the two shuffles) its message names.
type verdict struct {
	why  reason
	n    int
	a, b *ir.Op
}

// rule applies the per-back-end operator mergeability rules of paper
// §4.3.2 to compute operators in topological order:
//
//   - Vertex-centric engines accept exactly one operator: a WHILE whose
//     body matches the graph idiom.
//   - MapReduce engines accept either a WHILE on its own (the body is then
//     sub-partitioned and driven iteration by iteration), or a WHILE-free
//     job with at most one shuffle operator.
//   - General dataflow engines accept any job.
func (e *Engine) rule(compute []*ir.Op) verdict {
	if len(compute) == 0 {
		return verdict{why: refusedEmpty}
	}
	var while *ir.Op
	for _, op := range compute {
		if op.Type == ir.OpWhile {
			while = op
			break
		}
	}
	switch e.paradigm {
	case ParadigmVertexCentric:
		switch {
		case len(compute) != 1:
			return verdict{why: refusedVertexMerge, n: len(compute)}
		case while == nil:
			return verdict{why: refusedNotGraph}
		case ir.DetectGraphIdiom(while) == nil:
			return verdict{why: refusedNotGAS, a: while}
		}
	case ParadigmMapReduce:
		if while != nil {
			if len(compute) != 1 {
				return verdict{why: refusedWhileMerged}
			}
			return verdict{}
		}
		// One shuffle per job — except the classic reduce-side pattern:
		// a JOIN immediately aggregated on the same key columns shares the
		// single map-shuffle-reduce round (as Pig/Hive plan it).
		var a, b *ir.Op
		shuffles := 0
		for _, op := range compute {
			if !ir.IsShuffleOp(op.Type) {
				continue
			}
			switch shuffles {
			case 0:
				a = op
			case 1:
				b = op
			}
			shuffles++
		}
		switch {
		case shuffles <= 1:
		case shuffles > 2:
			return verdict{why: refusedShuffles, n: shuffles}
		case a.Type != ir.OpJoin || b.Type != ir.OpAgg || !slices.Equal(a.Params.LeftCols, b.Params.GroupBy):
			return verdict{why: refusedTwoShuffles, a: a, b: b}
		}
	}
	return verdict{}
}

// Registry returns the standard seven engines plus the Lindi-on-Naiad
// native baseline, keyed by name.
func Registry() map[string]*Engine {
	all := map[string]*Engine{}
	for _, e := range StandardEngines() {
		all[e.Name()] = e
	}
	all["naiad-lindi"] = NaiadLindi()
	return all
}
