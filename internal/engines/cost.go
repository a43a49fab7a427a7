package engines

import (
	"musketeer/internal/cluster"
	"musketeer/internal/exec"
	"musketeer/internal/ir"
)

// This file is the whole cost model (paper §5.2, Table 1). A job — a
// candidate the planner is scoring or one that just ran — is described by
// one Volumes, filled one operator at a time by Volumes.Add, and priced by
// Price, the only caller of transferTime, which is unexported so the
// bytes→seconds formula cannot be recomputed outside this package. A
// prediction and a measurement can therefore differ only in the volumes and
// in the codegen tax the planner does not price.

// transferTime returns the simulated time to move bytes at mbps aggregate
// bandwidth; zero-bandwidth transfers take zero time so optional stages
// (e.g. LOAD for engines without a load phase) cost nothing.
func transferTime(bytes int64, mbps float64) cluster.Seconds {
	if mbps <= 0 || bytes <= 0 {
		return 0
	}
	return cluster.Seconds(float64(bytes) / 1e6 / mbps)
}

// Volumes is a job's data movement, in effective bytes.
type Volumes struct {
	// Pull / Push are the job-edge DFS volumes.
	Pull, Push int64
	// Proc is the summed per-operator PROCESS volume (inputs + outputs,
	// shuffle surcharge applied, accumulated over WHILE iterations); AggProc
	// is the subset flowing through aggregation operators.
	Proc, AggProc int64
	// Gen is the summed generated (operator output) volume, which feeds
	// the LOAD phase of engines that materialize results in memory.
	Gen int64
	// Shuffle is the summed input volume of shuffle operators, moved over
	// the network by distributed engines.
	Shuffle int64
	// Peak is the largest single relation (cross-join weighted), checked
	// against the engine's memory capacity.
	Peak int64
	// Graph marks a detected graph idiom (vertex-centric PROCESS rate).
	Graph bool
}

// Add accumulates one operator of type t on engine e: in is the volume it
// read, proc what its PROCESS phase handled (in plus what it produced), gen
// the produced share of proc — all three summed over the iterations the
// operator runs — and out the size of one result. A shuffled operator pays
// the engine's partition/sort surcharge on proc and moves in across the
// network; the planner passes shuffled = false for a repartition it has
// proved redundant.
func (v *Volumes) Add(e *Engine, t ir.OpType, in, proc, gen, out int64, shuffled bool) {
	if shuffled {
		proc = int64(float64(proc) * e.shuffleSurcharge())
		v.Shuffle += in
	}
	v.Proc += proc
	if t == ir.OpAgg {
		v.AggProc += proc
	}
	v.Gen += gen
	if t == ir.OpCrossJoin {
		out = int64(float64(out) * e.crossBlowup())
	}
	v.Peak = max(v.Peak, out)
}

// addTraced accumulates the executed operators of ops, WHILE bodies
// included, from their trace entries. INPUT and WHILE bind a relation and
// process nothing themselves.
func (v *Volumes) addTraced(e *Engine, ops []*ir.Op, t *exec.Trace) {
	for _, op := range ops {
		switch {
		case op.Type == ir.OpInput:
		case op.Params.Body != nil:
			v.addTraced(e, op.Params.Body.Ops, t)
		default:
			in, proc := t.InBytes[op.ID], t.ProcBytes[op.ID]
			v.Add(e, op.Type, in, proc, proc-in, t.OutBytes[op.ID], ir.IsShuffleOp(op.Type))
		}
	}
}

// shuffleSurcharge is the PROCESS multiplier for shuffle operators (≥ 1).
func (e *Engine) shuffleSurcharge() float64 {
	if e.prof.ShuffleFactor <= 0 {
		return 1
	}
	return e.prof.ShuffleFactor
}

// crossBlowup is the cartesian working-set multiplier (≥ 1).
func (e *Engine) crossBlowup() float64 {
	if e.prof.CrossJoinBlowup <= 0 {
		return 1
	}
	return e.prof.CrossJoinBlowup
}

// Rates is the tunable-rate slice of an engine's profile: the per-node
// phase throughputs (and per-job overhead) the cost function runs on. The
// structural profile facts — paradigm flags, memory capacity, shuffle
// surcharges — stay on Profile; Rates is what feedback calibration refines
// (§5.2's Table 1 constants, made continuous).
type Rates struct {
	OverheadS     float64 `json:"overhead_s"`
	PullMBps      float64 `json:"pull_mbps"`
	LoadMBps      float64 `json:"load_mbps,omitempty"`
	ProcMBps      float64 `json:"proc_mbps"`
	GraphProcMBps float64 `json:"graph_proc_mbps,omitempty"`
	PushMBps      float64 `json:"push_mbps"`
	ShuffleMBps   float64 `json:"shuffle_mbps,omitempty"`
}

// SeedRates returns the engine's Table-1 calibrated rates — the seed a
// feedback calibration starts from, and what an executed job is priced at.
func (e *Engine) SeedRates() Rates {
	return Rates{
		OverheadS:     e.prof.PerJobOverheadS,
		PullMBps:      e.prof.PullMBps,
		LoadMBps:      e.prof.LoadMBps,
		ProcMBps:      e.prof.ProcMBps,
		GraphProcMBps: e.prof.GraphProcMBps,
		PushMBps:      e.prof.PushMBps,
		ShuffleMBps:   e.prof.ShuffleMBps,
	}
}

// CostBreakdown decomposes a job's simulated makespan into the terms of the
// cost function, in the order Total sums them.
type CostBreakdown struct {
	Overhead cluster.Seconds
	// Pull and Push move the job-edge volumes; Load is the engine's ingest
	// transformation of what it pulled.
	Pull, Load, Push cluster.Seconds
	// LoadGen is the ingest-side work on generated data (LoadOutputs
	// engines).
	LoadGen cluster.Seconds
	// Shuffle is the network repartitioning of shuffle-operator inputs;
	// Collect moves a NonAssocGroupBy engine's aggregation input onto one
	// machine over that node's link.
	Shuffle, Collect cluster.Seconds
	Proc             cluster.Seconds
}

// Total sums the terms. The order is the planner's and is part of the
// contract: every plan golden pins the bits of this sum, and a different
// association flips exact ties between candidate partitionings.
func (c CostBreakdown) Total() cluster.Seconds {
	return c.Overhead + c.Pull + c.Load + c.Push + c.LoadGen + c.Shuffle + c.Collect + c.Proc
}

// Price is the cost function: PULL and PUSH at the job's edges, LOAD for
// engines with an ingest transformation, SHUFFLE and PROCESS per operator —
// paid once per operator, while merging lets all operators share a single
// PULL/LOAD/PUSH. mode adds the codegen tax to PROCESS: naive plans re-scan
// per operator, Musketeer-optimized plans carry a small residual over the
// hand-optimized baseline (§4.3, §6.4); the planner prices at ModeHand. oom
// reports that the working set exceeded the engine's memory capacity, in
// which case PROCESS includes the thrashing penalty.
func (e *Engine) Price(c *cluster.Cluster, v Volumes, r Rates, mode PlanMode) (bd CostBreakdown, oom bool) {
	fn := e.RateNodes(c)
	rate := r.ProcMBps
	if v.Graph && r.GraphProcMBps > 0 {
		rate = r.GraphProcMBps
	}
	bd = CostBreakdown{
		Overhead: cluster.Seconds(r.OverheadS),
		Pull:     transferTime(v.Pull, r.PullMBps*fn),
		Load:     transferTime(v.Pull, r.LoadMBps*fn),
		Push:     transferTime(v.Push, r.PushMBps*fn),
	}
	if e.prof.LoadOutputs {
		bd.LoadGen = transferTime(v.Gen, r.LoadMBps*fn)
	}
	if !v.Graph {
		// Graph-idiom plans communicate through the engine's vertex
		// messaging, already covered by GraphProcMBps.
		bd.Shuffle = transferTime(v.Shuffle, r.ShuffleMBps*fn)
	}
	aggNodes := fn
	if e.prof.NonAssocGroupBy {
		aggNodes = 1 // Lindi: aggregation collapses to one machine
		bd.Collect = transferTime(v.AggProc, r.ShuffleMBps)
	}
	bd.Proc = transferTime(v.Proc-v.AggProc, rate*fn) +
		transferTime(v.AggProc, rate*aggNodes)
	switch mode {
	case ModeNaive:
		bd.Proc = cluster.Seconds(float64(bd.Proc) * e.prof.NaiveFactor)
	case ModeOptimized:
		bd.Proc = cluster.Seconds(float64(bd.Proc) * (1 + e.prof.CodegenTaxPct/100))
	}
	// In-memory engines thrash once the working set — the largest relation,
	// the pulled inputs, or a graph's in-memory representation — exceeds the
	// deployment's capacity, which scales with physical nodes, not rate
	// efficiency.
	if e.prof.MemCapGB > 0 {
		peak := max(v.Peak, v.Pull)
		if v.Graph && e.prof.GraphMemFactor > 1 {
			peak = max(peak, int64(float64(v.Pull)*e.prof.GraphMemFactor))
		}
		if peak > int64(e.prof.MemCapGB*1e9*float64(e.EffectiveNodes(c))) {
			oom = true
			bd.Proc = cluster.Seconds(float64(bd.Proc) * e.prof.ThrashFactor)
		}
	}
	return bd, oom
}

// EstimateCostRates predicts a job's makespan from estimated volumes
// without executing it — the planning-time use of the cost function by the
// DAG partitioner and the automatic mapper (§5.2) — at explicit rates, so a
// calibration layer can score candidates on learned throughputs.
func (e *Engine) EstimateCostRates(c *cluster.Cluster, v Volumes, r Rates) cluster.Seconds {
	bd, _ := e.Price(c, v, r, ModeHand)
	return bd.Total()
}

// cost measures the executed job's volumes from its trace and prices them
// at the engine's seed rates and the plan's codegen mode.
func (e *Engine) cost(c *cluster.Cluster, p *Plan, res *RunResult) {
	res.Volumes.Graph = p.Iterative && p.While != nil && ir.DetectGraphIdiom(p.While) != nil
	res.Volumes.addTraced(e, p.Frag.Ops, res.Trace)
	res.Breakdown, res.OOM = e.Price(c, res.Volumes, e.SeedRates(), p.Mode)
	res.Makespan = res.Breakdown.Total()
}

// ObservedRates derives the effective per-node phase rates one executed
// job actually achieved, by inverting Price over the measured breakdown and
// the volumes it charged. Fields the job gives no clean signal for are zero
// (no data moved, thrashing run, single-machine aggregation mixing rates).
// This is the measurement half of feedback calibration: under fault-free
// runs the observed rates converge on the profile seeds, while systematic
// effects the planner does not price — codegen tax, chaos-degraded
// throughput — show up as persistent residuals the calibration layer can
// learn.
func (e *Engine) ObservedRates(c *cluster.Cluster, res *RunResult) Rates {
	fn := e.RateNodes(c)
	v, bd := res.Volumes, res.Breakdown
	mbps := func(bytes int64, secs cluster.Seconds) float64 {
		if bytes <= 0 || secs <= 0 {
			return 0
		}
		return float64(bytes) / 1e6 / float64(secs) / fn
	}
	r := Rates{
		OverheadS:   float64(bd.Overhead),
		PullMBps:    mbps(v.Pull, bd.Pull),
		PushMBps:    mbps(v.Push, bd.Push),
		ShuffleMBps: mbps(v.Shuffle, bd.Shuffle),
	}
	loadVol := v.Pull
	if e.prof.LoadOutputs {
		loadVol += v.Gen
	}
	r.LoadMBps = mbps(loadVol, bd.Load+bd.LoadGen)
	if !res.OOM && !(e.prof.NonAssocGroupBy && v.AggProc > 0) {
		// A thrashing run measures the penalty, not the rate; an aggregation
		// split across single-machine and distributed rates is not separable
		// from the breakdown alone.
		proc := mbps(v.Proc, bd.Proc)
		if v.Graph {
			r.GraphProcMBps = proc
		} else {
			r.ProcMBps = proc
		}
	}
	return r
}
