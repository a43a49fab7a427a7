package engines

import (
	"errors"
	"fmt"
	"math"

	"musketeer/internal/chaos"
	"musketeer/internal/cluster"
)

// TransientError is a fault-injected whole-job failure: the job's driver
// (or single machine) died mid-run, so the attempt produced nothing and
// can simply be re-submitted. The scheduler's retry predicate
// (IsTransient) recognizes it.
type TransientError struct {
	Job     string
	Attempt int
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("transient failure killed job %s (attempt %d)", e.Job, e.Attempt+1)
}

// IsTransient reports whether err is (or wraps) a fault-injected transient
// job failure — the retry predicate handed to the scheduler.
func IsTransient(err error) bool {
	var te *TransientError
	return errors.As(err, &te)
}

// FaultTolerance classifies how a back-end recovers from worker failure
// (the fault-tolerance column of paper Table 3).
type FaultTolerance uint8

const (
	// FTNone restarts the whole job from scratch (serial C, Metis,
	// GraphChi — single-machine systems have nothing to recover onto,
	// so a crash means rerunning).
	FTNone FaultTolerance = iota
	// FTTaskLevel re-executes only the failed node's tasks from
	// materialized intermediate state (MapReduce/Hadoop).
	FTTaskLevel
	// FTLineage recomputes lost partitions from their lineage
	// (Spark RDDs); cheaper than a restart, costlier than task retry
	// because upstream partitions may need recomputation.
	FTLineage
	// FTCheckpoint rolls back to the last global checkpoint
	// (Naiad; PowerGraph snapshots similarly).
	FTCheckpoint
)

// String names the mechanism as Table 3 does.
func (f FaultTolerance) String() string {
	switch f {
	case FTTaskLevel:
		return "task-level"
	case FTLineage:
		return "lineage"
	case FTCheckpoint:
		return "checkpoint"
	default:
		return "none"
	}
}

// FaultTolerance maps the engine to its Table 3 mechanism.
func (e *Engine) FaultTolerance() FaultTolerance {
	switch e.name {
	case "hadoop":
		return FTTaskLevel
	case "spark":
		return FTLineage
	case "naiad", "naiad-lindi", "powergraph":
		return FTCheckpoint
	default: // metis, graphchi, serial, xstream — single machine
		return FTNone
	}
}

// FaultPenalty is the simulated recovery cost of one worker failure
// striking at position t (seconds into a job of duration base) under the
// given mechanism, on an engine occupying nodes machines. This is the
// per-fault cost math of Table 3's column:
//
//   - none:        single-machine restart — all progress up to t is lost.
//   - task-level:  re-execute the failed node's tasks from materialized
//     intermediate state: base/nodes, independent of when the fault hit.
//   - lineage:     recompute the lost partitions plus the upstream lineage
//     accrued by t: (base/nodes)·(1 + depth·t/base), where depth is the
//     job's operator-chain length (more lineage to replay the deeper the
//     job and the later the fault).
//   - checkpoint:  roll every worker back to the last global checkpoint:
//     t mod interval.
//
// For a fault at the same t, checkpoint < lineage < restart whenever the
// checkpoint interval is shorter than a node's task share — the ordering
// the evaluation's recovery experiment demonstrates.
func FaultPenalty(mech FaultTolerance, nodes float64, depth int, base cluster.Seconds, t, interval float64) cluster.Seconds {
	if base <= 0 {
		return 0
	}
	if nodes < 1 {
		nodes = 1
	}
	switch mech {
	case FTTaskLevel:
		return cluster.Seconds(float64(base) / nodes)
	case FTLineage:
		return cluster.Seconds(float64(base) / nodes * (1 + float64(depth)*t/float64(base)))
	case FTCheckpoint:
		if interval <= 0 {
			interval = 60
		}
		return cluster.Seconds(math.Mod(t, interval))
	default:
		return cluster.Seconds(t)
	}
}

// Recovery reports how a job recovered from its injected task-level
// faults.
type Recovery struct {
	Mechanism FaultTolerance
	// Failures is the number of worker failures injected into the attempt.
	Failures int
	// Penalty is the simulated time the mechanism spent recovering,
	// including the steady-state checkpoint tax for FTCheckpoint engines.
	Penalty cluster.Seconds
	// Checkpoints is how many periodic checkpoints the attempt wrote.
	Checkpoints int
	// Interval is the checkpoint period used (engine profile or plan).
	Interval float64
}

// RecoverFaults draws the attempt's worker failures from the chaos plan
// and prices the engine's recovery. base is the attempt's fault-free
// duration; depth is the fragment's operator count (lineage length). The
// expected failure count scales with the job's node-time exposure —
// base × active nodes — against the cluster-wide MTBF, so a job spread
// over the whole cluster attracts proportionally more faults than a
// single-machine one.
func RecoverFaults(p *chaos.Plan, e *Engine, c *cluster.Cluster, depth int, base cluster.Seconds, job string, attempt int) Recovery {
	mech := e.FaultTolerance()
	rec := Recovery{Mechanism: mech, Interval: p.Interval(e.prof.CheckpointS)}
	if p == nil || p.MTBFSeconds <= 0 || base <= 0 {
		return rec
	}
	if mech == FTCheckpoint {
		// Checkpointing is not free even when no fault strikes: the tax is
		// what buys the cheap rollback.
		rec.Checkpoints = int(float64(base) / rec.Interval)
		rec.Penalty += cluster.Seconds(float64(rec.Checkpoints) * p.CheckpointCost())
	}
	nodes := float64(e.EffectiveNodes(c))
	expected := float64(base) * nodes / (float64(c.Nodes) * p.MTBFSeconds)
	rec.Failures = p.TaskFailures(job, attempt, expected)
	for i := 0; i < rec.Failures; i++ {
		t := p.FailurePoint(job, attempt, i) * float64(base)
		rec.Penalty += FaultPenalty(mech, nodes, depth, base, t, rec.Interval)
	}
	return rec
}

// ExpectedRecovery is the planning-time (analytic) counterpart of
// RecoverFaults: the expected simulated time a job of duration base loses
// to faults on this engine under the plan's rates, with no draws taken.
// The estimator adds it to fragment costs so the automatic mapper can
// prefer an engine with cheaper recovery under a configured fault rate.
// Second-order effects (recovery time itself attracting faults) are
// ignored.
func ExpectedRecovery(p *chaos.Plan, e *Engine, c *cluster.Cluster, depth int, base cluster.Seconds) cluster.Seconds {
	if p == nil || base <= 0 || math.IsInf(float64(base), 1) {
		return 0
	}
	mech := e.FaultTolerance()
	interval := p.Interval(e.prof.CheckpointS)
	var out float64
	if p.MTBFSeconds > 0 {
		if mech == FTCheckpoint {
			out += float64(base) / interval * p.CheckpointCost()
		}
		nodes := float64(e.EffectiveNodes(c))
		expected := float64(base) * nodes / (float64(c.Nodes) * p.MTBFSeconds)
		var per float64
		switch mech {
		case FTTaskLevel:
			per = float64(base) / nodes
		case FTLineage:
			// E[t] = base/2 ⇒ expected lineage factor 1 + depth/2.
			per = float64(base) / nodes * (1 + float64(depth)/2)
		case FTCheckpoint:
			per = interval / 2
		default:
			per = float64(base) / 2
		}
		out += expected * per
	}
	// Straggler exposure is engine-independent but still part of the
	// expected cost of running under this plan.
	if p.SlowNodeProb > 0 {
		out += p.SlowNodeProb * (p.SlowBy() - 1) * float64(base)
	}
	return cluster.Seconds(out)
}

// applyChaos folds the chaos plan's post-execution faults into the job's
// simulated account: straggler slowdown first (a slow node stretches the
// whole attempt), then task-level failures recovered per the engine's
// Table 3 mechanism. Periodic checkpoints and the recovery itself are
// placed on the attempt's simulated timeline as spans; counters land in
// the metrics registry. Caller guarantees ctx.Chaos != nil.
func applyChaos(ctx RunContext, p *Plan, res *RunResult) {
	cp := ctx.Chaos
	if cp.Straggles(res.Job, ctx.Attempt) {
		res.Straggler = true
		res.Makespan = cluster.Seconds(float64(res.Makespan) * cp.SlowBy())
		ctx.Span.SetInt("straggler", 1)
		ctx.Metrics.Counter("chaos_stragglers_total").Add(1)
	}
	rec := RecoverFaults(cp, p.Engine, ctx.Cluster, len(p.Frag.ComputeOps()), res.Makespan, res.Job, ctx.Attempt)
	res.Failures = rec.Failures
	res.Recovery = rec.Penalty
	res.Checkpoints = rec.Checkpoints
	if rec.Checkpoints > 0 && ctx.Rec != nil {
		ck := cp.CheckpointCost()
		for k := 1; k <= rec.Checkpoints; k++ {
			csp := ctx.Rec.StartSpan(ctx.Span, "checkpoint", "chaos")
			csp.SetInt("seq", int64(k))
			csp.End()
			csp.SetSim(float64(k)*rec.Interval-ck, ck)
		}
		ctx.Metrics.Counter("chaos_checkpoints_total").Add(int64(rec.Checkpoints))
	}
	if rec.Failures > 0 {
		rsp := ctx.Rec.StartSpan(ctx.Span, "recover:"+rec.Mechanism.String(), "chaos")
		rsp.SetInt("failures", int64(rec.Failures))
		rsp.End()
		// Recovery extends the attempt past its fault-free makespan.
		rsp.SetSim(float64(res.Makespan), float64(rec.Penalty))
		ctx.Metrics.Counter("chaos_task_faults_total").Add(int64(rec.Failures))
		ctx.Metrics.Histogram("chaos_recovery_s").Observe(float64(rec.Penalty))
	}
	res.Makespan += rec.Penalty
}
