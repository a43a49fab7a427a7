package core

import (
	"fmt"
	"strings"

	"musketeer/internal/cluster"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
)

// Explain renders a partitioning with the estimator's reasoning: per job,
// the chosen engine, the estimated phase volumes (pull/process/shuffle/
// push), iteration counts, and the per-engine costs that were compared. It
// is the "why did Musketeer pick this?" view exposed by
// `cmd/musketeer -explain`.
func Explain(part *Partitioning, est *Estimator, candidates []*engines.Engine) string {
	var b strings.Builder
	algo := "dynamic heuristic"
	if part.Exhaustive {
		algo = "exhaustive search"
	}
	fmt.Fprintf(&b, "partitioning: %d job(s), estimated total %v (%s)\n", len(part.Jobs), part.Cost, algo)
	// With accumulated evidence (calibration updates, or history the
	// estimator found for an operator), also render what a first-run planner
	// would have chosen, so the learning delta — pre- vs post-learning
	// engine and estimate — is visible per job.
	var seed *Estimator
	if est.cal.Version() > 0 || len(est.opObs) > 0 {
		seed, _ = est.SeedView()
	}
	for i, job := range part.Jobs {
		fmt.Fprintf(&b, "\njob %d: %s\n", i+1, job.Frag)
		writePriced(&b, "  ", est, job, job.Frag)
		if w := job.Frag.While(); w != nil {
			fmt.Fprintf(&b, "  iterative: ~%d iteration(s)", est.Iters(w))
			if ir.DetectGraphIdiom(w) != nil {
				b.WriteString(", graph idiom detected (vertex-centric back-ends eligible)")
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "  engine costs:")
		for _, eng := range candidates {
			c := est.FragmentCost(job.Frag, eng)
			cell := fmt.Sprintf(" %s=%v", eng.Name(), c)
			if c == Infeasible {
				cell = fmt.Sprintf(" %s=infeasible", eng.Name())
				if err := eng.ValidFragment(job.Frag); err != nil {
					cell += " (" + strings.TrimPrefix(err.Error(), eng.Name()+": ") + ")"
				}
			}
			if eng.Name() == job.Engine.Name() {
				cell += "*"
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
		if seed != nil {
			preEng, preCost := bestEngine(seed, job.Frag, candidates)
			post := est.FragmentCost(job.Frag, job.Engine)
			if preEng != nil && preEng.Name() != job.Engine.Name() {
				fmt.Fprintf(&b, "  learning delta: pre-learning choice %s (%v) -> calibrated choice %s (%v)\n",
					preEng.Name(), preCost, job.Engine.Name(), post)
			} else if preEng != nil {
				fmt.Fprintf(&b, "  learning delta: choice unchanged (%s), estimate %v -> %v\n",
					preEng.Name(), preCost, post)
			}
		}
	}
	return b.String()
}

// bestEngine returns the cheapest engine for a fragment.
func bestEngine(est *Estimator, f *ir.Fragment, engs []*engines.Engine) (*engines.Engine, cluster.Seconds) {
	var best *engines.Engine
	bestCost := Infeasible
	for _, e := range engs {
		if c := est.FragmentCost(f, e); c < bestCost {
			best, bestCost = e, c
		}
	}
	return best, bestCost
}

// searchedFragment returns a body job's fragment as the partition search
// priced it: the same operators, without the loop outputs forced on it since.
func searchedFragment(f *ir.Fragment) *ir.Fragment {
	if g, err := ir.NewFragment(f.DAG(), f.Ops); err == nil {
		return g
	}
	return f
}

// explainVolumes returns the volumes FragmentCost prices the fragment at on
// the engine, its forced outputs included.
func explainVolumes(est *Estimator, f *ir.Fragment, eng *engines.Engine) engines.Volumes {
	x, err := est.index(f.DAG())
	if err != nil {
		return engines.Volumes{}
	}
	c, vol := x.describeFragment(f), x.volumes(est)
	pull, push := x.boundaryBytes(c, vol)
	v, _, _ := est.jobVolumes(x, vol, c, eng, pull, push)
	return v
}

// writePriced prints what job's cost was computed from: the volumes of f
// run as one job, or for a driver-looped WHILE its body's jobs, every round.
func writePriced(b *strings.Builder, indent string, est *Estimator, job Assignment, f *ir.Fragment) {
	if job.DriverLoop() == nil || job.Body == nil {
		v := explainVolumes(est, f, job.Engine)
		fmt.Fprintf(b, "%svolumes: pull=%s proc=%s shuffle=%s push=%s\n",
			indent, mbStr(v.Pull), mbStr(v.Proc), mbStr(v.Shuffle), mbStr(v.Push))
		return
	}
	fmt.Fprintf(b, "%sdriver-looped: %d body job(s), %v a round × ~%d iterations\n",
		indent, len(job.Body.Jobs), job.Body.Cost, est.Iters(job.Frag.While()))
	for k, bj := range job.Body.Jobs {
		fmt.Fprintf(b, "%s  body job %d: %s %v\n", indent, k+1, bj.Frag, bj.Cost)
		writePriced(b, indent+"    ", est, bj, searchedFragment(bj.Frag))
	}
}

func mbStr(bytes int64) string {
	switch {
	case bytes >= 1e9:
		return fmt.Sprintf("%.1fGB", float64(bytes)/1e9)
	case bytes >= 1e6:
		return fmt.Sprintf("%.1fMB", float64(bytes)/1e6)
	default:
		return fmt.Sprintf("%dB", bytes)
	}
}
