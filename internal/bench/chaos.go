package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"musketeer"
	"musketeer/internal/chaos"
	"musketeer/internal/engines"
	"musketeer/internal/workloads"
)

// The chaos benchmark measures makespan inflation under fault injection:
// one iterative workflow executed on each engine at increasing fault rates,
// with the full recovery machinery live — whole-job crashes retried by the
// scheduler, worker failures recovered per Table 3's mechanism, stragglers
// speculatively re-executed, DFS reads re-fetched. Every run is seeded, so
// the artifact regenerates byte-identically (modulo metadata) on one
// machine and comparably on another.

// ChaosRun is one (engine, fault rate) cell.
type ChaosRun struct {
	Engine       string  `json:"engine"`
	Mechanism    string  `json:"mechanism"`
	FaultsPerHr  float64 `json:"faults_per_hour"`
	MakespanS    float64 `json:"makespan_s"`
	InflationPct float64 `json:"inflation_pct"` // vs the engine's fault-free makespan
	Failures     int     `json:"failures"`
	Checkpoints  int     `json:"checkpoints"`
	Stragglers   int     `json:"stragglers"`
	DFSRetries   int     `json:"dfs_retries"`
	JobRetries   int64   `json:"job_retries"`
	Speculated   int64   `json:"speculated"`
}

// ChaosReport is the benchmark's JSON artifact (BENCH_chaos.json).
type ChaosReport struct {
	Description string     `json:"description"`
	Meta        Meta       `json:"meta"`
	Workflow    string     `json:"workflow"`
	Seed        int64      `json:"seed"`
	Runs        []ChaosRun `json:"runs"`
}

// chaosRates are the swept fault rates (expected worker failures per
// simulated hour across the cluster).
var chaosRates = []float64{0, 6, 30, 120}

// chaosEngines are the swept back-ends, one per Table 3 recovery mechanism.
var chaosEngines = []string{"naiad", "spark", "hadoop", "metis"}

// RunChaos sweeps fault rate × engine over 5-iteration PageRank on the
// 100-node cluster and reports makespan inflation per recovery mechanism.
func RunChaos(seed int64) (*ChaosReport, error) {
	w := workloads.PageRank(workloads.Orkut(), 5)
	rep := &ChaosReport{
		Description: "makespan inflation vs fault rate per engine: 5-iteration PageRank (Orkut), EC2-100, seeded chaos plan (job crashes, worker faults, stragglers + speculation, DFS read retries)",
		Meta:        CollectMeta(fmt.Sprintf("seed=%d", seed)),
		Workflow:    w.Name,
		Seed:        seed,
	}
	baseline := map[string]float64{}
	for _, rate := range chaosRates {
		for _, engine := range chaosEngines {
			run, err := runChaosOn(w, engine, seed, rate)
			if err != nil {
				return nil, fmt.Errorf("bench: chaos %s @%g/h: %w", engine, rate, err)
			}
			if rate == 0 {
				baseline[engine] = run.MakespanS
			}
			if b := baseline[engine]; b > 0 {
				run.InflationPct = 100 * (run.MakespanS - b) / b
			}
			rep.Runs = append(rep.Runs, *run)
		}
	}
	return rep, nil
}

// runChaosOn executes the workload once on the named engine under the
// seeded plan, with retries and speculation live.
func runChaosOn(w *workloads.Workload, engine string, seed int64, rate float64) (*ChaosRun, error) {
	m := musketeer.New(musketeer.EC2(100), musketeer.WithChaos(chaos.Default(seed, rate)), musketeer.WithRetries(5))
	wf, err := stage(m, w, engines.ModeOptimized)
	if err != nil {
		return nil, err
	}
	res, err := wf.ExecuteOn(engine)
	if err != nil {
		return nil, err
	}
	f := faults(res)
	return &ChaosRun{
		Engine:      engine,
		Mechanism:   res.Partitioning.Jobs[0].Engine.FaultTolerance().String(),
		FaultsPerHr: rate,
		MakespanS:   float64(res.Makespan),
		Failures:    f.failures,
		Checkpoints: f.checkpoints,
		Stragglers:  f.stragglers,
		DFSRetries:  f.dfsRetries,
		JobRetries:  m.Metrics().Counter("sched_job_retries_total").Value(),
		Speculated:  m.Metrics().Counter("sched_speculative_attempts_total").Value(),
	}, nil
}

// WriteChaosJSON writes the report as indented JSON.
func WriteChaosJSON(path string, rep *ChaosReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
