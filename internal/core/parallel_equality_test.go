package core

import (
	"testing"

	"musketeer/internal/cluster"
	"musketeer/internal/engines"
	"musketeer/internal/exec"
	"musketeer/internal/ir"
)

// TestCrossEngineEqualityParallelKernels re-runs the cross-engine decoupling
// property with every pipeline split in two halves (join probe, aggregate,
// filter), so small test relations exercise the concurrent code. Results
// must still be identical across engines and identical to the serial paths'
// history.
func TestCrossEngineEqualityParallelKernels(t *testing.T) {
	oldPT := exec.ParallelThreshold
	exec.ParallelThreshold = 1
	defer func() {
		exec.ParallelThreshold = oldPT
	}()

	c := cluster.Local(7)
	engineNames := []string{"naiad", "spark", "serial", "hadoop", "metis"}
	reg := engines.Registry()
	for seed := int64(300); seed < 310; seed++ {
		rw, err := genRandomWorkflow(seed)
		if err != nil {
			t.Fatal(err)
		}
		sinks := rw.dag.Sinks()
		fingerprints := map[string]string{}
		for _, name := range engineNames {
			fs := rw.cloneFS(t)
			est, err := NewEstimator(ir.Identify(rw.dag), fs, c, nil)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			part, err := PartitionDynamic(rw.dag, est, []*engines.Engine{reg[name]})
			if err != nil {
				t.Fatalf("seed %d on %s: %v", seed, name, err)
			}
			runner := &Runner{Ctx: engines.RunContext{DFS: fs, Cluster: c}, Mode: engines.ModeOptimized}
			if _, err := runner.Execute(ir.Identify(rw.dag), part); err != nil {
				t.Fatalf("seed %d on %s: %v", seed, name, err)
			}
			var combined string
			for _, sink := range sinks {
				out, err := fs.ReadRelation(sink.Out)
				if err != nil {
					t.Fatalf("seed %d on %s: sink %s: %v", seed, name, sink.Out, err)
				}
				combined += sink.Out + ":" + out.Fingerprint() + "\n"
			}
			fingerprints[name] = combined
		}
		ref := fingerprints[engineNames[0]]
		for _, name := range engineNames[1:] {
			if fingerprints[name] != ref {
				t.Errorf("seed %d: %s results differ from %s with parallel kernels", seed, name, engineNames[0])
			}
		}
	}
}
