package bench

import (
	"fmt"
	"testing"

	"musketeer/internal/cluster"
	"musketeer/internal/core"
	"musketeer/internal/dfs"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
	"musketeer/internal/workloads"
)

// BenchmarkPartitionExhaustive measures the exhaustive search on growing
// prefixes of the extended NetFlix workflow. A fresh estimator per iteration
// keeps the fragment-cost cache cold, so the numbers reflect a full search,
// not cache replay.
func BenchmarkPartitionExhaustive(b *testing.B) {
	c := cluster.EC2(100)
	engs := engines.StandardEngines()
	for _, n := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			w := workloads.NetflixExtended(n)
			fs := dfs.New()
			if err := w.Stage(fs); err != nil {
				b.Fatal(err)
			}
			dag, err := w.Build()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				est, err := core.NewEstimator(ir.Identify(dag), fs, c, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := core.PartitionExhaustive(dag, est, engs, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
