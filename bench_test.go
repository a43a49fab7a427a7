// An external test package so internal/bench may itself import musketeer
// (every experiment runs through musketeer.Workflow) without a cycle
// through this file.
package musketeer_test

// One testing.B benchmark per paper table and figure. Each benchmark
// regenerates the corresponding experiment through the full pipeline
// (front-end → IR → optimizer → partitioner → codegen → simulated
// engines) and reports how long the regeneration takes; the experiment's
// actual series are printed by `go run ./cmd/mkbench` and recorded in
// EXPERIMENTS.md. Run with:
//
//	go test -bench=. -benchmem
import (
	"testing"

	"musketeer/internal/bench"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := exp.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s: empty table", id)
		}
	}
}

func BenchmarkFig02aProject(b *testing.B)           { benchExperiment(b, "fig2a") }
func BenchmarkFig02bJoin(b *testing.B)              { benchExperiment(b, "fig2b") }
func BenchmarkFig03PageRankMotivation(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig07TPCH(b *testing.B)               { benchExperiment(b, "fig7") }
func BenchmarkFig08PageRankMapping(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkFig08cEfficiency(b *testing.B)        { benchExperiment(b, "fig8c") }
func BenchmarkFig09CrossCommunity(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkFig10NetflixOverhead(b *testing.B)    { benchExperiment(b, "fig10") }
func BenchmarkFig11PageRankOverhead(b *testing.B)   { benchExperiment(b, "fig11") }
func BenchmarkFig12aMerging(b *testing.B)           { benchExperiment(b, "fig12a") }
func BenchmarkFig12bMerging(b *testing.B)           { benchExperiment(b, "fig12b") }
func BenchmarkFig13Partitioning(b *testing.B)       { benchExperiment(b, "fig13") }
func BenchmarkFig14MappingQuality(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15SSSPKMeans(b *testing.B)         { benchExperiment(b, "fig15") }
func BenchmarkFig16Heuristic(b *testing.B)          { benchExperiment(b, "fig16") }
func BenchmarkTab01Calibration(b *testing.B)        { benchExperiment(b, "tab1") }
func BenchmarkTab03Features(b *testing.B)           { benchExperiment(b, "tab3") }
func BenchmarkSec7StudentJoin(b *testing.B)         { benchExperiment(b, "sec7") }
func BenchmarkExtFaults(b *testing.B)               { benchExperiment(b, "ext-faults") }
