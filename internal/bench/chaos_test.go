package bench

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestRunChaosDeterministicAndMonotone: the chaos benchmark must be a pure
// function of its seed (two runs agree exactly, and with the committed
// BENCH_chaos.json), its fault-free rows must anchor inflation at zero, and
// injected faults can only lengthen a run.
func TestRunChaosDeterministicAndMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("full fault-rate sweep")
	}
	a, err := RunChaos(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Runs, b.Runs) {
		t.Fatal("same seed produced different runs")
	}
	// BENCH_chaos.json records this run; regenerate it with
	// `go run ./cmd/mkbench -chaos -chaos-json BENCH_chaos.json`.
	data, err := os.ReadFile("../../BENCH_chaos.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed ChaosReport
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	if committed.Seed != 7 || len(committed.Runs) != len(a.Runs) {
		t.Fatalf("BENCH_chaos.json holds %d runs at seed %d, want %d at seed 7", len(committed.Runs), committed.Seed, len(a.Runs))
	}
	for i, r := range a.Runs {
		if r != committed.Runs[i] {
			t.Errorf("run %d differs from BENCH_chaos.json:\n got: %+v\nwant: %+v", i, r, committed.Runs[i])
		}
	}
	if len(a.Runs) != len(chaosRates)*len(chaosEngines) {
		t.Fatalf("%d runs, want %d", len(a.Runs), len(chaosRates)*len(chaosEngines))
	}
	inflated := false
	for _, r := range a.Runs {
		if r.FaultsPerHr == 0 && r.InflationPct != 0 {
			t.Errorf("%s fault-free row has inflation %v%%", r.Engine, r.InflationPct)
		}
		if r.InflationPct < 0 {
			t.Errorf("%s @%g/h shrank by %v%% — faults can only add cost",
				r.Engine, r.FaultsPerHr, r.InflationPct)
		}
		if r.InflationPct > 0 {
			inflated = true
		}
	}
	if !inflated {
		t.Error("no run inflated: the plan injected nothing")
	}
}
