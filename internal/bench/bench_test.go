package bench

import (
	"slices"
	"strings"
	"testing"

	"musketeer"
	"musketeer/internal/engines"
	"musketeer/internal/workloads"
)

func TestTablePrinting(t *testing.T) {
	tb := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "bbbb"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	tb.Note("hello %d", 42)
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"demo", "bbbb", "333", "hello 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig7"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("FIG7"); err != nil {
		t.Error("ByID should be case-insensitive")
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown ID accepted")
	}
}

func TestAllExperimentsDistinctIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	if len(seen) < 16 {
		t.Errorf("only %d experiments registered", len(seen))
	}
}

func TestMappingQualityThresholds(t *testing.T) {
	if mappingQuality(105, 100) != "good" {
		t.Error("5% over best should be good")
	}
	if mappingQuality(125, 100) != "reasonable" {
		t.Error("25% over best should be reasonable")
	}
	if mappingQuality(200, 100) != "poor" {
		t.Error("2x over best should be poor")
	}
}

func TestFig14ConfigsCount(t *testing.T) {
	if got := len(fig14Configs()); got != 33 {
		t.Errorf("configs = %d, want the paper's 33", got)
	}
}

// TestFig14ConfigsInFixedOrder: the configurations are built in one order,
// so a "not good" note lists its misses in the same order on every run.
func TestFig14ConfigsInFixedOrder(t *testing.T) {
	var got []string
	for _, cfg := range fig14Configs() {
		if strings.HasPrefix(cfg.label, "pagerank-") {
			got = append(got, cfg.label)
		}
	}
	want := []string{
		"pagerank-lj/ec100", "pagerank-lj/ec16", "pagerank-orkut/ec100", "pagerank-orkut/ec16",
		"pagerank-twitter/ec100", "pagerank-twitter/ec16", "pagerank-lj/ec1", "pagerank-orkut/ec1",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("pagerank configs = %v, want %v", got, want)
	}
}

func TestRunOnAndAutoAgreeOnResults(t *testing.T) {
	w := workloads.TopShopper(1_000_000)
	c := musketeer.LocalCluster(7)
	single, err := runOn(w, "naiad", engines.ModeOptimized, c)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := runAuto(w, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Jobs) == 0 || len(auto.Jobs) == 0 {
		t.Error("no jobs executed")
	}
	if auto.Makespan > single.Makespan*2 {
		t.Errorf("auto (%v) much worse than a known-good single mapping (%v)", auto.Makespan, single.Makespan)
	}
}

func TestRunUnmergedSlower(t *testing.T) {
	w := workloads.TopShopper(10_000_000)
	c := musketeer.EC2(100)
	on, err := runOn(w, "hadoop", engines.ModeOptimized, c)
	if err != nil {
		t.Fatal(err)
	}
	off, err := runUnmerged(w, "hadoop", engines.ModeOptimized, c)
	if err != nil {
		t.Fatal(err)
	}
	if off.Makespan <= on.Makespan {
		t.Errorf("unmerged (%v) should be slower than merged (%v)", off.Makespan, on.Makespan)
	}
}

func TestRunComboUsesGraphEngine(t *testing.T) {
	lj := workloads.GenerateGraph("a", 4_800_000, 68_000_000, 300, 31)
	web := workloads.GenerateGraph("b", 5_800_000, 82_000_000, 300, 32)
	// Force overlap so the iterative phase is non-trivial.
	w := workloads.CrossCommunityPageRank(lj, lj, 3)
	_ = web
	r, err := runCombo(w, "hadoop", "powergraph", musketeer.LocalCluster(7))
	if err != nil {
		t.Fatal(err)
	}
	if engs := r.Partitioning.Engines(); !slices.Contains(engs, "powergraph") {
		t.Errorf("combo did not use the graph engine: %v", engs)
	}
}

func TestUnknownEngineErrors(t *testing.T) {
	w := workloads.TopShopper(1_000_000)
	if _, err := runOn(w, "flink", engines.ModeOptimized, musketeer.LocalCluster(7)); err == nil {
		t.Error("unknown engine accepted by runOn")
	}
	if _, err := runUnmerged(w, "flink", engines.ModeOptimized, musketeer.LocalCluster(7)); err == nil {
		t.Error("unknown engine accepted by runUnmerged")
	}
	if _, err := runCombo(w, "hadoop", "flink", musketeer.LocalCluster(7)); err == nil {
		t.Error("unknown engine accepted by runCombo")
	}
}

// TestCheapExperimentsProduceTables smoke-tests the fast experiments end to
// end (the full set runs under `go test -bench` / cmd/mkbench).
func TestCheapExperimentsProduceTables(t *testing.T) {
	for _, id := range []string{"fig2a", "fig7", "fig12a", "fig13", "tab1", "sec7"} {
		exp, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		table, err := exp.Run()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(table.Rows) == 0 || len(table.Columns) == 0 {
			t.Errorf("%s: empty table", id)
		}
	}
}

// TestExperimentIDsCoverDesignIndex keeps DESIGN.md's per-experiment index
// and the registered experiments in sync: every benchmark named there must
// resolve.
func TestExperimentIDsCoverDesignIndex(t *testing.T) {
	for _, id := range []string{
		"fig2a", "fig2b", "fig3", "fig7", "fig8", "fig8c", "fig9",
		"fig10", "fig11", "fig12a", "fig12b", "fig13", "fig14",
		"fig15", "fig16", "tab1", "tab3", "sec7", "ext-faults",
	} {
		if _, err := ByID(id); err != nil {
			t.Errorf("experiment %q missing: %v", id, err)
		}
	}
	if got := len(All()); got != 19 {
		t.Errorf("registered experiments = %d, want 19", got)
	}
}
