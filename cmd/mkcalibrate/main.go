// Command mkcalibrate inspects the cost model's calibration: the engines'
// seed rate parameters (the paper's Table 1) and, when feedback evidence
// exists, the learned rates and selectivities the calibration loop has
// converged to.
//
//	mkcalibrate                     # print the Table-1 seed calibration
//	mkcalibrate -state hist.json    # diff learned vs seed from a saved store
//	mkcalibrate -learn 3            # run 3 accuracy learning rounds in-process
//	mkcalibrate -json ...           # machine-readable report envelope
//
// -state accepts either a history file (musketeer -history; calibration is
// embedded) or a bare calibration-state file (musketeer -calibrate).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"musketeer/internal/bench"
	"musketeer/internal/core"
	"musketeer/internal/engines"
)

// rateDelta is one engine-rate parameter's seed vs learned value.
type rateDelta struct {
	Engine  string  `json:"engine"`
	Rate    string  `json:"rate"`
	Seed    float64 `json:"seed"`
	Learned float64 `json:"learned"`
	// DeltaPct is the learned value's relative change from seed, percent.
	DeltaPct float64 `json:"delta_pct"`
	Samples  int     `json:"samples"`
}

// selDelta is one operator class's seed vs learned selectivity.
type selDelta struct {
	Class    string  `json:"class"`
	Seed     float64 `json:"seed"`
	Learned  float64 `json:"learned"`
	DeltaPct float64 `json:"delta_pct"`
	Samples  int     `json:"samples"`
}

// jsonReport is the -json envelope: module, summary counts, then entries.
type jsonReport struct {
	Module        string                    `json:"module"`
	Version       uint64                    `json:"calibration_version"`
	RatesMoved    int                       `json:"rates_moved"`
	ClassesMoved  int                       `json:"classes_moved"`
	Rates         []rateDelta               `json:"rates,omitempty"`
	Selectivities []selDelta                `json:"selectivities,omitempty"`
	Snapshot      *core.CalibrationSnapshot `json:"snapshot,omitempty"`
}

func main() {
	statePath := flag.String("state", "", "load learned calibration state from this history or calibration-state file")
	learn := flag.Int("learn", 0, "run this many accuracy learning rounds in-process and report the resulting state")
	learnCases := flag.String("learn-cases", "tpch", "comma-separated case-name substrings for -learn (empty = all)")
	asJSON := flag.Bool("json", false, "emit the machine-readable report envelope")
	flag.Parse()

	var snap core.CalibrationSnapshot
	switch {
	case *learn > 0:
		var filter []string
		for _, p := range strings.Split(*learnCases, ",") {
			if p = strings.TrimSpace(p); p != "" {
				filter = append(filter, p)
			}
		}
		rep, err := bench.RunAccuracy(*learn, filter)
		if err != nil {
			fail("learn: %v", err)
		}
		if l := rep.Learning; l != nil && l.Calibration != nil {
			snap = *l.Calibration
		}
	case *statePath != "":
		var err error
		snap, err = loadState(*statePath)
		if err != nil {
			fail("state: %v", err)
		}
	}
	rates, sels := deltas(snap)

	if *asJSON {
		rep := jsonReport{
			Module: "musketeer", Version: snap.Version,
			RatesMoved: len(rates), ClassesMoved: len(sels),
			Rates: rates, Selectivities: sels,
		}
		if snap.Version > 0 {
			rep.Snapshot = &snap
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail("%v", err)
		}
		return
	}

	// The Table-1 seed calibration (with its round-trip check) is always
	// printed, so learned deltas appear next to their baseline.
	exp := bench.Tab1Calibration()
	table, err := exp.Run()
	if err != nil {
		fail("%v", err)
	}
	table.Fprint(os.Stdout)

	if snap.Version == 0 {
		fmt.Println("calibration: no feedback evidence (all rates at Table-1 seed)")
		return
	}
	fmt.Printf("learned calibration (version %d):\n", snap.Version)
	for _, d := range rates {
		fmt.Printf("  %-10s %-10s seed %8.1f  learned %8.1f  (%+.1f%%, %d run(s))\n",
			d.Engine, d.Rate, d.Seed, d.Learned, d.DeltaPct, d.Samples)
	}
	for _, d := range sels {
		fmt.Printf("  selectivity %-10s seed %8.3f  learned %8.3f  (%+.1f%%, %d obs)\n",
			d.Class, d.Seed, d.Learned, d.DeltaPct, d.Samples)
	}
}

// deltas flattens a snapshot into changed-rate and changed-selectivity
// rows, keeping only parameters that actually moved from seed.
func deltas(snap core.CalibrationSnapshot) ([]rateDelta, []selDelta) {
	var rates []rateDelta
	for _, ec := range snap.Engines {
		if ec.Samples == 0 {
			continue
		}
		for _, f := range rateFields(ec.Seed, ec.Learned) {
			if f.seed == 0 || f.seed == f.learned {
				continue
			}
			rates = append(rates, rateDelta{
				Engine: ec.Engine, Rate: f.name, Seed: f.seed, Learned: f.learned,
				DeltaPct: 100 * (f.learned - f.seed) / f.seed, Samples: ec.Samples,
			})
		}
	}
	var sels []selDelta
	for _, sc := range snap.Selectivities {
		if sc.Samples == 0 || sc.Seed == sc.Learned {
			continue
		}
		d := selDelta{Class: sc.Class, Seed: sc.Seed, Learned: sc.Learned, Samples: sc.Samples}
		if sc.Seed != 0 {
			d.DeltaPct = 100 * (sc.Learned - sc.Seed) / sc.Seed
		}
		sels = append(sels, d)
	}
	return rates, sels
}

type rateField struct {
	name          string
	seed, learned float64
}

func rateFields(seed, learned engines.Rates) []rateField {
	return []rateField{
		{"overhead_s", seed.OverheadS, learned.OverheadS},
		{"pull", seed.PullMBps, learned.PullMBps},
		{"load", seed.LoadMBps, learned.LoadMBps},
		{"proc", seed.ProcMBps, learned.ProcMBps},
		{"graph_proc", seed.GraphProcMBps, learned.GraphProcMBps},
		{"push", seed.PushMBps, learned.PushMBps},
		{"shuffle", seed.ShuffleMBps, learned.ShuffleMBps},
	}
}

// loadState reads learned calibration from either a history file (which
// embeds the state) or a bare calibration-state file.
func loadState(path string) (core.CalibrationSnapshot, error) {
	if h, err := core.LoadHistory(path); err == nil && h.Calibration().Version() > 0 {
		return h.Calibration().Snapshot(), nil
	}
	c := core.NewCalibration()
	if err := c.LoadFile(path); err != nil {
		return core.CalibrationSnapshot{}, err
	}
	return c.Snapshot(), nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
