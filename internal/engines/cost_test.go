package engines

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"musketeer/internal/cluster"
	"musketeer/internal/dfs"
	"musketeer/internal/relation"
)

// plannerArithmetic is the reference the cost function is held to: the
// partition search's scorer as it stood before planned and executed jobs
// shared Price, term for term and in its order of summation. Every plan
// golden's cost bits were produced by this arithmetic.
func plannerArithmetic(e *Engine, c *cluster.Cluster, v Volumes, r Rates) cluster.Seconds {
	fn := e.RateNodes(c)
	rate := r.ProcMBps
	if v.Graph && r.GraphProcMBps > 0 {
		rate = r.GraphProcMBps
	}
	t := cluster.Seconds(r.OverheadS) +
		transferTime(v.Pull, r.PullMBps*fn) +
		transferTime(v.Pull, r.LoadMBps*fn) +
		transferTime(v.Push, r.PushMBps*fn)
	if e.prof.LoadOutputs {
		t += transferTime(v.Gen, r.LoadMBps*fn)
	}
	if !v.Graph {
		t += transferTime(v.Shuffle, r.ShuffleMBps*fn)
	}
	proc := transferTime(v.Proc-v.AggProc, rate*fn)
	if e.prof.NonAssocGroupBy {
		proc += transferTime(v.AggProc, rate)
		t += transferTime(v.AggProc, r.ShuffleMBps)
	} else {
		proc += transferTime(v.AggProc, rate*fn)
	}
	if e.prof.MemCapGB > 0 {
		peak := max(v.Peak, v.Pull)
		if v.Graph && e.prof.GraphMemFactor > 1 {
			peak = max(peak, int64(float64(v.Pull)*e.prof.GraphMemFactor))
		}
		if peak > int64(e.prof.MemCapGB*1e9*float64(e.EffectiveNodes(c))) {
			proc = cluster.Seconds(float64(proc) * e.prof.ThrashFactor)
		}
	}
	return t + proc
}

// randomVolumes draws a job's volumes: any field may be zero, AggProc is a
// share of Proc, and on a memory-capped engine Peak lands on either side of
// the capacity.
func randomVolumes(rng *rand.Rand, e *Engine, c *cluster.Cluster) Volumes {
	bytes := func() int64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return int64(math.Exp(rng.Float64() * math.Log(5e12)))
	}
	v := Volumes{Pull: bytes(), Push: bytes(), Proc: bytes(), Gen: bytes(), Shuffle: bytes(), Peak: bytes(), Graph: rng.Intn(3) == 0}
	if rng.Intn(2) == 0 {
		v.AggProc = int64(rng.Float64() * float64(v.Proc))
	}
	if capBytes := e.prof.MemCapGB * 1e9 * float64(e.EffectiveNodes(c)); capBytes > 0 && rng.Intn(2) == 0 {
		v.Peak = int64(capBytes * (0.5 + rng.Float64()))
	}
	return v
}

func TestTransferTime(t *testing.T) {
	if got := transferTime(100e6, 100); math.Abs(float64(got)-1.0) > 1e-9 {
		t.Errorf("100MB at 100MB/s = %v, want 1s", got)
	}
	if transferTime(100, 0) != 0 {
		t.Error("zero bandwidth should cost zero")
	}
	if transferTime(0, 100) != 0 {
		t.Error("zero bytes should cost zero")
	}
}

func bitsOf(s cluster.Seconds) uint64 { return math.Float64bits(float64(s)) }

func near(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }

// TestPriceIsTheOnlyCostFunction holds Price to the planner's arithmetic
// bit for bit on random volumes, checks that a codegen mode changes PROCESS
// and nothing else, that ObservedRates is Price's inverse, and that a job
// which really ran is charged exactly what the planner's scorer returns for
// the volumes it measured.
func TestPriceIsTheOnlyCostFunction(t *testing.T) {
	reg := Registry()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	slices.Sort(names)
	rng := rand.New(rand.NewSource(20))
	var ooms, aggCollects int
	for _, name := range names {
		e := reg[name]
		seed := e.SeedRates()
		for _, nodes := range []int{1, 16, 100} {
			c := cluster.EC2(nodes)
			for i := 0; i < 1000; i++ {
				v := randomVolumes(rng, e, c)
				hand, oom := e.Price(c, v, seed, ModeHand)
				want := plannerArithmetic(e, c, v, seed)
				if got := e.EstimateCostRates(c, v, seed); bitsOf(got) != bitsOf(want) || bitsOf(hand.Total()) != bitsOf(want) {
					t.Fatalf("%s on %d nodes, %+v: EstimateCostRates %016x, Price total %016x, planner arithmetic %016x",
						name, nodes, v, bitsOf(got), bitsOf(hand.Total()), bitsOf(want))
				}
				if oom {
					ooms++
				}
				if hand.Collect > 0 {
					aggCollects++
				}

				for mode, factor := range map[PlanMode]float64{ModeNaive: e.prof.NaiveFactor, ModeOptimized: 1 + e.prof.CodegenTaxPct/100} {
					bd, modeOOM := e.Price(c, v, seed, mode)
					taxed := bd
					taxed.Proc = hand.Proc
					if taxed != hand || modeOOM != oom {
						t.Fatalf("%s %v, %+v: differs from ModeHand beyond Proc: %+v vs %+v", name, mode, v, bd, hand)
					}
					// The thrash penalty multiplies after the tax, so only an
					// unpenalized PROCESS is the hand figure times the factor
					// to the bit.
					if want := float64(hand.Proc) * factor; oom && !near(float64(bd.Proc), want) || !oom && float64(bd.Proc) != want {
						t.Fatalf("%s %v, %+v: Proc %v, want ModeHand's %v x %v", name, mode, v, bd.Proc, hand.Proc, factor)
					}
				}

				obs := e.ObservedRates(c, &RunResult{Volumes: v, Breakdown: hand, OOM: oom})
				procSeed := seed.ProcMBps
				if v.Graph && seed.GraphProcMBps > 0 {
					procSeed = seed.GraphProcMBps
				}
				for field, pair := range map[string][2]float64{
					"overhead": {obs.OverheadS, seed.OverheadS}, "pull": {obs.PullMBps, seed.PullMBps},
					"load": {obs.LoadMBps, seed.LoadMBps}, "push": {obs.PushMBps, seed.PushMBps},
					"shuffle": {obs.ShuffleMBps, seed.ShuffleMBps},
					"proc":    {obs.ProcMBps, procSeed}, "graph proc": {obs.GraphProcMBps, procSeed},
				} {
					if pair[0] != 0 && !near(pair[0], pair[1]) {
						t.Fatalf("%s on %d nodes, %+v: observed %s rate %v, priced at %v", name, nodes, v, field, pair[0], pair[1])
					}
				}
			}
		}
	}
	if ooms == 0 || aggCollects == 0 {
		t.Fatalf("draws never thrashed (%d) or never collected an aggregation (%d)", ooms, aggCollects)
	}

	// One real job per engine, with no codegen tax: the paper's Listing 1
	// where the engine takes it whole, its PROJECT and JOIN on the
	// one-shuffle engines, a native PageRank loop on the graph engines.
	for _, name := range names {
		e := reg[name]
		fs := seedDFS(t, 1000)
		listing1, pageRank := maxPropertyPrice(), pageRankWhileDAG(t, 3)
		frag := wholeFragment(t, listing1)
		if e.ValidFragment(frag) != nil {
			frag = fragmentOf(t, listing1, "locs", "id_price")
		}
		if e.ValidFragment(frag) != nil {
			frag, fs = fragmentOf(t, pageRank, "final_ranks"), seedGraphDFS(t)
		}
		p, err := e.Plan(frag, ModeHand)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := cluster.EC2(16)
		res, err := Run(RunContext{DFS: fs, Cluster: c}, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Volumes.Proc <= 0 || res.Volumes.Pull <= 0 {
			t.Errorf("%s: job measured no volumes: %+v", name, res.Volumes)
		}
		if got := e.EstimateCostRates(c, res.Volumes, e.SeedRates()); bitsOf(got) != bitsOf(res.Makespan) {
			t.Errorf("%s: planner prices the measured volumes %+v at %v (%016x), the job was charged %v (%016x)",
				name, res.Volumes, got, bitsOf(got), res.Makespan, bitsOf(res.Makespan))
		}
	}
}

// seedGraphDFS stages a four-vertex ring for pageRankWhileDAG.
func seedGraphDFS(t *testing.T) *dfs.DFS {
	t.Helper()
	fs := dfs.New()
	edges := relation.New("edges", relation.NewSchema("src:int", "dst:int", "degree:int"))
	ranks := relation.New("ranks", relation.NewSchema("vertex:int", "rank:float"))
	for i := int64(0); i < 4; i++ {
		edges.MustAppend(relation.Row{relation.Int(i), relation.Int((i + 1) % 4), relation.Int(1)})
		ranks.MustAppend(relation.Row{relation.Int(i), relation.Float(1)})
	}
	if err := fs.WriteRelation("in/edges", edges); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteRelation("in/ranks", ranks); err != nil {
		t.Fatal(err)
	}
	return fs
}
