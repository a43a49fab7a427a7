package core

import (
	"fmt"
	"testing"

	"musketeer/internal/analysis"
	"musketeer/internal/cluster"
	"musketeer/internal/dfs"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
	"musketeer/internal/obs"
	"musketeer/internal/relation"
)

// renamedPropertyPrice is maxPropertyPrice with every relation renamed and
// the inputs inserted in the opposite order — semantically identical,
// textually different.
func renamedPropertyPrice() *ir.DAG {
	d := ir.NewDAG()
	prices := d.AddInput("r1", "in/prices", relation.NewSchema("id:int", "price:float"))
	props := d.AddInput("r0", "in/properties", relation.NewSchema("id:int", "street:string", "town:string"))
	locs := d.Add(ir.OpProject, "r2", ir.Params{Columns: []string{"id", "street", "town"}}, props)
	idPrice := d.Add(ir.OpJoin, "r3", ir.Params{LeftCols: []string{"id"}, RightCols: []string{"id"}}, locs, prices)
	d.Add(ir.OpAgg, "r4", ir.Params{
		GroupBy: []string{"street", "town"},
		Aggs:    []ir.AggSpec{{Func: ir.AggMax, Col: "price", As: "max_price"}},
	}, idPrice)
	return d
}

func partitionFixture(t *testing.T, dag *ir.DAG) (*Partitioning, []*engines.Engine) {
	t.Helper()
	fs := seedPropertyDFS(t, 1000)
	est, err := NewEstimator(ir.Identify(dag), fs, cluster.Local(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	engs := allEngines()
	p, err := AutoMap(dag, est, engs)
	if err != nil {
		t.Fatal(err)
	}
	return p, engs
}

func engineByName(engs []*engines.Engine) map[string]*engines.Engine {
	m := make(map[string]*engines.Engine, len(engs))
	for _, e := range engs {
		m[e.Name()] = e
	}
	return m
}

// loopedRanks wraps pageRankDAG's loop, given a stop condition, in a
// workflow whose outer relations can be renamed: filtered inputs feed the
// WHILE (under the names its body binds, which are part of the body's
// identity) and a projection reads its result. names are the two inputs, the loop and the sink; swapped appends
// the inputs in the opposite order.
func loopedRanks(t *testing.T, names [4]string, swapped bool) *ir.DAG {
	t.Helper()
	d := ir.NewDAG()
	var rawEdges, rawRanks *ir.Op
	addEdges := func() {
		rawEdges = d.AddInput(names[0], "in/edges", relation.NewSchema("src:int", "dst:int", "degree:int"))
	}
	addRanks := func() {
		rawRanks = d.AddInput(names[1], "in/ranks", relation.NewSchema("vertex:int", "rank:float"))
	}
	if swapped {
		addRanks()
		addEdges()
	} else {
		addEdges()
		addRanks()
	}
	nonNeg := func(col string) *ir.Pred { return ir.Cmp(ir.ColRef(col), ir.CmpGe, ir.LitOp(relation.Int(0))) }
	edges := d.Add(ir.OpSelect, "edges", ir.Params{Pred: nonNeg("src")}, rawEdges)
	ranks := d.Add(ir.OpSelect, "ranks", ir.Params{Pred: nonNeg("vertex")}, rawRanks)
	// A stop condition read off the carried relation inside the job that
	// computes it: the driver finds new_ranks in the DFS only if the plan —
	// replayed or not — forces it out.
	loop := pageRankDAG(t, 3).ByOut("final_ranks").Params
	loop.Body.Add(ir.OpSelect, "negative", ir.Params{
		Pred: ir.Cmp(ir.ColRef("rank"), ir.CmpLt, ir.LitOp(relation.Int(0))),
	}, loop.Body.ByOut("new_ranks"))
	loop.CondRel = "negative"
	w := d.Add(ir.OpWhile, names[2], loop, ranks, edges)
	d.Add(ir.OpProject, names[3], ir.Params{Columns: []string{"vertex", "rank"}}, w)
	if err := analysis.Analyze(d).Err(); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPlanCacheReplayOnRenamedDAG: a cached plan is the whole executable
// plan. Replayed onto a renamed, reordered submission it has the same jobs —
// engines, operator types and costs, down through the body plan of a
// driver-looped WHILE — over the new DAG's operators, and running it computes
// what the cold plan computes.
func TestPlanCacheReplayOnRenamedDAG(t *testing.T) {
	for _, tc := range []struct {
		name         string
		a, b         *ir.DAG
		engs         []*engines.Engine
		stage        func(*testing.T, int64) *dfs.DFS
		sinkA, sinkB string
		bodyJobs     int
	}{
		{"max-property-price", maxPropertyPrice(), renamedPropertyPrice(), allEngines(),
			seedPropertyDFS, "street_price", "r4", 0},
		{"while-on-hadoop", loopedRanks(t, [4]string{"raw_edges", "raw_ranks", "loop", "final"}, false),
			loopedRanks(t, [4]string{"e0", "r0", "w0", "out0"}, true), []*engines.Engine{engines.Hadoop()},
			seedGraphDFS, "final", "out0", 2},
	} {
		fsA, fsB := tc.stage(t, 1000), tc.stage(t, 1000)
		est, err := NewEstimator(ir.Identify(tc.a), fsA, cluster.Local(7), nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := AutoMap(tc.a, est, tc.engs)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		pc := NewPlanCache(8, reg)
		pc.Store(PlanKey(tc.a, tc.engs), tc.a, 0, p)
		if PlanKey(tc.a, tc.engs).key != PlanKey(tc.b, tc.engs).key {
			t.Fatalf("%s: renamed DAG has a different plan key", tc.name)
		}
		got, ok := pc.Lookup(PlanKey(tc.b, tc.engs), tc.b, 0, engineByName(tc.engs))
		if !ok {
			t.Fatalf("%s: expected a cache hit on the renamed DAG", tc.name)
		}
		if got.Cost != p.Cost || got.Exhaustive != p.Exhaustive {
			t.Errorf("%s: replayed cost/exhaustive = %v/%t, want %v/%t", tc.name, got.Cost, got.Exhaustive, p.Cost, p.Exhaustive)
		}
		// Every replayed fragment must reference ops of the NEW dag (or of
		// its loop bodies), not the cached one, and pair the same engine and
		// cost with the same op types, job by job.
		bodyJobs := 0
		var sig func(pp *Partitioning, dag *ir.DAG) string
		sig = func(pp *Partitioning, dag *ir.DAG) string {
			within := make(map[*ir.Op]bool, len(dag.Ops))
			for _, op := range dag.Ops {
				within[op] = true
			}
			var out []string
			for _, j := range pp.Jobs {
				line := j.Engine.Name() + ":"
				for _, op := range j.Frag.Ops {
					if !within[op] {
						t.Fatalf("%s: fragment references op %s outside its DAG", tc.name, op)
					}
					line += op.Type.String() + ","
				}
				line += fmt.Sprint(j.Cost)
				if w := j.DriverLoop(); w != nil {
					if j.Body == nil {
						t.Fatalf("%s: driver loop %s carries no body plan", tc.name, j.Frag)
					}
					bodyJobs = len(j.Body.Jobs)
					line += "{" + sig(j.Body, w.Params.Body) + "}"
				}
				out = append(out, line)
			}
			return fmt.Sprint(out, pp.Cost)
		}
		if cold, warm := sig(p, tc.a), sig(got, tc.b); cold != warm {
			t.Errorf("%s: replayed plan %s != original %s", tc.name, warm, cold)
		}
		if bodyJobs != tc.bodyJobs {
			t.Errorf("%s: replayed body plan has %d jobs, want %d", tc.name, bodyJobs, tc.bodyJobs)
		}
		if h := reg.Counter("plan_cache_hit_total").Value(); h != 1 {
			t.Errorf("%s: plan_cache_hit_total = %d, want 1", tc.name, h)
		}
		run := func(d *ir.DAG, fs *dfs.DFS, pp *Partitioning, sink string) *relation.Relation {
			r := &Runner{Ctx: engines.RunContext{DFS: fs, Cluster: cluster.Local(7)}, Mode: engines.ModeOptimized}
			if _, err := r.Execute(ir.Identify(d), pp); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			out, err := fs.ReadRelation(sink)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return out
		}
		if c, w := run(tc.a, fsA, p, tc.sinkA), run(tc.b, fsB, got, tc.sinkB); c.Fingerprint() != w.Fingerprint() {
			t.Errorf("%s: the replayed plan computes a different relation than the cold plan", tc.name)
		}
	}
}

func TestPlanCacheCalibrationVersionInvalidates(t *testing.T) {
	a := maxPropertyPrice()
	p, engs := partitionFixture(t, a)
	reg := obs.NewRegistry()
	pc := NewPlanCache(8, reg)
	pc.Store(PlanKey(a, engs), a, 3, p)

	if _, ok := pc.Lookup(PlanKey(a, engs), a, 4, engineByName(engs)); ok {
		t.Fatal("stale calibration version must miss")
	}
	if m := reg.Counter("plan_cache_miss_total").Value(); m != 1 {
		t.Errorf("plan_cache_miss_total = %d, want 1", m)
	}
	if e := reg.Counter("plan_cache_evict_total").Value(); e != 1 {
		t.Errorf("stale entry should be evicted: plan_cache_evict_total = %d, want 1", e)
	}
	if pc.Len() != 0 {
		t.Errorf("stale entry still cached: len = %d", pc.Len())
	}
}

func TestPlanCacheBoundedEviction(t *testing.T) {
	a := maxPropertyPrice()
	p, engs := partitionFixture(t, a)
	reg := obs.NewRegistry()
	pc := NewPlanCache(2, reg)
	// Three keys over one DAG: the same plan under three engine sets.
	k1, k2, k3 := PlanKey(a, engs[:1]), PlanKey(a, engs[:2]), PlanKey(a, engs[:3])
	pc.Store(k1, a, 0, p)
	pc.Store(k2, a, 0, p)
	// Touch k1 so it is most recently used, then overflow.
	pc.Lookup(k1, a, 0, engineByName(engs))
	pc.Store(k3, a, 0, p)
	if pc.Len() != 2 {
		t.Fatalf("len = %d, want 2", pc.Len())
	}
	if _, ok := pc.Lookup(k2, a, 0, engineByName(engs)); ok {
		t.Error("k2 (least recently used) should have been evicted")
	}
	if _, ok := pc.Lookup(k1, a, 0, engineByName(engs)); !ok {
		t.Error("k1 (recently used) should survive")
	}
	if e := reg.Counter("plan_cache_evict_total").Value(); e != 1 {
		t.Errorf("plan_cache_evict_total = %d, want 1", e)
	}
}

func TestPlanCacheMissingEngineMisses(t *testing.T) {
	a := maxPropertyPrice()
	p, engs := partitionFixture(t, a)
	pc := NewPlanCache(8, nil)
	pc.Store(PlanKey(a, engs), a, 0, p)
	if _, ok := pc.Lookup(PlanKey(a, engs), a, 0, map[string]*engines.Engine{}); ok {
		t.Fatal("replay with no engines available must miss")
	}
}

func TestPlanCacheNilSafe(t *testing.T) {
	var pc *PlanCache
	a := maxPropertyPrice()
	pc.Store(PlanKey(a, nil), a, 0, &Partitioning{})
	if _, ok := pc.Lookup(PlanKey(a, nil), a, 0, nil); ok {
		t.Fatal("nil cache must never hit")
	}
	if pc.Len() != 0 {
		t.Fatal("nil cache has non-zero length")
	}
	if NewPlanCache(0, nil) != nil {
		t.Fatal("capacity 0 should disable the cache")
	}
}

func TestPlanCacheSizeMismatchMisses(t *testing.T) {
	a := maxPropertyPrice()
	p, engs := partitionFixture(t, a)
	pc := NewPlanCache(8, nil)
	k := PlanKey(a, engs)
	pc.Store(k, a, 0, p)
	small := ir.NewDAG()
	small.AddInput("x", "in/prices", relation.NewSchema("id:int", "price:float"))
	// A colliding key: a's key string over small's identity.
	collide := PlanID{key: k.key, id: ir.Identify(small)}
	if _, ok := pc.Lookup(collide, small, 0, engineByName(engs)); ok {
		t.Fatal("replay onto a different-size DAG must miss")
	}
}

func TestPlanCacheTouchRevalidates(t *testing.T) {
	a := maxPropertyPrice()
	p, engs := partitionFixture(t, a)
	pc := NewPlanCache(8, nil)
	key := PlanKey(a, engs)
	pc.Store(key, a, 3, p)

	// A run's own feedback moved calibration 3 -> 7; Touch re-tags the
	// entry so the next lookup at 7 hits instead of evicting.
	pc.Touch(key, 7)
	b := renamedPropertyPrice()
	if _, ok := pc.Lookup(PlanKey(b, engs), b, 7, engineByName(engs)); !ok {
		t.Fatal("lookup after Touch missed")
	}
	// Foreign feedback after the touch still invalidates.
	if _, ok := pc.Lookup(PlanKey(b, engs), b, 8, engineByName(engs)); ok {
		t.Fatal("lookup at a later version hit a stale entry")
	}
	if pc.Len() != 0 {
		t.Fatalf("stale entry not evicted: len=%d", pc.Len())
	}
	// Touching a missing key is a no-op, as is touching through nil.
	pc.Touch(key, 9)
	var nilPC *PlanCache
	nilPC.Touch(key, 9)
}

// twinBranches is two structurally identical SELECT→DISTINCT branches over
// one source, joined. With reorder the relations are renamed and the second
// branch's DISTINCT is appended before the first's.
func twinBranches(reorder bool) *ir.DAG {
	d := ir.NewDAG()
	sel := func(out string, in *ir.Op) *ir.Op {
		return d.Add(ir.OpSelect, out, ir.Params{Pred: ir.Cmp(ir.ColRef("id"), ir.CmpGt, ir.LitOp(relation.Int(1)))}, in)
	}
	on := ir.Params{LeftCols: []string{"id"}, RightCols: []string{"id"}}
	src := d.AddInput("src", "in/prices", relation.NewSchema("id:int", "price:float"))
	if !reorder {
		d1 := d.Add(ir.OpDistinct, "d1", ir.Params{}, sel("s1", src))
		d2 := d.Add(ir.OpDistinct, "d2", ir.Params{}, sel("s2", src))
		d.Add(ir.OpJoin, "j", on, d1, d2)
		return d
	}
	s1, s2 := sel("x1", src), sel("x2", src)
	d2 := d.Add(ir.OpDistinct, "y2", ir.Params{}, s2)
	d1 := d.Add(ir.OpDistinct, "y1", ir.Params{}, s1)
	d.Add(ir.OpJoin, "z", on, d1, d2)
	return d
}

// TestPlanCacheReplayKeepsTwinBranchesTogether guards the order half of the
// identity: a recipe that puts one of two identical branches in its own job
// must replay, on a renamed and reordered resubmission, to a job holding one
// whole branch — not the SELECT of one and the DISTINCT of the other.
func TestPlanCacheReplayKeepsTwinBranchesTogether(t *testing.T) {
	a := twinBranches(false)
	hadoop := engines.Registry()["hadoop"]
	frag := func(outs ...string) Assignment {
		var ops []*ir.Op
		for _, o := range outs {
			ops = append(ops, a.ByOut(o))
		}
		f, err := ir.NewFragment(a, ops)
		if err != nil {
			t.Fatal(err)
		}
		return Assignment{Frag: f, Engine: hadoop, Cost: 1}
	}
	p := &Partitioning{Jobs: []Assignment{frag("s1", "d1"), frag("s2", "d2", "j")}, Cost: 2}
	engs := []*engines.Engine{hadoop}
	pc := NewPlanCache(8, nil)
	pc.Store(PlanKey(a, engs), a, 0, p)

	b := twinBranches(true)
	got, ok := pc.Lookup(PlanKey(b, engs), b, 0, engineByName(engs))
	if !ok {
		t.Fatal("expected a cache hit on the renamed, reordered DAG")
	}
	for i, job := range got.Jobs {
		if len(job.Frag.Ops) != len(p.Jobs[i].Frag.Ops) {
			t.Fatalf("job %d replayed %d ops, want %d", i, len(job.Frag.Ops), len(p.Jobs[i].Frag.Ops))
		}
		for _, op := range job.Frag.Ops {
			if op.Type == ir.OpDistinct && !job.Frag.Contains(op.Inputs[0]) {
				t.Errorf("job %d holds %s without its own SELECT %s", i, op, op.Inputs[0])
			}
		}
	}
}
