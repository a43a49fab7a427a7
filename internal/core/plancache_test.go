package core

import (
	"fmt"
	"testing"

	"musketeer/internal/cluster"
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

func TestPlanCacheReplayOnRenamedDAG(t *testing.T) {
	a := maxPropertyPrice()
	p, engs := partitionFixture(t, a)
	reg := obs.NewRegistry()
	pc := NewPlanCache(8, reg)
	pc.Store(PlanKey(a, engs), a, 0, p)

	b := renamedPropertyPrice()
	if PlanKey(a, engs).key != PlanKey(b, engs).key {
		t.Fatal("renamed DAG has a different plan key")
	}
	got, ok := pc.Lookup(PlanKey(b, engs), b, 0, engineByName(engs))
	if !ok {
		t.Fatal("expected a cache hit on the renamed DAG")
	}
	if len(got.Jobs) != len(p.Jobs) {
		t.Fatalf("replayed %d jobs, want %d", len(got.Jobs), len(p.Jobs))
	}
	if got.Cost != p.Cost || got.Exhaustive != p.Exhaustive {
		t.Errorf("replayed cost/exhaustive = %v/%t, want %v/%t", got.Cost, got.Exhaustive, p.Cost, p.Exhaustive)
	}
	// Every replayed fragment must reference ops of the NEW dag, not the
	// cached one, and pair the same engine with the same op-type multiset.
	inB := make(map[*ir.Op]bool, len(b.Ops))
	for _, op := range b.Ops {
		inB[op] = true
	}
	sig := func(pp *Partitioning) []string {
		var out []string
		for _, j := range pp.Jobs {
			types := ""
			for _, op := range j.Frag.Ops {
				types += op.Type.String() + ","
			}
			out = append(out, j.Engine.Name()+":"+types)
		}
		return out
	}
	for _, j := range got.Jobs {
		for _, op := range j.Frag.Ops {
			if !inB[op] {
				t.Fatalf("replayed fragment references op %s outside the new DAG", op)
			}
		}
	}
	if fmt.Sprint(sig(got)) != fmt.Sprint(sig(p)) {
		t.Errorf("replayed job signatures %v != original %v", sig(got), sig(p))
	}
	if h := reg.Counter("plan_cache_hit_total").Value(); h != 1 {
		t.Errorf("plan_cache_hit_total = %d, want 1", h)
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
