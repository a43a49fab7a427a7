package core

import (
	"container/list"
	"fmt"
	"sync"

	"musketeer/internal/cluster"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
	"musketeer/internal/obs"
)

// PlanCache memoizes partitioning decisions across workflow submissions.
// The serve path keys it on the canonical hash of the *optimized* DAG plus
// the engine set, so two submissions that differ only in relation names or
// operator insertion order share an entry; on a hit the compile/optimize/
// partition-search phases are skipped entirely (paper §5.1's exhaustive
// search is the expensive step this amortizes).
//
// Entries never store operator pointers — a cached plan must replay onto a
// *different* DAG built from a later submission. Instead each job is a
// recipe: the chosen engine's name plus the job's operator positions in
// ir.Identity.Order. Hash-equal DAGs have positionally corresponding
// canonical orders, so replaying a recipe reconstructs semantically
// identical fragments (ir.NewFragment recomputes ExtIn/ExtOut from the new
// DAG's real edges). A driver-looped WHILE's body jobs are recipes too, by
// position in the body's topological order: equal canonical hashes imply
// equal body workflow hashes, so those positions correspond as well, and a
// hit replays the whole executable plan without building an estimator.
// Replay is checked — operator types must match the recipe and fragment
// construction must succeed — and any mismatch demotes the lookup to a miss,
// so a hash collision degrades to a cold compile, not a wrong plan.
//
// Entries are pinned to a calibration version (History.Calibration):
// learned-rate bumps change fragment costs, so a plan computed under other
// rates may no longer be the optimum. A version-mismatched entry is dropped
// on lookup. Because every execution's own feedback bumps the version, the
// serve path tags entries with the version read *after* the plan's run
// completes (Store post-run, Touch after a hit's run) — the pin then means
// "calibration has not changed since this plan last proved itself", and
// only foreign activity (another workflow's feedback, a calibration load)
// invalidates it.
//
// The cache is a bounded LRU; all methods are safe for concurrent use and
// nil-safe (a nil *PlanCache never hits).
type PlanCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, evicts *obs.Counter
}

// planEntry is one cached partitioning.
type planEntry struct {
	key        string
	calVersion uint64
	plan       planRecipe
}

// planRecipe is a partitioning of one DAG — the workflow's, or a WHILE
// body's — expressed positionally.
type planRecipe struct {
	exhaustive bool
	cost       cluster.Seconds
	jobs       []jobRecipe
	// nops pins the DAG size the recipe was built against; replay onto a
	// colliding DAG of a different size is rejected outright.
	nops int
}

// jobRecipe is one job of a planRecipe.
type jobRecipe struct {
	engine string
	// opIdx are positions in the DAG's operator order: ir.Identity.Order for
	// the workflow, TopoSort for a WHILE body.
	opIdx []int
	types []ir.OpType // replay sanity check, parallel to opIdx
	cost  cluster.Seconds
	body  *planRecipe // Assignment.Body
}

// NewPlanCache returns a cache bounded to capacity entries. Capacity <= 0
// returns nil (caching disabled). The registry may be nil; otherwise the
// cache exports plan_cache_{hit,miss,evict}_total.
func NewPlanCache(capacity int, reg *obs.Registry) *PlanCache {
	if capacity <= 0 {
		return nil
	}
	c := &PlanCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
	if reg != nil {
		c.hits = reg.Counter("plan_cache_hit_total")
		c.misses = reg.Counter("plan_cache_miss_total")
		c.evicts = reg.Counter("plan_cache_evict_total")
	}
	return c
}

// PlanID addresses one optimized DAG under an engine set in the cache: the
// name/order-independent canonical hash plus the engine names (the same
// workflow partitioned over fewer engines is a different plan), together
// with the identity whose canonical order recipes are expressed in.
type PlanID struct {
	key string
	id  *ir.Identity
}

// PlanKeyOf builds the cache key for an identified DAG under an engine set.
func PlanKeyOf(id *ir.Identity, engs []*engines.Engine) PlanID {
	return PlanID{key: id.Canonical + "/" + engsKey(engs), id: id}
}

// PlanKey identifies dag and builds its cache key.
func PlanKey(dag *ir.DAG, engs []*engines.Engine) PlanID {
	return PlanKeyOf(ir.Identify(dag), engs)
}

// Len reports the number of cached plans.
func (c *PlanCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Store records a partitioning computed for dag — the DAG k was built
// from — at calibration version calVersion, as a name-free recipe. Plans
// whose operators cannot be located in the DAG (defensive — fragments
// always come from it) are dropped silently.
func (c *PlanCache) Store(k PlanID, dag *ir.DAG, calVersion uint64, p *Partitioning) {
	if c == nil || p == nil {
		return
	}
	plan, ok := recipeOf(p, k.id.Order)
	if !ok {
		return // fragment op outside the DAG; don't cache
	}
	e := &planEntry{key: k.key, calVersion: calVersion, plan: plan}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k.key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.items[k.key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*planEntry).key)
		if c.evicts != nil {
			c.evicts.Add(1)
		}
	}
}

// Touch re-tags the entry under k with a fresh calibration version and
// marks it most recently used — the hit path's post-run revalidation, so
// the replayed plan's own feedback does not invalidate it for the next
// submission. No-op when the entry is gone (evicted mid-run).
func (c *PlanCache) Touch(k PlanID, calVersion uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k.key]; ok {
		el.Value.(*planEntry).calVersion = calVersion
		c.ll.MoveToFront(el)
	}
}

// Lookup replays the cached plan for k onto dag, which must be the
// optimized DAG of the new submission, the one k was built from. It returns
// (nil, false) — counting a miss — when the entry is absent, was computed
// under a different calibration version, names an engine not in engine, or
// fails replay validation. A stale-version entry is removed so the
// recomputed plan can take its slot.
func (c *PlanCache) Lookup(k PlanID, dag *ir.DAG, calVersion uint64, engine map[string]*engines.Engine) (*Partitioning, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.items[k.key]
	if !ok {
		c.mu.Unlock()
		return c.miss()
	}
	e := el.Value.(*planEntry)
	if e.calVersion != calVersion {
		c.ll.Remove(el)
		delete(c.items, k.key)
		if c.evicts != nil {
			c.evicts.Add(1)
		}
		c.mu.Unlock()
		return c.miss()
	}
	c.ll.MoveToFront(el)
	c.mu.Unlock()

	p, err := e.plan.replay(dag, k.id.Order, engine)
	if err != nil {
		return c.miss()
	}
	if c.hits != nil {
		c.hits.Add(1)
	}
	return p, true
}

func (c *PlanCache) miss() (*Partitioning, bool) {
	if c.misses != nil {
		c.misses.Add(1)
	}
	return nil, false
}

// recipeOf expresses p, a partitioning of the DAG whose operators order
// lists, positionally; ok is false when p holds an operator order does not.
func recipeOf(p *Partitioning, order []*ir.Op) (planRecipe, bool) {
	pos := make(map[*ir.Op]int, len(order))
	for i, op := range order {
		pos[op] = i
	}
	plan := planRecipe{
		exhaustive: p.Exhaustive,
		cost:       p.Cost,
		jobs:       make([]jobRecipe, 0, len(p.Jobs)),
		nops:       len(order),
	}
	for _, j := range p.Jobs {
		r := jobRecipe{
			engine: j.Engine.Name(),
			opIdx:  make([]int, 0, len(j.Frag.Ops)),
			types:  make([]ir.OpType, 0, len(j.Frag.Ops)),
			cost:   j.Cost,
		}
		for _, op := range j.Frag.Ops {
			i, ok := pos[op]
			if !ok {
				return planRecipe{}, false
			}
			r.opIdx = append(r.opIdx, i)
			r.types = append(r.types, op.Type)
		}
		if w := j.DriverLoop(); w != nil && j.Body != nil {
			body, ok := recipeOf(j.Body, bodyOrder(w))
			if !ok {
				return planRecipe{}, false
			}
			r.body = &body
		}
		plan.jobs = append(plan.jobs, r)
	}
	return plan, true
}

// bodyOrder is the operator order a body's recipes are positions in. A
// cyclic body has none: nothing is stored for it and nothing replays onto it.
func bodyOrder(w *ir.Op) []*ir.Op {
	order, _ := w.Params.Body.TopoSort()
	return order
}

// replay reconstructs the Partitioning from the recipe against a fresh DAG
// and its operator order.
func (pr *planRecipe) replay(dag *ir.DAG, order []*ir.Op, engine map[string]*engines.Engine) (*Partitioning, error) {
	if len(order) != pr.nops {
		return nil, fmt.Errorf("core: plan cache: DAG size %d != recipe %d", len(order), pr.nops)
	}
	jobs := make([]Assignment, 0, len(pr.jobs))
	for _, r := range pr.jobs {
		eng, ok := engine[r.engine]
		if !ok {
			return nil, fmt.Errorf("core: plan cache: engine %q not available", r.engine)
		}
		ops := make([]*ir.Op, 0, len(r.opIdx))
		for i, idx := range r.opIdx {
			if idx < 0 || idx >= len(order) {
				return nil, fmt.Errorf("core: plan cache: op index %d out of range", idx)
			}
			op := order[idx]
			if op.Type != r.types[i] {
				return nil, fmt.Errorf("core: plan cache: op %d is %s, recipe says %s", idx, op.Type, r.types[i])
			}
			ops = append(ops, op)
		}
		frag, err := ir.NewFragment(dag, ops)
		if err != nil {
			return nil, fmt.Errorf("core: plan cache: %w", err)
		}
		job := Assignment{Frag: frag, Engine: eng, Cost: r.cost}
		if w := job.DriverLoop(); (w != nil) != (r.body != nil) {
			return nil, fmt.Errorf("core: plan cache: job %s and its recipe disagree on a driver loop", frag)
		} else if w != nil {
			if job.Body, err = r.body.replay(w.Params.Body, bodyOrder(w), engine); err != nil {
				return nil, err
			}
			if err := forceLoopOutputs(w, job.Body); err != nil {
				return nil, fmt.Errorf("core: plan cache: %w", err)
			}
		}
		jobs = append(jobs, job)
	}
	return &Partitioning{Jobs: jobs, Cost: pr.cost, Exhaustive: pr.exhaustive}, nil
}
