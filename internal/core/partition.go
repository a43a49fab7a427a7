package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"musketeer/internal/cluster"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
)

// Assignment maps one fragment (≡ back-end job) to the engine chosen for
// it, with its estimated cost.
type Assignment struct {
	Frag   *ir.Fragment
	Engine *engines.Engine
	Cost   cluster.Seconds
	// Body is set when the job is a driver-looped WHILE (DriverLoop): the
	// partitioning of the loop body the runner submits every round. It is the
	// one Cost was taken from — Body.Cost × the estimated iterations — with
	// the loop-carried and stop-condition relations forced to be outputs of
	// the body jobs that compute them.
	Body *Partitioning
}

// DriverLoop returns the job's WHILE when the engine cannot iterate it
// natively, so the runner drives the loop itself; nil for every other job.
func (a *Assignment) DriverLoop() *ir.Op {
	if w := a.Frag.While(); w != nil && !a.Engine.Profile().NativeIteration {
		return w
	}
	return nil
}

// forceLoopOutputs makes the body relations w keeps across rounds outputs
// of the body jobs that compute them: the driver reads them from the DFS
// every round, even where no other body job does.
func forceLoopOutputs(w *ir.Op, body *Partitioning) error {
	for _, name := range w.Kept() {
		op := w.Params.Body.ByOut(name)
		if op == nil {
			return fmt.Errorf("core: WHILE %s: relation %q not in body", w.Out, name)
		}
		for _, job := range body.Jobs {
			if job.Frag.Contains(op) {
				if err := job.Frag.ForceOutput(op); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Partitioning is a complete, executable plan: the workflow's jobs in
// execution order and, under each driver-looped WHILE, the jobs of its body.
// The runner searches for nothing; what it runs is what was priced.
type Partitioning struct {
	Jobs []Assignment
	Cost cluster.Seconds
	// Exhaustive records which algorithm produced it.
	Exhaustive bool
}

// String renders the partitioning one job per line.
func (p *Partitioning) String() string {
	var b strings.Builder
	for _, j := range p.Jobs {
		fmt.Fprintf(&b, "%-12s %v  %s\n", j.Engine.Name(), j.Cost, j.Frag)
	}
	fmt.Fprintf(&b, "total: %v\n", p.Cost)
	return b.String()
}

// Engines lists the distinct engines used, sorted.
func (p *Partitioning) Engines() []string {
	set := make(map[string]bool, len(p.Jobs))
	for _, j := range p.Jobs {
		set[j.Engine.Name()] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ExhaustiveLimit is the operator count up to which Partition uses the
// exhaustive search. The paper ran it under a second up to 13 operators
// (§6.6, Fig 13). Scored over the search index, the 16-operator prefix of
// the extended NetFlix workflow partitions in ~2 ms
// (BenchmarkPartitionExhaustive; ~4 ms as one cold run) and 18 operators in
// ~25 ms, still growing ×5–6 per two operators. The limit is not raised on
// the back of that: 17- and 18-operator workflows would get the exhaustive
// optimum instead of the DP segmentation — different plans, different
// simulated makespans — which is a change to measure on its own.
const ExhaustiveLimit = 16

// Partition decomposes the DAG into engine-assigned jobs, choosing the
// exhaustive search for small workflows and the dynamic-programming
// heuristic for large ones (paper §5.1).
func Partition(dag *ir.DAG, est *Estimator, engs []*engines.Engine) (*Partitioning, error) {
	x, err := est.index(dag)
	if err != nil {
		return nil, err
	}
	if len(x.compute) <= ExhaustiveLimit {
		return PartitionExhaustive(dag, est, engs, 0)
	}
	return PartitionDynamic(dag, est, engs)
}

func computeOps(dag *ir.DAG) []*ir.Op {
	order, err := dag.TopoSort()
	if err != nil {
		order = dag.Ops
	}
	var ops []*ir.Op
	for _, op := range order {
		if op.Type != ir.OpInput {
			ops = append(ops, op)
		}
	}
	return ops
}

// PartitionDynamic implements the dynamic-programming heuristic (§5.1.2):
// it topologically sorts the DAG into a single linear ordering, then finds
// the minimum-cost segmentation of that ordering, where each segment's cost
// is the cheapest engine's cost for running the segment as one job:
//
//	C[n] = min over k < n of C[k] + min_s c_s(o_{k+1} … o_n)
//
// Runtime is polynomial in the number of operators; the price is that only
// partitions respecting the linear order are explored, so merge
// opportunities broken by the ordering are missed (paper Fig 16).
func PartitionDynamic(dag *ir.DAG, est *Estimator, engs []*engines.Engine) (*Partitioning, error) {
	x, err := est.index(dag)
	if err != nil {
		return nil, err
	}
	return dynamicOverOrder(x, est, engs, x.compute)
}

// PartitionDynamicMulti runs the dynamic heuristic over several distinct
// topological orderings and keeps the cheapest segmentation. This is the
// paper's §8 mitigation for the heuristic's Fig 16 limitation: a single
// linear order can separate operators that would merge profitably; trying a
// handful of randomized orders recovers most of those opportunities while
// staying polynomial. Orders are derived deterministically from the DAG, so
// results are reproducible.
func PartitionDynamicMulti(dag *ir.DAG, est *Estimator, engs []*engines.Engine, orders int) (*Partitioning, error) {
	if orders < 1 {
		orders = 1
	}
	x, err := est.index(dag)
	if err != nil {
		return nil, err
	}
	best, err := dynamicOverOrder(x, est, engs, x.compute)
	if err != nil {
		return nil, err
	}
	// Fixed seed 42: the tie-break shuffle is replayable by construction,
	// every run draws the identical sequence.
	r := rand.New(rand.NewSource(42))
	for i := 1; i < orders; i++ {
		cand, err := dynamicOverOrder(x, est, engs, randomTopoOrder(x, r))
		if err != nil {
			continue // this order admits no feasible segmentation
		}
		if cand.Cost < best.Cost {
			best = cand
		}
	}
	return best, nil
}

// randomTopoOrder produces a topological order of the DAG's compute
// operators using Kahn's algorithm with randomized tie-breaking. The ready
// list is seeded and extended in DAG insertion order (not index order): the
// draws pick positions in it, so its order is part of the replayable result.
func randomTopoOrder(x *searchIndex, r *rand.Rand) []int32 {
	indeg := make([]int, len(x.ops))
	cons := make([][]int32, len(x.ops))
	var ready []int32
	for _, op := range x.dag.Ops {
		i := int32(x.num[op])
		indeg[i] = len(op.Inputs)
		for _, in := range op.Inputs {
			cons[x.num[in]] = append(cons[x.num[in]], i)
		}
		if len(op.Inputs) == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int32, 0, len(x.compute))
	for len(ready) > 0 {
		at := r.Intn(len(ready))
		i := ready[at]
		ready = append(ready[:at], ready[at+1:]...)
		if !x.sources.has(int(i)) {
			order = append(order, i)
		}
		for _, c := range cons[i] {
			indeg[c]--
			if indeg[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	return order
}

// dynamicOverOrder finds the minimum-cost segmentation of one linear order
// of the indexed DAG's compute operators.
func dynamicOverOrder(x *searchIndex, est *Estimator, engs []*engines.Engine, ops []int32) (*Partitioning, error) {
	n := len(ops)
	if n == 0 {
		return nil, fmt.Errorf("core: nothing to partition")
	}
	type cell struct {
		cost cluster.Seconds
		prev int
		eng  *engines.Engine
	}
	best := make([]cell, n+1)
	best[0] = cell{cost: 0, prev: -1}
	sr := est.newSearcher(x, engs)
	seg := x.newSet()
	for i := 1; i <= n; i++ {
		best[i] = cell{cost: Infeasible, prev: -1}
		clear(seg)
		for k := i - 1; k >= 0; k-- {
			seg.add(int(ops[k])) // seg = ops[k:i]
			if best[k].cost == Infeasible {
				continue
			}
			// Memoized: PartitionDynamicMulti re-scores the same segments
			// across orders, and the WHILE cost model re-partitions loop
			// bodies per engine.
			ch := sr.choice(seg)
			if ch.eng == nil {
				continue
			}
			if total := best[k].cost + ch.cost; total < best[i].cost {
				best[i] = cell{cost: total, prev: k, eng: ch.eng}
			}
		}
	}
	if best[n].cost == Infeasible {
		return nil, fmt.Errorf("core: no feasible partitioning for engines %v", engineNames(engs))
	}
	// Reconstruct segments back to front.
	var jobs []Assignment
	for i := n; i > 0; {
		k := best[i].prev
		members := make([]*ir.Op, 0, i-k)
		for _, o := range ops[k:i] {
			members = append(members, x.ops[o])
		}
		frag, err := ir.NewFragment(x.dag, members)
		if err != nil {
			return nil, err
		}
		job, err := est.assignment(frag, best[i].eng, best[i].cost-best[k].cost)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job)
		i = k
	}
	slices.Reverse(jobs) // into execution order
	return &Partitioning{Jobs: jobs, Cost: best[n].cost}, nil
}

func engineNames(engs []*engines.Engine) []string {
	names := make([]string, len(engs))
	for i, e := range engs {
		names[i] = e.Name()
	}
	return names
}

// PartitionExhaustive explores every valid partition of the DAG (§5.1.1):
// operators are placed, in topological order, either into a new job or into
// any existing job they can legally join; each complete partition is scored
// with the cheapest engine per job. Branch-and-bound pruning cuts partial
// partitions that already cost as much as the best complete one, so the first
// optimum in placement order stands; candidate jobs are bitsets over the
// estimator's search index and their costs are memoized there, so re-examined
// groups (and later searches over the same workflow) are table hits. The
// search runs on the calling goroutine and is exponential in the number of
// operators; a non-zero budget makes it return the best partition found when
// time runs out.
func PartitionExhaustive(dag *ir.DAG, est *Estimator, engs []*engines.Engine, budget time.Duration) (*Partitioning, error) {
	x, err := est.index(dag)
	if err != nil {
		return nil, err
	}
	if len(x.compute) == 0 {
		return nil, fmt.Errorf("core: nothing to partition")
	}
	room := len(x.compute) * x.words
	s := &exhaustiveSearch{
		searcher: est.newSearcher(x, engs), bestCost: Infeasible,
		sets: make([]uint64, 0, room), below: make([]uint64, 0, room), undo: make([]uint64, room),
	}
	if budget > 0 {
		// Opt-in wall-clock search budget: with the default zero budget the
		// clock is never read and the search is exhaustive and deterministic.
		s.deadline = time.Now().Add(budget)
	}
	s.search(0, 0)
	if s.bestCost == Infeasible {
		return nil, fmt.Errorf("core: no feasible partitioning for engines %v", engineNames(engs))
	}
	// Jobs in execution order: producers precede consumers when jobs are
	// ordered by their first operator.
	groups := make([]opSet, len(s.bestSets)/x.words)
	for g := range groups {
		groups[g] = x.row(s.bestSets, g)
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].first() < groups[b].first() })
	jobs := make([]Assignment, 0, len(groups))
	for _, set := range groups {
		frag, err := ir.NewFragment(dag, x.operators(set))
		if err != nil {
			return nil, err
		}
		ch := s.choice(set)
		job, err := est.assignment(frag, ch.eng, ch.cost)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job)
	}
	return &Partitioning{Jobs: jobs, Cost: s.bestCost, Exhaustive: true}, nil
}

// fragChoice is a memoized (cheapest engine, cost) pair for one operator
// group on one engine set.
type fragChoice struct {
	cost cluster.Seconds
	eng  *engines.Engine
}

// engsKey renders an engine set as a cache-key prefix.
func engsKey(engs []*engines.Engine) string {
	var b strings.Builder
	for _, e := range engs {
		b.WriteString(e.Name())
		b.WriteByte('|')
	}
	return b.String()
}

// searcher is a running partition search's handle on the estimator: the
// index and engine set it scores against, and the scratch its memo misses
// are described in.
type searcher struct {
	est  *Estimator
	x    *searchIndex
	engs []*engines.Engine
	eord uint32 // engs, interned
	cand *candidate
}

func (e *Estimator) newSearcher(x *searchIndex, engs []*engines.Engine) *searcher {
	return &searcher{est: e, x: x, engs: engs, eord: e.engineSet(engs), cand: x.newCandidate()}
}

// choice returns the memoized cheapest engine and cost for running the
// operator set as a single job on any engine of the searcher's set. A miss
// is scored straight from the index. The memo outlives the searcher: later
// searches over the same index hit it. An infeasible set caches
// {Infeasible, nil}.
func (sr *searcher) choice(set opSet) fragChoice {
	e, x := sr.est, sr.x
	// Memoized scores are only valid for the calibration version they were
	// computed under; a version bump (new evidence) flushes them first.
	e.syncCalibration()
	choice, ok := x.memo.get(sr.eord, set)
	if ok {
		e.searchMemoHits++
		return choice
	}
	e.searchExplored++
	x.describe(set, sr.cand)
	vol := x.volumes(e)
	pull, push := x.boundaryBytes(sr.cand, vol)
	choice = fragChoice{cost: Infeasible}
	for _, eng := range sr.engs {
		if c := e.jobCost(x, vol, sr.cand, eng, pull, push); c < choice.cost {
			choice = fragChoice{cost: c, eng: eng}
		}
	}
	x.memo.put(sr.eord, set, choice)
	return choice
}

func (sr *searcher) cost(set opSet) cluster.Seconds { return sr.choice(set).cost }

// exhaustiveSearch is one branch-and-bound search: the partial partition
// being extended and the best complete one found so far. Group g's operator
// set is row g of sets, and row g of below is the union of its members'
// descendant rows (what mergeCreatesCycle tests a newcomer's ancestors
// against). Both have room for every operator in a group of its own, so the
// search allocates only when it records a new best.
type exhaustiveSearch struct {
	*searcher
	sets, below []uint64
	// undo[i] keeps the below row that placing operator i into an existing
	// group overwrote, restored when the search backs out of that merge.
	undo     []uint64
	bestCost cluster.Seconds
	bestSets []uint64
	// deadline is zero without a budget; expired latches once it has passed.
	deadline time.Time
	expired  bool
}

// search places operator i of the placement order into every legal
// position. sets and below hold the current partial partition; partial is
// its cost so far (sum of current group costs). Group costs are re-read from
// the memo when a group changes.
func (s *exhaustiveSearch) search(i int, partial cluster.Seconds) {
	if s.expired {
		return
	}
	// The opt-in wall-clock budget is guarded by deadline.IsZero, so the
	// default configuration never observes the clock.
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		s.expired = true
		return
	}
	// Branch and bound. A tie with the best is pruned: the first optimum in
	// placement order stands.
	if partial >= s.bestCost {
		return
	}
	x := s.x
	if i == len(x.compute) {
		s.bestCost = partial
		s.bestSets = append(s.bestSets[:0], s.sets...)
		return
	}
	op := int(x.compute[i])
	desc := x.row(x.desc, op)
	// Option A: start a new job.
	groups := len(s.sets) / x.words
	s.sets, s.below = s.sets[:len(s.sets)+x.words], s.below[:len(s.below)+x.words]
	set, below := x.row(s.sets, groups), x.row(s.below, groups)
	clear(set)
	set.add(op)
	if solo := s.cost(set); solo < Infeasible {
		copy(below, desc)
		s.search(i+1, partial+solo)
	}
	s.sets, s.below = s.sets[:groups*x.words], s.below[:groups*x.words]
	// Option B: join an existing job, if no inter-job cycle arises and the
	// merged job remains feasible for some engine.
	undo := x.row(s.undo, i)
	for g := 0; g < groups; g++ {
		set, below := x.row(s.sets, g), x.row(s.below, g)
		if x.mergeCreatesCycle(set, below, op) {
			continue
		}
		old := s.cost(set)
		set.add(op)
		if merged := s.cost(set); merged < Infeasible {
			copy(undo, below)
			for k, word := range desc {
				below[k] |= word
			}
			s.search(i+1, partial-old+merged)
			copy(below, undo)
		}
		set.del(op)
	}
}
