package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"musketeer/internal/analysis"
	"musketeer/internal/chaos"
	"musketeer/internal/cluster"
	"musketeer/internal/dfs"
	"musketeer/internal/engines"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
	"musketeer/internal/workloads"
)

// chainWorkflow builds one input feeding a chain of n shape-preserving
// operators, every fifth a shuffle, so MapReduce engines must cut it often.
func chainWorkflow(t testing.TB, n int) (*ir.DAG, *dfs.DFS) {
	t.Helper()
	schema := relation.NewSchema("k:int", "a:int", "b:int")
	rel := relation.New("t", schema)
	for i := int64(0); i < 40; i++ {
		rel.MustAppend(relation.Row{relation.Int(i % 7), relation.Int(i), relation.Int(i * 3 % 11)})
	}
	rel.LogicalBytes = 40e9
	fs := dfs.New()
	if err := fs.WriteRelation("in/t", rel); err != nil {
		t.Fatal(err)
	}
	d := ir.NewDAG()
	cur := d.AddInput("t", "in/t", schema)
	for i := 0; i < n; i++ {
		out := fmt.Sprintf("c%d", i)
		switch i % 5 {
		case 0:
			cur = d.Add(ir.OpSelect, out, ir.Params{Pred: ir.Cmp(ir.ColRef("a"), ir.CmpLt, ir.LitOp(relation.Int(int64(1000-i))))}, cur)
		case 1:
			cur = d.Add(ir.OpArith, out, ir.Params{Dst: "a", ALeft: ir.ColRef("a"), ARght: ir.LitOp(relation.Int(1)), AOp: ir.ArithAdd}, cur)
		case 2:
			cur = d.Add(ir.OpProject, out, ir.Params{Columns: []string{"k", "b", "a"}, As: []string{"k", "a", "b"}}, cur)
		case 3:
			cur = d.Add(ir.OpDistinct, out, ir.Params{}, cur)
		default:
			cur = d.Add(ir.OpSort, out, ir.Params{SortBy: []string{"k", "a"}}, cur)
		}
	}
	if err := analysis.Analyze(d).Err(); err != nil {
		t.Fatal(err)
	}
	return d, fs
}

func setOf(x *searchIndex, ops []*ir.Op) opSet {
	set := x.newSet()
	for _, op := range ops {
		set.add(x.num[op])
	}
	return set
}

func bitsOf(c cluster.Seconds) uint64 { return math.Float64bits(float64(c)) }

// quotientCyclic is the definition mergeCreatesCycle shortcuts: contract the
// group to one node, leave every other operator its own, and look for a
// cycle.
func quotientCyclic(d *ir.DAG, group map[*ir.Op]bool) bool {
	node := func(op *ir.Op) *ir.Op {
		if group[op] {
			return nil // the contracted job
		}
		return op
	}
	succ := map[*ir.Op]map[*ir.Op]bool{}
	for _, op := range d.Ops {
		for _, in := range op.Inputs {
			if a, b := node(in), node(op); a != b {
				if succ[a] == nil {
					succ[a] = map[*ir.Op]bool{}
				}
				succ[a][b] = true
			}
		}
	}
	// The contracted node is on every new cycle: is it reachable from itself?
	seen := map[*ir.Op]bool{}
	var reach func(from *ir.Op) bool
	reach = func(from *ir.Op) bool {
		for next := range succ[from] {
			if next == nil {
				return true
			}
			if !seen[next] {
				seen[next] = true
				if reach(next) {
					return true
				}
			}
		}
		return false
	}
	return reach(nil)
}

// checkIndexAgainstFragments holds the index to ir.NewFragment and
// FragmentCost on random operator subsets of d, and its cycle mask to the
// quotient-graph definition on randomly grown groups.
func checkIndexAgainstFragments(t *testing.T, name string, d *ir.DAG, est *Estimator, r *rand.Rand, subsets int) {
	t.Helper()
	x, err := est.index(d)
	if err != nil {
		t.Fatal(err)
	}
	engs := engines.StandardEngines()
	vol := x.volumes(est)
	cand := x.newCandidate()
	for s := 0; s < subsets; s++ {
		var ops []*ir.Op
		p := 0.1 + 0.8*r.Float64()
		for _, op := range d.Ops {
			if r.Float64() < p {
				ops = append(ops, op)
			}
		}
		if len(ops) == 0 {
			ops = append(ops, d.Ops[r.Intn(len(d.Ops))])
		}
		frag, err := ir.NewFragment(d, ops)
		if err != nil {
			t.Fatal(err)
		}
		set := setOf(x, ops)
		x.describe(set, cand)
		if got, want := fmt.Sprint(cand.extIn), fmt.Sprint(setOf(x, frag.ExtIn)); got != want {
			t.Fatalf("%s %s: index ext-in %s, NewFragment %s", name, frag, got, want)
		}
		if got, want := fmt.Sprint(cand.extOut), fmt.Sprint(setOf(x, frag.ExtOut)); got != want {
			t.Fatalf("%s %s: index ext-out %s, NewFragment %s", name, frag, got, want)
		}
		pull, push := x.boundaryBytes(cand, vol)
		for _, eng := range engs {
			got := est.jobCost(x, vol, cand, eng, pull, push)
			if want := est.FragmentCost(frag, eng); bitsOf(got) != bitsOf(want) {
				t.Fatalf("%s %s on %s: index score %v (%016x), FragmentCost %v (%016x)",
					name, frag, eng.Name(), got, bitsOf(got), want, bitsOf(want))
			}
		}
	}
	// Grow a group the way the search does — operators offered in
	// topological order, admitted only if the merge is acyclic — and hold
	// every verdict to the definition.
	for s := 0; s < subsets; s++ {
		set, below := x.newSet(), x.newSet()
		group := map[*ir.Op]bool{}
		p := 0.2 + 0.6*r.Float64()
		for _, i := range x.compute {
			if r.Float64() >= p {
				continue
			}
			op := x.ops[i]
			group[op] = true
			want := quotientCyclic(d, group)
			if got := x.mergeCreatesCycle(set, below, int(i)); got != want {
				t.Fatalf("%s: merging %s into %v: mask says cyclic=%v, quotient graph says %v", name, op, x.operators(set), got, want)
			}
			if want {
				delete(group, op)
				continue
			}
			set.add(int(i))
			for w, word := range x.row(x.desc, int(i)) {
				below[w] |= word
			}
		}
	}
}

func TestIndexMatchesFragmentOracle(t *testing.T) {
	c := cluster.EC2(100)
	for seed := int64(400); seed < 430; seed++ {
		rw, err := genRandomWorkflow(seed)
		if err != nil {
			t.Fatal(err)
		}
		est, err := NewEstimator(ir.Identify(rw.dag), rw.fs, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if seed%2 == 1 { // the term that reads a job's shape, not just its sizes
			est.WithChaos(&chaos.Plan{Seed: 1, MTBFSeconds: 600})
		}
		checkIndexAgainstFragments(t, fmt.Sprintf("seed %d", seed), rw.dag, est, rand.New(rand.NewSource(seed)), 200)
	}
	// A loop among ordinary operators: WHILE candidates take the whileCost path.
	w := workloads.CrossCommunityPageRank(workloads.LiveJournal(), workloads.WebCommunity(), 5)
	pc := stagedPlanCase(t, "cross-community", w)
	est, err := NewEstimator(ir.Identify(pc.dag), pc.fs, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkIndexAgainstFragments(t, pc.name, pc.dag, est, rand.New(rand.NewSource(1)), 200)
}

// TestIndexBeyondOneWord runs a workflow of more than 64 operators — two
// bitset words — through the same oracle, and PartitionDynamic over it
// against the §5.1.2 recurrence evaluated fragment by fragment.
func TestIndexBeyondOneWord(t *testing.T) {
	d, fs := chainWorkflow(t, 70)
	est, err := NewEstimator(ir.Identify(d), fs, cluster.EC2(100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if x, _ := est.index(d); x.words < 2 {
		t.Fatalf("%d operators fit %d word(s); the test needs more than one", len(x.ops), x.words)
	}
	checkIndexAgainstFragments(t, "chain-70", d, est, rand.New(rand.NewSource(70)), 200)

	ops := computeOps(d)
	for _, engs := range [][]*engines.Engine{engines.StandardEngines(), {engines.Hadoop()}} {
		got, err := PartitionDynamic(d, est, engs)
		if err != nil {
			t.Fatal(err)
		}
		best := make([]cluster.Seconds, len(ops)+1)
		prev := make([]int, len(ops)+1)
		for i := 1; i <= len(ops); i++ {
			best[i] = Infeasible
			for k := i - 1; k >= 0; k-- {
				frag, err := ir.NewFragment(d, ops[k:i])
				if err != nil {
					t.Fatal(err)
				}
				if _, c := bestEngine(est, frag, engs); best[k]+c < best[i] {
					best[i], prev[i] = best[k]+c, k
				}
			}
		}
		if bitsOf(got.Cost) != bitsOf(best[len(ops)]) {
			t.Fatalf("%d engine(s): PartitionDynamic total %v (%016x), recurrence %v (%016x)",
				len(engs), got.Cost, bitsOf(got.Cost), best[len(ops)], bitsOf(best[len(ops)]))
		}
		j := len(got.Jobs) - 1
		for i := len(ops); i > 0; i, j = prev[i], j-1 {
			if j < 0 || len(got.Jobs[j].Frag.Ops) != i-prev[i] || got.Jobs[j].Frag.Ops[0] != ops[prev[i]] {
				t.Fatalf("%d engine(s): PartitionDynamic cut differs from the recurrence at operator %d:\n%s", len(engs), i, got)
			}
		}
		if j != -1 {
			t.Fatalf("%d engine(s): PartitionDynamic has %d more job(s) than the recurrence:\n%s", len(engs), j+1, got)
		}
	}
}

// fourTwinBranches is one source feeding four identical SELECT→AGG branches
// folded by three UNIONs: 11 operators whose optimum has equal-cost twins in
// different subtrees of the placement tree.
func fourTwinBranches(t *testing.T) (*ir.DAG, *dfs.DFS) {
	t.Helper()
	schema := relation.NewSchema("k:int", "a:int")
	rel := relation.New("t", schema)
	for i := int64(0); i < 30; i++ {
		rel.MustAppend(relation.Row{relation.Int(i % 5), relation.Int(i)})
	}
	rel.LogicalBytes = 8e9
	fs := dfs.New()
	if err := fs.WriteRelation("in/t", rel); err != nil {
		t.Fatal(err)
	}
	d := ir.NewDAG()
	in := d.AddInput("t", "in/t", schema)
	var folded *ir.Op
	for b := 0; b < 4; b++ {
		sel := d.Add(ir.OpSelect, fmt.Sprintf("s%d", b), ir.Params{Pred: ir.Cmp(ir.ColRef("a"), ir.CmpLt, ir.LitOp(relation.Int(20)))}, in)
		agg := d.Add(ir.OpAgg, fmt.Sprintf("g%d", b), ir.Params{
			GroupBy: []string{"k"}, Aggs: []ir.AggSpec{{Func: ir.AggSum, Col: "a", As: "a"}},
		}, sel)
		if folded == nil {
			folded = agg
		} else {
			folded = d.Add(ir.OpUnion, fmt.Sprintf("u%d", b), ir.Params{}, folded, agg)
		}
	}
	if err := analysis.Analyze(d).Err(); err != nil {
		t.Fatal(err)
	}
	return d, fs
}

// TestExhaustiveSearchIsDeterministic pins DESIGN §6's "the first optimum in
// placement order stands": whatever the core count, a cold exhaustive search
// returns the same jobs and the same cost bits.
func TestExhaustiveSearchIsDeterministic(t *testing.T) {
	twins, twinFS := fourTwinBranches(t)
	netflix := stagedPlanCase(t, "netflix-ext-14", workloads.NetflixExtended(14))
	cases := []planCase{{name: "twin-branches", dag: twins, fs: twinFS}, netflix}
	c := cluster.EC2(100)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, pc := range cases {
		for _, engs := range [][]*engines.Engine{engines.StandardEngines(), {engines.Hadoop()}} {
			want := ""
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				for rep := 0; rep < 50; rep++ {
					est, err := NewEstimator(ir.Identify(pc.dag), pc.fs, c, nil)
					if err != nil {
						t.Fatal(err)
					}
					got := renderPlan(PartitionExhaustive(pc.dag, est, engs, 0))
					if want == "" {
						want = got
					}
					if got != want {
						t.Fatalf("%s, %d engine(s), GOMAXPROCS %d, repeat %d:\n%s--- first run ---\n%s", pc.name, len(engs), procs, rep, got, want)
					}
				}
			}
		}
	}
}

// raceBuild is set by race_test.go when the race detector is compiled in.
var raceBuild bool

// TestExhaustiveSearchForksNothing states "the search is one goroutine" as a
// property: a cold exhaustive search performs the same number of mallocs on
// one core and on four. Goroutines, per-task placement copies and per-worker
// scratch would all show here first.
func TestExhaustiveSearchForksNothing(t *testing.T) {
	if raceBuild {
		t.Skip("the race runtime allocates on its own")
	}
	pc := stagedPlanCase(t, "netflix-ext-14", workloads.NetflixExtended(14))
	c := cluster.EC2(100)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs := func(procs int) float64 {
		runtime.GOMAXPROCS(procs)
		est, err := NewEstimator(ir.Identify(pc.dag), pc.fs, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = PartitionExhaustive(pc.dag, est, engines.StandardEngines(), 0)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return float64(after.Mallocs - before.Mallocs)
	}
	one, four := mallocs(1), mallocs(4)
	if math.Abs(four-one) > 0.01*one {
		t.Errorf("cold PartitionExhaustive: %.0f mallocs at GOMAXPROCS 1, %.0f at 4 — the search forked", one, four)
	}
}
