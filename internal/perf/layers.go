package perf

import (
	"runtime/metrics"
	"time"

	"musketeer"
	"musketeer/internal/core"
	"musketeer/internal/dfs"
	"musketeer/internal/engines"
	"musketeer/internal/exec"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// Isolated layer timings replay a workload's own relations and DAGs through
// one layer's exported functions, with nothing else running. They say what
// the layer costs on this workload's data; the traced window says how much
// of an operation that is.

// isolator runs the isolated measurements of one traced pass and files
// their results under the per-layer metric names.
type isolator struct {
	// budget bounds how long one measurement repeats.
	budget time.Duration
	out    map[string]float64
}

// isolateBudget is the budget of every reported number; quick runs use
// quickBudget.
const (
	isolateBudget = 300 * time.Millisecond
	quickBudget   = 5 * time.Millisecond
)

// repeat calls fn until the budget has passed (at least three times) and
// returns the median duration of one call.
func (iso isolator) repeat(fn func()) time.Duration {
	var ds []float64
	for start := time.Now(); len(ds) < 3 || time.Since(start) < iso.budget; {
		t0 := time.Now()
		fn()
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds))
}

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func perSecond(n float64, d time.Duration) float64 { return ratio(n, d.Seconds()) }

// largest returns the relation with the most rows.
func largest(inputs map[string]*relation.Relation) *relation.Relation {
	var best *relation.Relation
	for _, rel := range inputs {
		if best == nil || len(rel.Rows) > len(best.Rows) || (len(rel.Rows) == len(best.Rows) && rel.Name < best.Name) {
			best = rel
		}
	}
	return best
}

// relation times the codecs and the sort on one relation.
func (iso isolator) relation(rel *relation.Relation) {
	out, repeat := iso.out, iso.repeat
	var tsv, col []byte
	const mb = 1 << 20
	d := repeat(func() { tsv = rel.EncodeBytes() })
	out["relation.tsv_encode_mb_per_s"] = perSecond(float64(len(tsv))/mb, d)
	d = repeat(func() { _, _ = relation.DecodeBytes(rel.Name, tsv) }) // bytes just encoded; decode cannot fail
	out["relation.tsv_decode_mb_per_s"] = perSecond(float64(len(tsv))/mb, d)
	d = repeat(func() { col = rel.EncodeColumnar(relation.CodecOptions{}) })
	out["relation.columnar_encode_mb_per_s"] = perSecond(float64(len(col))/mb, d)
	d = repeat(func() { _, _ = relation.DecodeColumnar(rel.Name, col, relation.CodecOptions{}) }) // as above
	out["relation.columnar_decode_mb_per_s"] = perSecond(float64(len(col))/mb, d)
	out["relation.columnar_vs_tsv_bytes"] = ratio(float64(len(col)), float64(len(tsv)))
	// Sorting is in place: each call sorts a fresh shallow copy, and the copy
	// is timed separately and subtracted.
	shuffled := func() *relation.Relation {
		c := *rel
		c.Rows = append([]relation.Row(nil), rel.Rows...)
		return &c
	}
	both := repeat(func() { shuffled().SortRows() })
	copyOnly := repeat(func() { shuffled() })
	out["relation.sort_rows_per_s"] = perSecond(float64(len(rel.Rows)), max(both-copyOnly, time.Nanosecond))
}

// dfs times whole-relation writes, reads and metadata copies on a
// private DFS.
func (iso isolator) dfs(rel *relation.Relation) {
	out, repeat := iso.out, iso.repeat
	fs := dfs.New()
	size := float64(len(rel.EncodeBytes())) / (1 << 20)
	d := repeat(func() { _ = fs.WriteRelation("iso/rel", rel) }) // in-memory store; a write of a valid relation cannot fail
	out["dfs.write_mb_per_s"] = perSecond(size, d)
	d = repeat(func() { _, _ = fs.ReadRelation("iso/rel") }) // written above
	out["dfs.read_mb_per_s"] = perSecond(size, d)
	d = repeat(func() { _ = fs.Copy("iso/rel", "iso/copy") }) // source written above
	out["dfs.copy_us"] = float64(d) / float64(time.Microsecond)
}

// exec evaluates each workflow's optimized DAG straight through the
// operator interpreter — fused (RunOps, the engines' default) and unfused
// (RunDAG) — with inputs preloaded and no DFS. Rates are input rows per
// second over all the workflows.
func (iso isolator) exec(m *musketeer.Musketeer, members []*member) error {
	out, repeat := iso.out, iso.repeat
	var rows float64
	var fused, unfused time.Duration
	var alloc uint64
	for _, mb := range members {
		wf, err := mb.compile(m)
		if err != nil {
			return err
		}
		wf.Optimize()
		dag := wf.DAG()
		order, err := dag.TopoSort()
		if err != nil {
			return err
		}
		env := exec.Env{}
		for path, rel := range mb.inputs {
			env[path] = rel
			rows += float64(len(rel.Rows))
		}
		var runErr error
		before := allocBytes()
		n := 0
		fused += repeat(func() {
			n++
			// RunOps documents a nil trace as allowed, but its WHILE driver
			// merges into it unconditionally; a fresh one costs a few maps.
			if err := exec.RunOps(order, env.Clone(), exec.NewTrace(), exec.RunOptions{}); err != nil {
				runErr = err
			}
		})
		alloc += (allocBytes() - before) / uint64(n)
		unfused += repeat(func() {
			if _, _, err := exec.RunDAG(dag, env); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			return runErr
		}
	}
	out["exec.fused_rows_per_s"] = perSecond(rows, fused)
	out["exec.unfused_rows_per_s"] = perSecond(rows, unfused)
	out["exec.alloc_mb_per_run"] = float64(alloc) / (1 << 20) / float64(len(members))
	return nil
}

// codegen times Engine.Plan (lowering + source rendering) over every
// job of each workflow's plan; the result is per workflow.
func (iso isolator) codegen(parts []*musketeer.Partitioning) {
	if len(parts) == 0 {
		return
	}
	d := iso.repeat(func() {
		for _, part := range parts {
			for _, job := range part.Jobs {
				_, _ = job.Engine.Plan(job.Frag, musketeer.ModeOptimized) // the same fragments just ran or validated
			}
		}
	})
	iso.out["engines.codegen_us"] = float64(d) / float64(time.Microsecond) / float64(len(parts))
}

// planCache times core.PlanCache.Store and a hitting Lookup for one
// workflow's optimized DAG and plan, on a private cache.
func (iso isolator) planCache(dag *ir.DAG, part *musketeer.Partitioning) {
	out, repeat := iso.out, iso.repeat
	cache := core.NewPlanCache(servePlanCache, nil)
	key := core.PlanKey(dag, engines.StandardEngines())
	registry := engines.Registry()
	d := repeat(func() { cache.Store(key, dag, 1, part) })
	out["core.plancache_store_us"] = float64(d) / float64(time.Microsecond)
	d = repeat(func() { cache.Lookup(key, dag, 1, registry) })
	out["core.plancache_lookup_us"] = float64(d) / float64(time.Microsecond)
}
