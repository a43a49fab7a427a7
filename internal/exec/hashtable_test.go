package exec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// TestKeyIndexMatchesMap drives keyIndex through find/insert directly, with
// hashes the test chooses, against a map[string]int reference, over byte
// keys, word keys (two cells each, from few values, with random tags) and
// both in one index. Every hashing scheme starts from the smallest index so
// the run crosses many resizes; the colliding ones give thousands of
// different keys the same hash (one of them the all-ones hash, whose probe
// run wraps around the slot array), so only the byte or word comparison can
// tell them apart.
func TestKeyIndexMatchesMap(t *testing.T) {
	schemes := map[string]func(key string) uint64{
		"spread": func(key string) uint64 { // FNV-1a
			h := uint64(14695981039346656037)
			for i := 0; i < len(key); i++ {
				h = (h ^ uint64(key[i])) * 1099511628211
			}
			return h
		},
		"one-hash":   func(string) uint64 { return ^uint64(0) },
		"three-hash": func(key string) uint64 { return []uint64{0, 7, ^uint64(0)}[len(key)%3] },
	}
	type testKey struct {
		name  string // the reference map's key
		tags  uint64
		cells []uint64
		bytes []byte // nil for a word key
	}
	r := rand.New(rand.NewSource(7))
	byteKeys := []testKey{{name: "b", bytes: []byte{}}} // the empty key is a key like any other
	for i := 0; i < 1500; i++ {
		s := fmt.Sprintf("%x", r.Int63n(1<<uint(1+r.Intn(40))))
		byteKeys = append(byteKeys, testKey{name: "b" + s, bytes: []byte(s)})
	}
	var wordKeys []testKey
	for i := 0; i < 1500; i++ {
		cells, tags := []uint64{uint64(r.Intn(30)), uint64(r.Intn(30))}, uint64(r.Intn(4))
		wordKeys = append(wordKeys, testKey{name: fmt.Sprintf("w%v/%d", cells, tags), tags: tags, cells: cells})
	}
	// The byte-key runs keep the scheme's name alone.
	for _, kinds := range []string{"", "words/", "mixed/"} {
		keys := map[string][]testKey{"": byteKeys, "words/": wordKeys, "mixed/": append(wordKeys[:750:750], byteKeys[:750]...)}[kinds]
		for name, hashOf := range schemes {
			t.Run(kinds+name, func(t *testing.T) {
				r := rand.New(rand.NewSource(7))
				var x keyIndex
				x.prepare(0, 2)
				ref := map[string]int{}
				var order []testKey
				for step := 0; step < 6000; step++ {
					tk := keys[r.Intn(len(keys))]
					hash := hashOf(tk.name)
					want, present := ref[tk.name]
					if !present {
						want = -1
					}
					if got := x.find(hash, tk.tags, tk.cells, tk.bytes); got != want {
						t.Fatalf("step %d: find(%s) = %d, want %d", step, tk.name, got, want)
					}
					if r.Intn(3) == 0 {
						continue
					}
					idx, added := x.insert(hash, tk.tags, tk.cells, tk.bytes)
					if !present {
						want = len(order)
						ref[tk.name] = want
						order = append(order, tk)
					}
					if idx != want || added == present {
						t.Fatalf("step %d: insert(%s) = %d, %v; want %d, %v", step, tk.name, idx, added, want, !present)
					}
				}
				if len(order) < 1000 || len(x.slots) < 2048 {
					t.Fatalf("run too small to cross resizes: %d keys, %d slots", len(order), len(x.slots))
				}
				if len(x.entries) != len(order) {
					t.Fatalf("%d entries, want %d", len(x.entries), len(order))
				}
				// Index order is insertion order, and every key's cells or
				// bytes survived the regrowths.
				for i, tk := range order {
					hash, tags, cells, b := x.key(i)
					if uint32(hash) != uint32(hashOf(tk.name)) || tags != tk.tags || (b == nil) != (tk.bytes == nil) ||
						b == nil && !slices.Equal(cells, tk.cells) || string(b) != string(tk.bytes) {
						t.Fatalf("key(%d) = %x %x %x %q, want %s", i, hash, tags, cells, b, tk.name)
					}
				}
			})
		}
	}
}

// TestAggTableAbsorbKeepsFirstAppearanceOrder: absorbing a partial table
// keeps the receiver's groups in place, merges the shared ones and appends
// the new ones in the partial table's own order.
func TestAggTableAbsorbKeepsFirstAppearanceOrder(t *testing.T) {
	sch := relation.NewSchema("g:string", "v:int")
	d := ir.NewDAG()
	in := d.AddInput("in", "in", sch)
	op := d.Add(ir.OpAgg, "out", ir.Params{GroupBy: []string{"g"}, Aggs: []ir.AggSpec{
		{Func: ir.AggSum, Col: "v", As: "s"}, {Func: ir.AggCount, As: "n"},
		{Func: ir.AggMin, Col: "v", As: "lo"}, {Func: ir.AggMax, Col: "v", As: "hi"}, {Func: ir.AggAvg, Col: "v", As: "avg"},
	}}, in)
	sp, err := resolveAggSpec(op, sch)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(groups string, base int64) *aggTable {
		tb := newAggTable(sp)
		for i, g := range groups {
			tb.add(relation.Row{relation.Str(string(g)), relation.Int(base + int64(i))})
		}
		return tb
	}
	// 40 distinct groups on each side cross the 8- and 16-group slabs.
	left, right := "abcab", "dbeadd"
	for c := 'A'; c < 'A'+40; c++ {
		left, right = left+string(c), string(c+20)+right
	}
	whole := fill(left, 0)
	whole.absorb(fill(right, 100))
	serial := fill(left, 0)
	for i, g := range right {
		serial.add(relation.Row{relation.Str(string(g)), relation.Int(100 + int64(i))})
	}
	got, want := relation.New("got", sch), relation.New("want", sch)
	emitAggRows(whole, 1, got)
	emitAggRows(serial, 1, want)
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%d groups, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if rowsText(got.Rows[i:i+1]) != rowsText(want.Rows[i:i+1]) {
			t.Errorf("group %d: absorbed %v, serial %v", i, got.Rows[i], want.Rows[i])
		}
	}
}

// TestRecycledAggScratchMatchesFirstUse: a table drawn from aggPool computes
// what a new one does. Every generated DAG runs with every AGG of two rows or
// more split into halves (the absorb path), first with the pool emptied before
// each DAG, then
// again in the same process, where the AGGs draw scratch that differently
// shaped ones left behind. Every relation must match the first pass's cell for
// cell, float bits included.
func TestRecycledAggScratchMatchesFirstUse(t *testing.T) {
	withThreshold(t, 1, func() {
		run := func(seed int64) (*dagGen, Env) {
			g := genDAG(seed)
			ops, err := g.d.TopoSort()
			if err != nil {
				t.Fatal(err)
			}
			env := Env{"a": g.vals["a"], "b": g.vals["b"]}
			if err := RunOps(ops, env, nil, RunOptions{Keep: keepAll}); err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, g.d)
			}
			return g, env
		}
		first := map[int64]Env{}
		for seed := int64(1); seed <= 300; seed++ {
			runtime.GC() // two collections empty every sync.Pool
			runtime.GC()
			_, first[seed] = run(seed)
		}
		for seed := int64(1); seed <= 300; seed++ {
			g, env := run(seed)
			for _, op := range g.d.Ops {
				if err := sameCells(env[op.Out], first[seed][op.Out]); err != nil {
					t.Fatalf("seed %d: %s on recycled scratch: %v\n%s", seed, op, err, g.d)
				}
			}
		}
	})
}

// sameCells reports the first cell where got and want differ, comparing
// floats by their bits.
func sameCells(got, want *relation.Relation) error {
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i, row := range got.Rows {
		if len(row) != len(want.Rows[i]) {
			return fmt.Errorf("row %d: %d cells, want %d", i, len(row), len(want.Rows[i]))
		}
		for j, v := range row {
			w := want.Rows[i][j]
			if v.Kind != w.Kind || v.I != w.I || v.S != w.S || math.Float64bits(v.F) != math.Float64bits(w.F) {
				return fmt.Errorf("row %d cell %d: %v, want %v", i, j, v, w)
			}
		}
	}
	return nil
}

// aggKeeps is where the rows of aggregated groups are kept.
var aggKeeps []relation.Row

// TestAggScratchIsRecycled: once one AGG has run, a second of the same shape
// allocates only what its output keeps — exactly sized row headers and the
// one exactly sized slab of cells its group rows are cut from, replayed here
// — and nothing for its key index, counts, sums or column vectors. GC
// is off so the pool cannot be emptied between the two, and one P keeps both
// on one per-P pool.
func TestAggScratchIsRecycled(t *testing.T) {
	if raceBuild {
		t.Skip("allocation bound is byte-exact; the race runtime allocates on its own")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sch := relation.NewSchema("g:int", "v:float")
	d := ir.NewDAG()
	op := d.Add(ir.OpAgg, "out", ir.Params{GroupBy: []string{"g"}, Aggs: []ir.AggSpec{
		{Func: ir.AggSum, Col: "v", As: "s"}, {Func: ir.AggCount, As: "n"}, {Func: ir.AggMax, Col: "v", As: "hi"},
	}}, d.AddInput("in", "in", sch))
	sp, err := resolveAggSpec(op, sch)
	if err != nil {
		t.Fatal(err)
	}
	const groups, arity = 300, 4
	rows := make([]relation.Row, 10*groups)
	for i := range rows {
		rows[i] = relation.Row{relation.Int(int64(i * 7 % groups)), relation.Float(float64(i) / 8)}
	}
	out := relation.New("out", sch)
	bytesOf := func(fn func()) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	agg := func() {
		tb := newAggTable(sp)
		for _, row := range rows {
			tb.add(row)
		}
		emitAggRows(tb, len(rows), out)
	}
	agg() // warm: leaves its scratch in the pool
	got := bytesOf(agg)
	if len(out.Rows) != groups {
		t.Fatalf("%d groups, want %d", len(out.Rows), groups)
	}
	kept := bytesOf(func() {
		keep := make([]relation.Row, 0, groups)
		slab := make([]relation.Value, groups*arity)
		for g := 0; g < groups; g++ {
			keep = append(keep, slab[g*arity:(g+1)*arity:(g+1)*arity])
		}
		aggKeeps = keep
	})
	t.Logf("second AGG over %d groups: %d bytes; its rows and slab alone: %d", groups, got, kept)
	if got < kept-64 || got > kept+64 {
		t.Errorf("a recycled AGG allocates %d bytes, want its rows and slab's %d ±64: its scratch was not reused", got, kept)
	}
}

// TestRecycledJoinTablesMatchFirstUse: join tables and set operators' key
// sets drawn from their pools compute what new ones do. Every generated DAG
// runs with its inputs streamed from DFS files, so a set operator's right
// input is hashed from a reader wherever it can be, at ParallelThreshold 1
// and at the default: first with every pool emptied before each run, then
// again after joins, set operators and a loop over other rows have left
// tables of every small class in the pools. Each relation the second runs
// keep must equal the first's cell for cell, float bits and cached widths
// included, under the same trace.
func TestRecycledJoinTablesMatchFirstUse(t *testing.T) {
	for _, threshold := range []int{1, ParallelThreshold} {
		withThreshold(t, threshold, func() {
			type result struct {
				env   Env
				trace *Trace
			}
			run := func(seed int64) result {
				g := genDAG(seed)
				ops, err := g.d.TopoSort()
				if err != nil {
					t.Fatal(err)
				}
				sinks := map[*ir.Op]bool{}
				for _, op := range g.d.Sinks() {
					sinks[op] = true
				}
				fs := stage(t, []int{7, 64, 0}[seed%3], g.vals["a"], g.vals["b"])
				env, trace, _ := runSourced(t, ops, fs, RunOptions{Keep: func(op *ir.Op) bool { return sinks[op] }})
				return result{env, trace}
			}
			first := map[int64]result{}
			for seed := int64(1); seed <= 300; seed++ {
				runtime.GC() // two collections empty every sync.Pool
				runtime.GC()
				first[seed] = run(seed)
			}
			dirtyTables(t)
			for seed := int64(1); seed <= 300; seed++ {
				got, want := run(seed), first[seed]
				if len(got.env) != len(want.env) {
					t.Fatalf("threshold %d seed %d: %d relations kept, first run %d", threshold, seed, len(got.env), len(want.env))
				}
				for name, rel := range want.env {
					if err := sameCellsAndWidths(got.env[name], rel); err != nil {
						t.Fatalf("threshold %d seed %d: %s on recycled tables: %v\n%s", threshold, seed, name, err, genDAG(seed).d)
					}
				}
				sameTrace(t, want.trace, got.trace)
				if t.Failed() {
					t.Fatalf("threshold %d seed %d\n%s", threshold, seed, genDAG(seed).d)
				}
			}
		})
	}
}

// dirtyTables builds join tables and key sets over (string, int) rows of
// every size up to 64 and hands them back, so each small class of both pools
// holds a table with another relation's keys: a JOIN, an INTERSECT and a
// DIFFERENCE through EvalOp, and a three-round loop joining an invariant
// build side.
func dirtyTables(t *testing.T) {
	t.Helper()
	sch := relation.NewSchema("s:string", "k:int")
	d := ir.NewDAG()
	l, r := d.AddInput("l", "in/l", sch), d.AddInput("r", "in/r", relation.NewSchema("t:string", "rk:int"))
	join := d.Add(ir.OpJoin, "j", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"rk"}}, l, r)
	inter := d.Add(ir.OpIntersect, "i", ir.Params{}, l, r)
	diff := d.Add(ir.OpDifference, "x", ir.Params{}, l, r)
	body := ir.NewDAG()
	bl, br := body.AddInput("l", "", sch), body.AddInput("r", "", r.Params.Schema)
	bj := body.Add(ir.OpJoin, "bj", ir.Params{LeftCols: []string{"k"}, RightCols: []string{"rk"}}, bl, br)
	body.Add(ir.OpProject, "next", ir.Params{Columns: []string{"s", "k"}}, bj)
	loop := d.Add(ir.OpWhile, "looped", ir.Params{Body: body, MaxIter: 3, Carried: map[string]string{"l": "next"}}, l, r)
	for n := 1; n <= 64; n++ {
		rel := relation.New("l", sch)
		for i := 0; i < n; i++ {
			rel.MustAppend(relation.Row{relation.Str(fmt.Sprintf("stale key %d", i)), relation.Int(int64(i))})
		}
		other := &relation.Relation{Name: "r", Schema: r.Params.Schema, Rows: rel.Rows}
		for _, op := range []*ir.Op{join, inter, diff, loop} {
			if _, err := EvalOp(op, []*relation.Relation{rel, other}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestTablesAreRecycled: a join table or key set handed back is the one the
// next build of its class takes, and a join table keeps no build column once
// released. GC is off so the pools cannot be emptied between the builds, and
// one P keeps them on one per-P pool.
func TestTablesAreRecycled(t *testing.T) {
	if raceBuild {
		t.Skip("pool identity; the race runtime drops pooled items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rows := benchRelation(300, 40).Rows
	in := relation.New("in", relation.NewSchema("k:int", "v:int", "w:float"))
	in.Rows = rows
	probe7 := func(jt *joinTable) []int32 {
		b, err := (&relation.Relation{Schema: in.Schema, Rows: rows[7:8]}).Reader(0, 1, 1, false).Next()
		if err != nil {
			t.Fatal(err)
		}
		return jt.matches(jt.probe(new(relation.KeyHasher), &b, []int{0}, 0))
	}
	// build indexes rows[:n] on column 0; it keeps the others, copied.
	build := func(n int, keep []int, src relation.RowSource) *joinTable {
		if src == nil {
			src = in.Reader(0, n, 64, false)
		}
		jt, err := buildJoinTable(src, n, []int{0}, keep, true)
		if err != nil {
			t.Fatal(err)
		}
		return jt
	}
	jt := build(len(rows), []int{1, 2}, nil)
	if got := probe7(jt); len(got) != 8 {
		t.Fatalf("key 7 matches %d build rows, want 8", len(got))
	}
	jt.release()
	for i, col := range jt.cols[:cap(jt.cols)] {
		if col.Ints != nil || col.Floats != nil || col.Widths != nil {
			t.Fatalf("a released join table keeps build column %d", i)
		}
	}
	if again := build(260, []int{1, 2}, nil); again != jt {
		t.Error("a join table of the same class was built anew")
	} else if got := probe7(again); len(got) != 7 {
		t.Errorf("the recycled table matches key 7 with %d build rows, want 7", len(got))
	} else {
		again.release()
	}
	// The columns a build keeps are its copy of the build side's cells, and
	// the readers are made up front: what is measured is the index and the
	// CSR, which a warm build takes from the pool.
	readers := make([]relation.RowSource, 11) // AllocsPerRun's warm-up and ten runs
	for i := range readers {
		readers[i] = in.Reader(0, len(rows), 64, false)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		build(len(rows), nil, readers[0]).release()
		readers = readers[1:]
	}); allocs != 0 {
		t.Errorf("a warm join table build allocates %.0f times", allocs)
	}
	ks, err := buildKeySet(in.Reader(0, len(rows), 64, false), len(rows))
	if err != nil {
		t.Fatal(err)
	}
	ks.release()
	again, err := buildKeySet(in.Reader(0, 260, 64, false), 260)
	if err != nil {
		t.Fatal(err)
	}
	if again != ks {
		t.Error("a key set of the same class was built anew")
	}
	if len(again.ix.entries) != 260 {
		t.Errorf("the recycled key set holds %d keys, want 260", len(again.ix.entries))
	}
	again.release()
}

// TestIntSumsAreExact: SUM and AVG of an int column add in int64, so
// 2^53 + 1 survives the sum a float would round it to, in one range and in
// two halves merged by absorb; a sum past int64 fails the run, naming the
// operator and the group.
func TestIntSumsAreExact(t *testing.T) {
	sch := relation.NewSchema("g:string", "v:int")
	d := ir.NewDAG()
	in := d.AddInput("t", "in/t", sch)
	d.Add(ir.OpAgg, "sums", ir.Params{GroupBy: []string{"g"}, Aggs: []ir.AggSpec{
		{Func: ir.AggSum, Col: "v", As: "s"}, {Func: ir.AggAvg, Col: "v", As: "avg"},
	}}, in)
	ops, err := d.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	run := func(vals ...int64) (*relation.Relation, error) {
		rel := relation.New("t", sch)
		for i, v := range vals {
			rel.MustAppend(relation.Row{relation.Str([]string{"a", "b"}[i%2]), relation.Int(v)})
		}
		env := Env{"t": rel}
		err := RunOps(ops, env, NewTrace(), RunOptions{Keep: keepAll})
		return env["sums"], err
	}
	for _, threshold := range []int{1, ParallelThreshold} {
		withThreshold(t, threshold, func() {
			out, err := run(1<<53, 5, 1, 6)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.Rows[0][1]; got.Kind != relation.KindInt || got.I != 1<<53+1 {
				t.Errorf("threshold %d: SUM(2^53, 1) = %v, want 9007199254740993", threshold, got)
			}
			if got := out.Rows[1][1]; got.Kind != relation.KindInt || got.I != 11 {
				t.Errorf("threshold %d: SUM(5, 6) = %v, want 11", threshold, got)
			}
			if got := out.Rows[0][2]; got.Kind != relation.KindFloat || got.F != float64(1<<53+1)/2 {
				t.Errorf("threshold %d: AVG(2^53, 1) = %v", threshold, got)
			}
			// Group b overflows: split in halves, when they merge, and
			// within the second half, where it is the first group.
			for _, vals := range [][]int64{{1, math.MaxInt64 - 3, 1, 3, 1, 1}, {1, 1, 1, math.MaxInt64, 1, 1}} {
				_, err = run(vals...)
				if err == nil || !strings.Contains(err.Error(), "AGG") || !strings.Contains(err.Error(), "overflows int64 in group [b]") {
					t.Errorf("threshold %d: sums of %v: err = %v, want an overflow of AGG's group [b]", threshold, vals, err)
				}
			}
		})
	}
}
