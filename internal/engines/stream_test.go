package engines

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"musketeer/internal/chaos"
	"musketeer/internal/cluster"
	"musketeer/internal/dfs"
	"musketeer/internal/exec"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// fragmentOf carves the named operators (plus any INPUT among them) out of d.
func fragmentOf(t testing.TB, d *ir.DAG, outs ...string) *ir.Fragment {
	t.Helper()
	var ops []*ir.Op
	for _, op := range d.Ops {
		for _, out := range outs {
			if op.Out == out {
				ops = append(ops, op)
			}
		}
	}
	frag, err := ir.NewFragment(d, ops)
	if err != nil {
		t.Fatal(err)
	}
	return frag
}

func runHadoop(t testing.TB, ctx RunContext, frag *ir.Fragment) *RunResult {
	t.Helper()
	plan, err := Hadoop().Plan(frag, ModeOptimized)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBlankRowsSurviveAJobBoundary is the end-to-end half of the silent
// row-loss regression: a one-column string intermediate holding empty strings
// crosses the DFS between two hadoop jobs, and the per-job plan must count
// what the merged plan counts (paper §4: every mapping computes the same
// relation). The old decoder dropped the empty lines, so the second job saw
// fewer rows than Stat.Rows recorded.
func TestBlankRowsSurviveAJobBoundary(t *testing.T) {
	in := relation.New("notes", relation.NewSchema("id:int", "note:string"))
	for i, s := range []string{"a", "", "b", "", "", "c"} {
		in.MustAppend(relation.Row{relation.Int(int64(i)), relation.Str(s)})
	}
	build := func() *ir.DAG {
		d := ir.NewDAG()
		src := d.AddInput("notes", "in/notes", in.Schema)
		only := d.Add(ir.OpProject, "only_note", ir.Params{Columns: []string{"note"}}, src)
		d.Add(ir.OpAgg, "per_note", ir.Params{GroupBy: []string{"note"}, Aggs: []ir.AggSpec{{Func: ir.AggCount, As: "n"}}}, only)
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	results := map[string]*relation.Relation{}
	for name, jobs := range map[string][][]string{"merged": {{"notes", "only_note", "per_note"}}, "per-op": {{"notes", "only_note"}, {"per_note"}}} {
		fs := dfs.New()
		if err := fs.WriteRelation("in/notes", in); err != nil {
			t.Fatal(err)
		}
		d := build()
		for _, outs := range jobs {
			runHadoop(t, RunContext{DFS: fs, Cluster: cluster.Local(7)}, fragmentOf(t, d, outs...))
		}
		out, err := fs.ReadRelation("per_note")
		if err != nil {
			t.Fatal(err)
		}
		results[name] = out
	}
	if results["merged"].Fingerprint() != results["per-op"].Fingerprint() {
		t.Fatalf("merged plan:\n%s\nper-op plan:\n%s", results["merged"].Fingerprint(), results["per-op"].Fingerprint())
	}
	for _, row := range results["per-op"].Rows {
		if row[0].S == "" && row[1].I != 3 {
			t.Errorf("empty note counted %d times, want 3", row[1].I)
		}
	}
}

// TestPhysicalOnlyInputsAreSizedByTheMeter: inputs with `#logical 0` are
// sized by the rows decoded from them. Streamed (properties probes the join)
// or drained (prices builds it), PULL accounts what reading them whole would,
// the trace is the one exec records over bound relations, and a failed block
// read still charges the transfer a second time.
func TestPhysicalOnlyInputsAreSizedByTheMeter(t *testing.T) {
	frag := wholeFragment(t, maxPropertyPrice())
	var want int64
	bound := exec.Env{}
	for _, in := range frag.ExtIn {
		rel, err := seedDFS(t, 0).ReadRelation(InputPath(in))
		if err != nil {
			t.Fatal(err)
		}
		if rel.LogicalBytes != 0 {
			t.Fatalf("%s carries a logical size", in.Out)
		}
		want += rel.PhysicalBytes()
		bound[in.Out] = rel
	}
	trace := exec.NewTrace()
	extOut := map[*ir.Op]bool{}
	for _, op := range frag.ExtOut {
		extOut[op] = true
	}
	if err := exec.RunOps(frag.Ops, bound, trace, exec.RunOptions{Keep: func(op *ir.Op) bool { return extOut[op] }, SkipInputs: true}); err != nil {
		t.Fatal(err)
	}
	clean := runHadoop(t, RunContext{DFS: seedDFS(t, 0), Cluster: cluster.EC2(100)}, frag)
	if clean.Volumes.Pull != want {
		t.Errorf("PullBytes = %d, the inputs' rows encode to %d", clean.Volumes.Pull, want)
	}
	if !reflect.DeepEqual(clean.Trace, trace) {
		t.Errorf("trace over streamed inputs:\n%+v\nover bound relations:\n%+v", clean.Trace, trace)
	}
	faulty := runHadoop(t, RunContext{DFS: seedDFS(t, 0), Cluster: cluster.EC2(100), Chaos: &chaos.Plan{DFSReadFailProb: 1, Seed: 1}}, frag)
	if faulty.DFSRetries != len(frag.ExtIn) || faulty.Volumes.Pull != 2*want {
		t.Errorf("every read failing once: %d retries, %d bytes; want %d and %d", faulty.DFSRetries, faulty.Volumes.Pull, len(frag.ExtIn), 2*want)
	}
}

// TestTwoScansPullAPhysicalOnlyInputOnce: a physical-only input that two
// pipeline heads scan is decoded by each of them but metered once, so the job
// pulls what it pulls when one head reads the input, the shared operators
// trace alike, and each head records the whole input as its input volume.
func TestTwoScansPullAPhysicalOnlyInputOnce(t *testing.T) {
	sch := relation.NewSchema("k:int", "q:float")
	rel := relation.New("t", sch)
	for i := 0; i < 3000; i++ {
		rel.MustAppend(relation.Row{relation.Int(int64(i % 50)), relation.Float(float64(i%7) + 0.5)})
	}
	run := func(heads int) (*RunResult, []*ir.Op) {
		d := ir.NewDAG()
		src := d.AddInput("t", "in/t", sch)
		var scans []*ir.Op
		for h := 0; h < heads; h++ {
			hot := d.Add(ir.OpSelect, fmt.Sprintf("hot%d", h), ir.Params{Pred: ir.Cmp(ir.ColRef("k"), ir.CmpLt, ir.LitOp(relation.Int(int64(10+10*h))))}, src)
			d.Add(ir.OpAgg, fmt.Sprintf("by_k%d", h), ir.Params{GroupBy: []string{"k"}, Aggs: []ir.AggSpec{{Func: ir.AggSum, Col: "q", As: "total"}}}, hot)
			scans = append(scans, hot)
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		fs := dfs.New()
		if err := fs.WriteRelation("in/t", rel); err != nil {
			t.Fatal(err)
		}
		return runHadoop(t, RunContext{DFS: fs, Cluster: cluster.EC2(100)}, wholeFragment(t, d)), scans
	}
	one, oneScans := run(1)
	two, twoScans := run(2)
	if want := rel.PhysicalBytes(); one.Volumes.Pull != want || two.Volumes.Pull != want {
		t.Errorf("PullBytes = %d with one scan, %d with two; the input's rows encode to %d", one.Volumes.Pull, two.Volumes.Pull, want)
	}
	for id := range one.Trace.OutBytes {
		if one.Trace.OutBytes[id] != two.Trace.OutBytes[id] || one.Trace.InBytes[id] != two.Trace.InBytes[id] || one.Trace.ProcBytes[id] != two.Trace.ProcBytes[id] {
			t.Errorf("op %d traces out/in/proc %d/%d/%d with one scan, %d/%d/%d with two", id,
				one.Trace.OutBytes[id], one.Trace.InBytes[id], one.Trace.ProcBytes[id], two.Trace.OutBytes[id], two.Trace.InBytes[id], two.Trace.ProcBytes[id])
		}
	}
	if in := one.Trace.InBytes[oneScans[0].ID]; two.Trace.InBytes[twoScans[1].ID] != in {
		t.Errorf("the second scan read %d bytes, the first %d", two.Trace.InBytes[twoScans[1].ID], in)
	}
}

// numericFile stages rows rows of (int, float, float) as in/t.
func numericFile(t testing.TB, fs *dfs.DFS, rows int, withString bool) relation.Schema {
	t.Helper()
	sch := relation.NewSchema("k:int", "q:float", "p:float")
	if withString {
		sch = relation.NewSchema("k:int", "q:float", "tag:string")
	}
	rel := relation.New("t", sch)
	for i := 0; i < rows; i++ {
		last := relation.Float(float64(i%9000) + 0.25)
		if withString {
			last = relation.Str(fmt.Sprintf("tag%d", i%100))
		}
		rel.MustAppend(relation.Row{relation.Int(int64(i % 50)), relation.Float(float64(1 + i%7)), last})
	}
	rel.LogicalBytes = rel.PhysicalBytes() * 100
	if err := fs.WriteRelation("in/t", rel); err != nil {
		t.Fatal(err)
	}
	return sch
}

// selectAggFragment is SELECT → AGG over in/t as one job.
func selectAggFragment(t testing.TB, sch relation.Schema) *ir.Fragment {
	t.Helper()
	d := ir.NewDAG()
	src := d.AddInput("t", "in/t", sch)
	hot := d.Add(ir.OpSelect, "hot", ir.Params{Pred: ir.Cmp(ir.ColRef("k"), ir.CmpLt, ir.LitOp(relation.Int(40)))}, src)
	d.Add(ir.OpAgg, "by_k", ir.Params{GroupBy: []string{"k"}, Aggs: []ir.AggSpec{{Func: ir.AggSum, Col: "q", As: "total"}}}, hot)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return fragmentOf(t, d, "t", "hot", "by_k")
}

// raceBuild is set by race_test.go when the race detector is compiled in.
var raceBuild bool

// allocsPerJob runs the job a few times and returns objects and bytes
// allocated per run, on one P so stage arenas recycle through one sync.Pool
// shard whichever half of a split pipeline put them back.
func allocsPerJob(t testing.TB, fs *dfs.DFS, frag *ir.Fragment) (objects, bytes float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	plan, err := Hadoop().Plan(frag, ModeOptimized)
	if err != nil {
		t.Fatal(err)
	}
	ctx := RunContext{DFS: fs, Cluster: cluster.Local(7)}
	run := func() {
		if _, err := Run(ctx, plan); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm caches (schema inference) outside the measurement
	// The least of three measurements: a background allocation (the GC's, the
	// test framework's) only ever adds.
	const runs = 10
	for trial := 0; trial < 3; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		o, b := float64(after.Mallocs-before.Mallocs)/runs, float64(after.TotalAlloc-before.TotalAlloc)/runs
		if trial == 0 || b < bytes {
			objects, bytes = o, b
		}
	}
	return objects, bytes
}

// TestStreamedJobAllocationsDoNotTrackRows: decoding a numeric file inside
// the scan allocates per block and per batch arena, not per row, so a job
// over twice the rows allocates the same objects give or take the extra
// blocks; a string column costs at most one object (the line) per row.
func TestStreamedJobAllocationsDoNotTrackRows(t *testing.T) {
	if raceBuild {
		t.Skip("object counts; the race runtime drops pooled items at random")
	}
	objects := map[int]float64{}
	blocks := map[int]int{}
	for _, rows := range []int{20000, 40000} {
		fs := dfs.New()
		frag := selectAggFragment(t, numericFile(t, fs, rows, false))
		objects[rows], _ = allocsPerJob(t, fs, frag)
		blocks[rows], _ = fs.BlockCount("in/t")
	}
	t.Logf("objects per job: %v, blocks: %v", objects, blocks)
	if extra := objects[40000] - objects[20000]; extra > float64(blocks[40000]-blocks[20000])+8 || extra < -8 {
		t.Errorf("20 000 rows: %v objects, 40 000 rows: %v, over %d and %d blocks: allocations track rows", objects[20000], objects[40000], blocks[20000], blocks[40000])
	}
	fs := dfs.New()
	frag := selectAggFragment(t, numericFile(t, fs, 20000, true))
	if withStrings, _ := allocsPerJob(t, fs, frag); withStrings > objects[20000]+20000+8 {
		t.Errorf("string-column file: %v objects for 20 000 rows, numeric file %v: more than one per row", withStrings, objects[20000])
	}
}

// TestSmallJobAllocatesNoMoreThanBefore is the serve_open shape through
// engines.Run: two 30-row inputs, join and aggregate. Readers size their
// arenas by the rows in their range; a fixed BatchRows arena (1024 rows × 3
// values × 40 bytes) would triple what this job allocates. The bound is to
// the byte, and every move of it is accounted for: 35 352 bytes and 150
// objects when each codec had its own writer and option; now 35 176 and 148 —
// the extOut set and the Keep closure over it are gone, every output having a
// sink (−192, two objects), pulledInput lost wire and columnar (two inputs,
// −16), and the sink's one Part gained its writer pointer and the group
// sizing scratch's slice header (48 → 80-byte class, +32). Then 35 040 and
// 149, by a memory profile of both sides: the pipeline range's
// relation.WidthMemo (+8, one object; its table is never allocated, nothing
// here measures a float) and accTap.memo in each of two taps (+16), Part.memo
// (80 → 96-byte class, +16), aggTable.sums' slice header (+32 by class), the
// key hashers' scratch buffers growing to 9-byte value keys (+32); against a
// per-group state of 32 bytes where 56 were, every time the slice of states
// grew (−176), and the join's thirty 9-byte keys filling the buffer sized
// from the first, which 5- and 6-byte text keys outgrew once (−64). An
// aggregation table now keeps only rows, counts and sums, and its key index,
// counts and sums come back from exec's aggPool after the first job, so a
// warm job measures well under the bound. The bound stays where a cold job
// holds it: a figure recorded on a pool hit would fail whenever a collection
// empties the pool.
func TestSmallJobAllocatesNoMoreThanBefore(t *testing.T) {
	if raceBuild {
		t.Skip("allocation bound is byte-exact; the race runtime allocates on its own")
	}
	objects, bytes := allocsPerJob(t, seedDFS(t, 1000), wholeFragment(t, maxPropertyPrice()))
	t.Logf("%v objects, %v bytes per job", objects, bytes)
	if bytes > 35040 {
		t.Errorf("a 30-row two-input job allocates %v bytes, more than the 35040 it took before", bytes)
	}
}

// errAfter is a context whose Err turns Canceled after a number of calls:
// Run asks once on entry, RunOps before each execution unit (Check), the push
// phase before each output.
type errAfter struct {
	context.Context
	calls int
}

func (c *errAfter) Err() error {
	if c.calls--; c.calls < 0 {
		return context.Canceled
	}
	return nil
}

// TestFailedJobPublishesNothing: outputs are committed only once every
// operator has run, so a job cancelled before its pipeline or between filling
// its writer and committing it, and one the chaos plan crashes, all leave the
// output path absent — or, when an earlier run had published there, that file
// as it was.
func TestFailedJobPublishesNothing(t *testing.T) {
	sch := relation.NewSchema("k:int", "q:float")
	good := relation.New("t", sch)
	for i := 0; i < 3000; i++ {
		good.MustAppend(relation.Row{relation.Int(int64(i % 50)), relation.Float(float64(i) / 4)})
	}
	earlier := relation.New("out", relation.NewSchema("note:string"))
	earlier.MustAppend(relation.Row{relation.Str("published by an earlier run")})

	d := ir.NewDAG()
	src := d.AddInput("t", "in/t", sch)
	hot := d.Add(ir.OpSelect, "hot", ir.Params{Pred: ir.Cmp(ir.ColRef("k"), ir.CmpLt, ir.LitOp(relation.Int(40)))}, src)
	d.Add(ir.OpArith, "out", ir.Params{Dst: "h", ALeft: ir.ColRef("q"), ARght: ir.LitOp(relation.Float(2)), AOp: ir.ArithMul}, hot)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	plan, err := Hadoop().Plan(fragmentOf(t, d, "t", "hot", "out"), ModeOptimized)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ctx  RunContext
		want string // in the error; "" for the run that succeeds
	}{
		{"cancelled before the pipeline", RunContext{Ctx: &errAfter{Context: context.Background(), calls: 1}}, "context canceled"},
		{"cancelled before the commit", RunContext{Ctx: &errAfter{Context: context.Background(), calls: 2}}, "context canceled"},
		{"crashed by the chaos plan", RunContext{Chaos: &chaos.Plan{JobCrashProb: 1, Seed: 1}}, "transient"},
		{"clean", RunContext{}, ""},
	} {
		for _, published := range []bool{false, true} {
			fs := dfs.NewWithConfig(dfs.Config{BlockSize: 512})
			if err := fs.WriteRelation("in/t", good); err != nil {
				t.Fatal(err)
			}
			var before dfs.Stat
			if published {
				if err := fs.WriteRelation("out", earlier); err != nil {
					t.Fatal(err)
				}
				before, _ = fs.Stat("out")
			}
			c.ctx.DFS, c.ctx.Cluster = fs, cluster.Local(7)
			if ec, ok := c.ctx.Ctx.(*errAfter); ok {
				c.ctx.Ctx = &errAfter{Context: ec.Context, calls: ec.calls}
			}
			_, err := Run(c.ctx, plan)
			if c.want == "" {
				if out, rerr := fs.ReadRelation("out"); err != nil || rerr != nil || len(out.Rows) != 2400 {
					t.Errorf("%s: %v, %v", c.name, err, rerr)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: Run = %v, want an error holding %q", c.name, err, c.want)
			}
			if !published {
				if fs.Exists("out") {
					t.Errorf("%s: the failed job published its output", c.name)
				}
				continue
			}
			after, _ := fs.Stat("out")
			back, rerr := fs.ReadRelation("out")
			if rerr != nil || after != before || !bytes.Equal(back.EncodeBytes(), earlier.EncodeBytes()) {
				t.Errorf("%s: the earlier file did not survive the failed job: %+v, %v", c.name, after, rerr)
			}
		}
	}
}
