package musketeer

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// countdownWorkflow compiles a WHILE workflow (counter decremented until
// the "pending" condition empties) whose driver loop exercises the
// per-session loop namespaces.
func countdownWorkflow(t *testing.T, m *Musketeer, start int64) *Workflow {
	t.Helper()
	counter := relation.New("counter", NewSchema("v:int"))
	counter.MustAppend(relation.Row{relation.Int(start)})
	counter.LogicalBytes = 1e9
	if err := m.WriteInput("in/counter", counter); err != nil {
		t.Fatal(err)
	}
	d := ir.NewDAG()
	in := d.AddInput("counter", "in/counter", relation.NewSchema("v:int"))
	body := ir.NewDAG()
	bIn := body.AddInput("counter", "", relation.NewSchema("v:int"))
	dec := body.Add(ir.OpArith, "next", ir.Params{Dst: "v", ALeft: ir.ColRef("v"), ARght: ir.LitOp(relation.Int(1)), AOp: ir.ArithSub}, bIn)
	body.Add(ir.OpSelect, "pending", ir.Params{Pred: ir.Cmp(ir.ColRef("v"), ir.CmpGt, ir.LitOp(relation.Int(0)))}, dec)
	d.Add(ir.OpWhile, "done", ir.Params{
		Body: body, MaxIter: 100, CondRel: "pending",
		Carried: map[string]string{"counter": "next"},
	}, in)
	wf, err := m.FromDAG(d)
	if err != nil {
		t.Fatal(err)
	}
	return wf
}

// TestConcurrentExecutesAreIsolated is the tentpole stress test: two
// goroutines execute the same compiled workflow on the same deployment.
// Each run must land in its own session namespace, and both must produce
// results byte-identical to a serial run. Run under -race.
func TestConcurrentExecutesAreIsolated(t *testing.T) {
	m := New(LocalCluster(7))
	cat := stageProperty(t, m)
	wf, err := m.CompileHive(maxPriceHive, cat)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := wf.Execute()
	if err != nil {
		t.Fatal(err)
	}
	serialOut, err := m.ReadOutput("street_price")
	if err != nil {
		t.Fatal(err)
	}

	const runs = 2
	results := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = wf.Execute()
		}(i)
	}
	wg.Wait()
	seen := map[string]bool{serial.Namespace: true}
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if results[i].Makespan != serial.Makespan {
			t.Errorf("run %d makespan %v != serial %v", i, results[i].Makespan, serial.Makespan)
		}
		ns := results[i].Namespace
		if ns == "" || seen[ns] {
			t.Fatalf("run %d namespace %q not unique among %v", i, ns, seen)
		}
		seen[ns] = true
		// Each session's own copy of the output must match the serial run.
		out, err := m.ReadOutput(ns + "/street_price")
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if out.Fingerprint() != serialOut.Fingerprint() {
			t.Errorf("run %d output differs from serial run", i)
		}
	}
}

// TestConcurrentWhileDriversDoNotCollide runs a driver-looped WHILE
// workflow from two goroutines at once: loop state is staged per session,
// so neither run may observe the other's iteration state. Run under -race.
func TestConcurrentWhileDriversDoNotCollide(t *testing.T) {
	m := New(LocalCluster(7))
	wf := countdownWorkflow(t, m, 5)
	part, err := wf.PlanFor("hadoop") // no native iteration → driver loop
	if err != nil {
		t.Fatal(err)
	}
	serial, err := wf.Run(part)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]*Result, 2)
	errs := make([]error, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = wf.Run(part)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if results[i].Makespan != serial.Makespan {
			t.Errorf("run %d makespan %v != serial %v", i, results[i].Makespan, serial.Makespan)
		}
		out, err := m.ReadOutput(results[i].Namespace + "/done")
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got := out.Rows[0][0].I; got != 0 {
			t.Errorf("run %d countdown ended at %d, want 0", i, got)
		}
	}
}

// TestCancelledExecuteStopsEarly: cancelling the context mid-workflow must
// abort the execution promptly, publish no outputs, and leak no goroutines.
func TestCancelledExecuteStopsEarly(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m := New(LocalCluster(7))
	cat := stageProperty(t, m)
	wf, err := m.CompileHive(maxPriceHive, cat)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := wf.ExecuteCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := m.ReadOutput("street_price"); err == nil {
		t.Error("cancelled execution published its output")
	}
	// The scheduler waits for in-flight jobs before returning, so the
	// goroutine count must settle back to the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestTransientFailureRetries: a deployment configured with transient job
// kills and a retry budget completes its workflows; the same fault model
// without retries surfaces the failure.
func TestTransientFailureRetries(t *testing.T) {
	run := func(opts ...Option) error {
		m := New(append([]Option{LocalCluster(7)}, opts...)...)
		cat := stageProperty(t, m)
		wf, err := m.CompileHive(maxPriceHive, cat)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wf.ExecuteOn("hadoop"); err != nil {
			return err
		}
		out, err := m.ReadOutput("street_price")
		if err != nil {
			return err
		}
		if out.NumRows() != 2 {
			return fmt.Errorf("rows = %d", out.NumRows())
		}
		return nil
	}
	if err := run(WithChaos(&ChaosPlan{JobCrashProb: 0.5, Seed: 11}), WithRetries(20)); err != nil {
		t.Errorf("with retries: %v", err)
	}
	if err := run(WithChaos(&ChaosPlan{JobCrashProb: 0.5, Seed: 11})); err == nil {
		t.Error("without retries the transient failure should surface")
	}
}

// TestConcurrentJobsSizeSharedInputs runs eight executions of one workflow
// at once: every job pulls the same two DFS files, sizes what it decoded,
// and caches number widths in the rows its own kernels build. Under -race
// this proves size accounting writes to no row another job can see; every
// run must also cost exactly what the serial run cost, and the widths left
// in the published outputs must be exact.
func TestConcurrentJobsSizeSharedInputs(t *testing.T) {
	m := New(LocalCluster(7))
	cat := stageProperty(t, m)
	wf, err := m.CompileHive(maxPriceHive, cat)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := wf.Execute()
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	results := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = wf.Execute()
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if results[i].Makespan != serial.Makespan {
			t.Errorf("run %d makespan %v != serial %v", i, results[i].Makespan, serial.Makespan)
		}
		out, err := m.ReadOutput(results[i].Namespace + "/street_price")
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if err := relation.CheckWidths(out); err != nil {
			t.Errorf("run %d: %v", i, err)
		}
	}
}
