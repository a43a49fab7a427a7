package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"musketeer/internal/cluster"
)

func ok(d cluster.Seconds) func(context.Context, int) (Result, error) {
	return func(context.Context, int) (Result, error) {
		return Result{Duration: d}, nil
	}
}

func TestRunDependencyOrderAndMakespan(t *testing.T) {
	// Diamond: 0 → {1, 2} → 3. Critical path = 1 + 5 + 1 = 7.
	var mu sync.Mutex
	var order []int
	traced := func(i int, d cluster.Seconds) func(context.Context, int) (Result, error) {
		return func(context.Context, int) (Result, error) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return Result{Duration: d, Value: i}, nil
		}
	}
	s := New(Options{Workers: 4})
	rep := s.Run(context.Background(), []Job{
		{Name: "a", Run: traced(0, 1)},
		{Name: "b", Deps: []int{0}, Run: traced(1, 5)},
		{Name: "c", Deps: []int{0}, Run: traced(2, 2)},
		{Name: "d", Deps: []int{1, 2}, Run: traced(3, 1)},
	})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Makespan != 7 {
		t.Errorf("makespan = %v, want 7", rep.Makespan)
	}
	if rep.SumDuration != 9 {
		t.Errorf("sum = %v, want 9", rep.SumDuration)
	}
	pos := map[int]int{}
	for p, i := range order {
		pos[i] = p
	}
	if pos[0] > pos[1] || pos[0] > pos[2] || pos[1] > pos[3] || pos[2] > pos[3] {
		t.Errorf("dependency order violated: %v", order)
	}
	if got := rep.Outcomes[3].Start; got != 6 {
		t.Errorf("job d start = %v, want 6", got)
	}
	if got := rep.Outcomes[3].Value; got != 3 {
		t.Errorf("job d value = %v", got)
	}
}

// TestFailFastNoStragglers is the satellite regression test: after the
// first job failure, in-flight siblings must be cancelled (not run to
// completion) and queued jobs must never start.
func TestFailFastNoStragglers(t *testing.T) {
	boom := errors.New("boom")
	var completed atomic.Int32 // siblings that ran to completion
	var started atomic.Int32
	release := make(chan struct{})
	sibling := func(ctx context.Context, _ int) (Result, error) {
		started.Add(1)
		select {
		case <-ctx.Done():
			return Result{}, ctx.Err()
		case <-release:
			completed.Add(1)
			return Result{}, nil
		}
	}
	s := New(Options{Workers: 8})
	jobs := []Job{
		{Name: "failer", Run: func(ctx context.Context, _ int) (Result, error) {
			// Let the siblings get in flight before failing.
			for started.Load() < 3 {
				time.Sleep(time.Millisecond)
			}
			return Result{}, boom
		}},
		{Name: "sib1", Run: sibling},
		{Name: "sib2", Run: sibling},
		{Name: "sib3", Run: sibling},
		{Name: "downstream", Deps: []int{0}, Run: ok(1)},
		{Name: "downstream2", Deps: []int{1}, Run: ok(1)},
	}
	rep := s.Run(context.Background(), jobs)
	close(release) // stragglers, if any, may now finish — too late to count
	if !errors.Is(rep.Err, boom) {
		t.Fatalf("err = %v, want %v", rep.Err, boom)
	}
	var je *JobError
	if !errors.As(rep.Err, &je) || je.Job != "failer" {
		t.Errorf("err should name the failing job: %v", rep.Err)
	}
	if n := completed.Load(); n != 0 {
		t.Errorf("%d in-flight siblings ran to completion after the failure", n)
	}
	for _, i := range []int{4, 5} {
		if !rep.Outcomes[i].Skipped || rep.Outcomes[i].Attempts != 0 {
			t.Errorf("downstream job %d should be skipped without running: %+v", i, rep.Outcomes[i])
		}
	}
	for _, i := range []int{1, 2, 3} {
		if out := rep.Outcomes[i]; !errors.Is(out.Err, context.Canceled) {
			t.Errorf("sibling %d should observe cancellation, got %+v", i, out)
		}
	}
}

func TestExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := New(Options{Workers: 2})
	var ran atomic.Int32
	jobs := []Job{
		{Name: "canceller", Run: func(context.Context, int) (Result, error) {
			cancel()
			return Result{}, nil
		}},
		{Name: "late", Deps: []int{0}, Run: func(ctx context.Context, _ int) (Result, error) {
			ran.Add(1)
			return Result{}, nil
		}},
	}
	rep := s.Run(ctx, jobs)
	if rep.Err == nil {
		t.Fatal("cancelled submission reported success")
	}
	if !errors.Is(rep.Err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", rep.Err)
	}
	if ran.Load() != 0 {
		t.Error("job dispatched after external cancellation")
	}
}

func TestRetryTransient(t *testing.T) {
	transient := errors.New("transient")
	var attempts atomic.Int32
	s := New(Options{
		Workers:    2,
		MaxRetries: 3,
		Retryable:  func(err error) bool { return errors.Is(err, transient) },
	})
	rep := s.Run(context.Background(), []Job{{
		Name: "flaky",
		Run: func(_ context.Context, attempt int) (Result, error) {
			attempts.Add(1)
			if attempt < 2 {
				return Result{}, transient
			}
			return Result{Duration: 4}, nil
		},
	}})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if got := rep.Outcomes[0].Attempts; got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	if rep.Makespan != 4 {
		t.Errorf("makespan = %v", rep.Makespan)
	}

	// Retry budget exhausted → failure propagates.
	rep = s.Run(context.Background(), []Job{{
		Name: "hopeless",
		Run: func(context.Context, int) (Result, error) {
			return Result{}, transient
		},
	}})
	if !errors.Is(rep.Err, transient) {
		t.Errorf("err = %v, want transient after retries", rep.Err)
	}
	if got := rep.Outcomes[0].Attempts; got != 4 {
		t.Errorf("attempts = %d, want 1+3 retries", got)
	}

	// Non-retryable errors are not retried.
	fatal := errors.New("fatal")
	rep = s.Run(context.Background(), []Job{{
		Name: "fatal",
		Run:  func(context.Context, int) (Result, error) { return Result{}, fatal },
	}})
	if got := rep.Outcomes[0].Attempts; got != 1 {
		t.Errorf("non-retryable attempts = %d, want 1", got)
	}
}

func TestAdmissionControlBoundsConcurrency(t *testing.T) {
	const workers = 3
	s := New(Options{Workers: workers})
	var cur, peak atomic.Int32
	job := func(ctx context.Context, _ int) (Result, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return Result{Duration: 1}, nil
	}
	// Two concurrent submissions share the same admission budget.
	var wg sync.WaitGroup
	for sub := 0; sub < 2; sub++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs := make([]Job, 8)
			for i := range jobs {
				jobs[i] = Job{Name: fmt.Sprintf("j%d", i), Run: job}
			}
			if rep := s.Run(context.Background(), jobs); rep.Err != nil {
				t.Error(rep.Err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds worker bound %d", p, workers)
	}
}

func TestRunNestedBypassesAdmission(t *testing.T) {
	// A one-worker scheduler whose single admitted job submits a nested
	// DAG: with admission control this would deadlock; RunNested must
	// complete.
	s := New(Options{Workers: 1})
	done := make(chan *Report, 1)
	go func() {
		done <- s.Run(context.Background(), []Job{{
			Name: "outer",
			Run: func(ctx context.Context, _ int) (Result, error) {
				inner := s.RunNested(ctx, []Job{
					{Name: "in1", Run: ok(2)},
					{Name: "in2", Deps: []int{0}, Run: ok(3)},
				})
				if inner.Err != nil {
					return Result{}, inner.Err
				}
				return Result{Duration: inner.SumDuration}, nil
			},
		}})
	}()
	select {
	case rep := <-done:
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
		if rep.Makespan != 5 {
			t.Errorf("makespan = %v, want 5", rep.Makespan)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("nested submission deadlocked")
	}
}

func TestInvalidDependencies(t *testing.T) {
	s := New(Options{Workers: 2})
	if rep := s.Run(context.Background(), []Job{{Name: "x", Deps: []int{5}, Run: ok(1)}}); rep.Err == nil {
		t.Error("out-of-range dependency accepted")
	}
	rep := s.Run(context.Background(), []Job{
		{Name: "a", Deps: []int{1}, Run: ok(1)},
		{Name: "b", Deps: []int{0}, Run: ok(1)},
	})
	if rep.Err == nil {
		t.Error("dependency cycle accepted")
	}
	if rep := s.Run(context.Background(), nil); rep.Err != nil || len(rep.Outcomes) != 0 {
		t.Errorf("empty submission: %+v", rep)
	}
}

func TestDeterministicTimeline(t *testing.T) {
	// The simulated timeline must not depend on real interleaving: run the
	// same jittery DAG many times and expect identical accounting.
	mk := func() []Job {
		return []Job{
			{Name: "a", Run: ok(3)},
			{Name: "b", Run: ok(1)},
			{Name: "c", Deps: []int{0, 1}, Run: func(context.Context, int) (Result, error) {
				time.Sleep(time.Duration(time.Now().UnixNano() % 997)) // real-time jitter
				return Result{Duration: 2}, nil
			}},
			{Name: "d", Deps: []int{1}, Run: ok(10)},
		}
	}
	s := New(Options{Workers: 4})
	for trial := 0; trial < 20; trial++ {
		rep := s.Run(context.Background(), mk())
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
		if rep.Makespan != 11 {
			t.Fatalf("trial %d: makespan = %v, want 11", trial, rep.Makespan)
		}
		if rep.Outcomes[2].Start != 3 || rep.Outcomes[2].Finish != 5 {
			t.Fatalf("trial %d: job c timeline = [%v, %v], want [3, 5]",
				trial, rep.Outcomes[2].Start, rep.Outcomes[2].Finish)
		}
	}
}

// TestCriticalPath pins the one walk behind a submission's measured
// timeline and the planner's predicted one: called directly, and through a
// Report's Start/Finish/Makespan.
func TestCriticalPath(t *testing.T) {
	type S = cluster.Seconds
	for _, tc := range []struct {
		name     string
		deps     [][]int
		dur      []S
		start    []S
		makespan S
	}{
		{"empty", nil, nil, []S{}, 0},
		{"diamond", [][]int{nil, {0}, {0}, {1, 2}}, []S{1, 5, 2, 1}, []S{0, 1, 1, 6}, 7},
		{"chain declared backwards", [][]int{{1}, {2}, nil}, []S{1, 2, 4}, []S{6, 4, 0}, 7},
		{"forest", [][]int{nil, {0}, nil, {2}, nil}, []S{1, 1, 3, 4, 5}, []S{0, 1, 0, 3, 0}, 7},
		{"zero-duration job", [][]int{nil, {0}, {1}}, []S{2, 0, 3}, []S{0, 2, 2}, 5},
		{"dep listed twice", [][]int{nil, {0, 0}, {1, 0, 1}}, []S{2, 3, 1}, []S{0, 2, 5}, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start, makespan := CriticalPath(tc.deps, tc.dur)
			if fmt.Sprint(start) != fmt.Sprint(tc.start) || makespan != tc.makespan {
				t.Errorf("CriticalPath: start %v makespan %v, want %v and %v", start, makespan, tc.start, tc.makespan)
			}
			jobs := make([]Job, len(tc.dur))
			for i := range jobs {
				jobs[i] = Job{Name: fmt.Sprint(i), Deps: tc.deps[i], Run: ok(tc.dur[i])}
			}
			rep := New(Options{Workers: 2}).Run(context.Background(), jobs)
			if rep.Err != nil {
				t.Fatal(rep.Err)
			}
			if rep.Makespan != tc.makespan {
				t.Errorf("Report.Makespan = %v, want %v", rep.Makespan, tc.makespan)
			}
			for i, out := range rep.Outcomes {
				if out.Start != tc.start[i] || out.Finish != tc.start[i]+tc.dur[i] {
					t.Errorf("job %d placed at [%v, %v], want [%v, %v]", i, out.Start, out.Finish, tc.start[i], tc.start[i]+tc.dur[i])
				}
			}
		})
	}
}
