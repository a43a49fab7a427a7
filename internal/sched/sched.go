// Package sched is the execution stack's job scheduler — and its only
// sanctioned source of concurrency for the execution stack
// (TestGoroutinesStartInNamedPlaces fails on a go statement anywhere but
// here and a few named kernel fork-joins).
//
// A Scheduler dispatches DAGs of jobs with bounded-worker admission
// control: every deployment owns one scheduler, concurrent workflow
// submissions share its worker budget, and a job runs only once all of its
// dependencies have succeeded. Failure handling is fail-fast: the first
// job error cancels the submission's context, in-flight siblings observe
// the cancellation, queued jobs never start, and transitively dependent
// jobs are skipped outright. Jobs that fail with an error the scheduler's
// retry predicate accepts (transient fault-injected failures) are retried
// up to MaxRetries times before the failure is propagated.
//
// Simulated time is accounted deterministically: each job reports a
// simulated duration, and the scheduler derives per-job start/finish times
// and the submission's makespan from the dependency structure alone —
// identical numbers regardless of how the real goroutines interleave.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"musketeer/internal/cluster"
	"musketeer/internal/obs"
)

// Job is one schedulable unit of a submission.
type Job struct {
	// Name labels the job in errors and outcomes.
	Name string
	// Deps are indices (into the submitted slice) of jobs that must
	// succeed before this one is dispatched.
	Deps []int
	// Run executes one attempt of the job. attempt is 0-based and
	// increments across retries. The context carries the submission's
	// cancellation; long-running jobs must observe it.
	Run func(ctx context.Context, attempt int) (Result, error)
	// Predicted is the cost model's predicted simulated duration. When the
	// scheduler speculates (Options.SpeculativeMultiple > 0), an attempt
	// whose reported duration exceeds the multiple of this prediction gets a
	// backup attempt; the first finisher (in simulated time) wins. Zero
	// disables speculation for this job.
	Predicted cluster.Seconds
}

// Result is what a successful job attempt reports back.
type Result struct {
	// Duration is the job's simulated duration; the scheduler derives the
	// submission's deterministic critical path from these.
	Duration cluster.Seconds
	// Value is an arbitrary payload handed back through the outcome.
	Value any
}

// Outcome reports one job of a finished submission.
type Outcome struct {
	Name     string
	Value    any
	Duration cluster.Seconds
	// Start and Finish place the job on the submission's simulated
	// timeline: Start is the latest dependency finish, Finish is
	// Start+Duration. Zero for failed or skipped jobs.
	Start, Finish cluster.Seconds
	// Attempts counts Run invocations (0 when the job never started).
	Attempts int
	// QueueWait is how long the job waited (real wall clock) between
	// submission and dispatch — time spent queued behind admission control
	// and unresolved dependencies. RunWall is the wall-clock time spent in
	// Run calls, retries included. Both are zero for skipped jobs.
	QueueWait, RunWall time.Duration
	// Err is the job's final error, nil on success or skip.
	Err error
	// Skipped marks a job that never ran: a dependency failed or the
	// submission was cancelled before dispatch.
	Skipped bool
	// Speculated marks a job that ran a backup attempt after its original
	// exceeded the speculation threshold; BackupWon reports that the backup
	// finished first (its result was kept). SpecWaste is the simulated time
	// the losing attempt burned before being cancelled — real cluster work
	// that bought no progress, included in the report's SumDuration but
	// never in the critical path.
	Speculated bool
	BackupWon  bool
	SpecWaste  cluster.Seconds
}

// JobError wraps a failed job's root-cause error with its name.
type JobError struct {
	Job string
	Err error
}

func (e *JobError) Error() string { return fmt.Sprintf("job %s: %v", e.Job, e.Err) }
func (e *JobError) Unwrap() error { return e.Err }

// Report aggregates a finished submission. Outcomes is index-aligned with
// the submitted jobs.
type Report struct {
	Outcomes []Outcome
	// Makespan is the critical path through the job DAG in simulated
	// time (zero when any job failed).
	Makespan cluster.Seconds
	// SumDuration totals every completed job's simulated duration.
	SumDuration cluster.Seconds
	// Err is the first job failure (root cause, wrapped in a *JobError),
	// or the submission context's error when it was cancelled externally.
	Err error
}

// Options configures a Scheduler.
type Options struct {
	// Workers bounds how many jobs run at once across every concurrent
	// submission sharing the scheduler (admission control). <= 0 selects
	// max(4, GOMAXPROCS).
	Workers int
	// MaxRetries is how many times a failed job is re-run when Retryable
	// accepts its error. Zero disables retry.
	MaxRetries int
	// Retryable classifies errors as transient. Nil retries nothing.
	Retryable func(error) bool
	// SpeculativeMultiple enables straggler mitigation: when a job with a
	// non-zero Predicted cost reports a duration exceeding this multiple of
	// the prediction, the scheduler launches a backup attempt and keeps
	// whichever finishes first in simulated time. Zero disables speculation.
	SpeculativeMultiple float64
	// Metrics, when set, receives scheduler counters and latency
	// histograms (jobs completed/failed/skipped, retries, queue wait and
	// run wall time). Nil disables metric recording at zero cost.
	Metrics *obs.Registry
}

// Scheduler dispatches job DAGs under shared admission control.
type Scheduler struct {
	opts Options
	sem  chan struct{}
}

// New builds a scheduler.
func New(opts Options) *Scheduler {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
		if opts.Workers < 4 {
			opts.Workers = 4
		}
	}
	return &Scheduler{opts: opts, sem: make(chan struct{}, opts.Workers)}
}

// Workers returns the scheduler's admission bound.
func (s *Scheduler) Workers() int { return cap(s.sem) }

// Run executes the job DAG under the scheduler's admission control and
// blocks until every job has completed, failed, or been skipped.
func (s *Scheduler) Run(ctx context.Context, jobs []Job) *Report {
	return s.run(ctx, jobs, true)
}

// RunNested executes a job DAG on behalf of work that is already inside an
// admitted job (e.g. the WHILE driver dispatching one iteration's body
// jobs). It bypasses admission control — the parent already holds a worker
// slot, and waiting for more slots from within it could deadlock — but
// keeps dependency dispatch, fail-fast cancellation, and retry.
func (s *Scheduler) RunNested(ctx context.Context, jobs []Job) *Report {
	return s.run(ctx, jobs, false)
}

func (s *Scheduler) run(ctx context.Context, jobs []Job, admission bool) *Report {
	n := len(jobs)
	rep := &Report{Outcomes: make([]Outcome, n)}
	if n == 0 {
		return rep
	}
	pending := make([]int, n)      // unresolved dependency counts
	dependents := make([][]int, n) // reverse edges
	for i, j := range jobs {
		for _, d := range j.Deps {
			if d < 0 || d >= n || d == i {
				rep.Err = fmt.Errorf("sched: job %d (%s) has invalid dependency %d", i, j.Name, d)
				return rep
			}
			pending[i]++
			dependents[d] = append(dependents[d], i)
		}
	}
	// Reject cyclic dependency graphs up front (Kahn's algorithm): a cycle
	// reached mid-run would leave the event loop waiting forever.
	{
		deg := append([]int(nil), pending...)
		queue := make([]int, 0, n)
		for i, p := range deg {
			if p == 0 {
				queue = append(queue, i)
			}
		}
		seen := 0
		for len(queue) > 0 {
			i := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			seen++
			for _, dep := range dependents[i] {
				if deg[dep]--; deg[dep] == 0 {
					queue = append(queue, dep)
				}
			}
		}
		if seen != n {
			rep.Err = fmt.Errorf("sched: dependency cycle among %d of %d jobs", n-seen, n)
			return rep
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Every job is considered submitted now; queue wait measures from here
	// to the moment its first attempt begins (dependency resolution plus
	// admission control).
	submitted := time.Now()

	type completion struct {
		i   int
		out Outcome
	}
	completions := make(chan completion, n)
	start := func(i int) {
		go func() {
			completions <- completion{i, s.runJob(runCtx, jobs[i], admission, submitted)}
		}()
	}

	// resolve records job i's outcome and dispatches (or skips) newly
	// unblocked dependents. It runs only on this goroutine, so the
	// bookkeeping needs no locks.
	finished := 0
	blocked := make([]bool, n) // some dependency failed or was skipped
	var resolve func(i int, out Outcome)
	resolve = func(i int, out Outcome) {
		rep.Outcomes[i] = out
		finished++
		if out.Err != nil && rep.Err == nil {
			rep.Err = &JobError{Job: jobs[i].Name, Err: out.Err}
			cancel() // fail fast: stop in-flight siblings, never start queued jobs
		}
		failed := out.Err != nil || out.Skipped
		for _, dep := range dependents[i] {
			if failed {
				blocked[dep] = true
			}
			pending[dep]--
			if pending[dep] > 0 {
				continue
			}
			if blocked[dep] {
				resolve(dep, Outcome{Name: jobs[dep].Name, Skipped: true})
			} else {
				start(dep)
			}
		}
	}

	for i := range jobs {
		if pending[i] == 0 {
			start(i)
		}
	}
	for finished < n {
		c := <-completions
		resolve(c.i, c.out)
	}
	if rep.Err == nil {
		if err := ctx.Err(); err != nil {
			rep.Err = err
		}
	}

	// Deterministic simulated-time accounting over the dependency DAG. A
	// speculated job's losing attempt consumed real cluster time that the
	// critical path never sees; SumDuration bills it.
	for _, out := range rep.Outcomes {
		rep.SumDuration += out.Duration + out.SpecWaste
	}
	if rep.Err == nil {
		deps, dur := make([][]int, n), make([]cluster.Seconds, n)
		for i := range jobs {
			deps[i], dur[i] = jobs[i].Deps, rep.Outcomes[i].Duration
		}
		var start []cluster.Seconds
		start, rep.Makespan = CriticalPath(deps, dur)
		for i := range rep.Outcomes {
			rep.Outcomes[i].Start, rep.Outcomes[i].Finish = start[i], start[i]+dur[i]
		}
	}
	s.recordMetrics(rep)
	return rep
}

// CriticalPath places jobs on the simulated timeline: job i takes dur[i] and
// starts when the last of deps[i] (indices into the same slices, acyclic)
// has finished. It returns each job's start and the latest finish — the one
// dependency accounting behind a submission's measured makespan and the
// planner's predicted one.
func CriticalPath(deps [][]int, dur []cluster.Seconds) (start []cluster.Seconds, makespan cluster.Seconds) {
	start = make([]cluster.Seconds, len(dur))
	done := make([]bool, len(dur))
	var finish func(i int) cluster.Seconds
	finish = func(i int) cluster.Seconds {
		if !done[i] {
			done[i] = true
			for _, d := range deps[i] {
				start[i] = max(start[i], finish(d))
			}
		}
		return start[i] + dur[i]
	}
	for i := range dur {
		makespan = max(makespan, finish(i))
	}
	return start, makespan
}

// recordMetrics publishes one finished submission's outcomes to the
// scheduler's metrics registry (a free no-op when Options.Metrics is nil).
func (s *Scheduler) recordMetrics(rep *Report) {
	m := s.opts.Metrics
	if m == nil {
		return
	}
	for _, out := range rep.Outcomes {
		switch {
		case out.Skipped:
			m.Counter("sched_jobs_skipped_total").Add(1)
		case out.Err != nil:
			m.Counter("sched_jobs_failed_total").Add(1)
		default:
			m.Counter("sched_jobs_completed_total").Add(1)
		}
		if out.Speculated {
			m.Counter("sched_speculative_attempts_total").Add(1)
			if out.BackupWon {
				m.Counter("sched_speculative_wins_total").Add(1)
			}
			m.Histogram("sched_speculative_waste_s").Observe(float64(out.SpecWaste))
		}
		if retries := out.Attempts - 1; retries > 0 {
			if out.Speculated {
				retries-- // the backup attempt is speculation, not a retry
			}
			if retries > 0 {
				m.Counter("sched_job_retries_total").Add(int64(retries))
			}
		}
		if out.Attempts > 0 {
			m.Histogram("sched_queue_wait_ms").Observe(float64(out.QueueWait) / float64(time.Millisecond))
			m.Histogram("sched_run_ms").Observe(float64(out.RunWall) / float64(time.Millisecond))
		}
	}
}

// runJob admits and executes one job, retrying transient failures.
func (s *Scheduler) runJob(ctx context.Context, j Job, admission bool, submitted time.Time) Outcome {
	out := Outcome{Name: j.Name}
	if admission {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-ctx.Done():
			// Cancelled while queued: the job never started.
			out.Skipped = true
			return out
		}
	}
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if attempt == 0 {
				out.Skipped = true
			} else {
				out.Err = err
			}
			return out
		}
		if attempt == 0 {
			// Dispatched: dependency resolution and admission are behind us.
			out.QueueWait = time.Since(submitted)
		}
		out.Attempts = attempt + 1
		attemptStart := time.Now()
		res, err := j.Run(ctx, attempt)
		out.RunWall += time.Since(attemptStart)
		if err == nil {
			out.Value, out.Duration = res.Value, res.Duration
			s.speculate(ctx, j, &out, attempt)
			return out
		}
		out.Err = err
		if attempt >= s.opts.MaxRetries || s.opts.Retryable == nil || !s.opts.Retryable(err) {
			return out
		}
		out.Err = nil // retrying
	}
}

// specCtxKey marks a job context as belonging to a speculative backup
// attempt, so the backup itself is never re-speculated.
type specCtxKey struct{}

// IsSpeculative reports whether ctx belongs to a speculative backup attempt
// launched by the scheduler's straggler mitigation.
func IsSpeculative(ctx context.Context) bool {
	v, _ := ctx.Value(specCtxKey{}).(bool)
	return v
}

// speculate implements straggler mitigation on the simulated timeline. The
// backup launches at T0 = multiple × predicted — the moment the scheduler
// notices the original has overrun — and runs as a fresh attempt (new fault
// draws: it will usually not land on the same slow node). Whichever attempt
// finishes first in simulated time wins; the loser is cancelled at that
// moment and its burn since T0 is accounted as SpecWaste.
func (s *Scheduler) speculate(ctx context.Context, j Job, out *Outcome, attempt int) {
	mult := s.opts.SpeculativeMultiple
	if mult <= 0 || j.Predicted <= 0 || IsSpeculative(ctx) {
		return
	}
	launch := cluster.Seconds(mult * float64(j.Predicted))
	if out.Duration <= launch {
		return
	}
	out.Speculated = true
	attemptStart := time.Now()
	res, err := j.Run(context.WithValue(ctx, specCtxKey{}, true), attempt+1)
	out.RunWall += time.Since(attemptStart)
	out.Attempts++
	if err != nil {
		// A failed backup changes nothing: the original already succeeded.
		return
	}
	backupFinish := launch + res.Duration
	if backupFinish < out.Duration {
		// Backup won: its result stands and the job finishes at the backup's
		// finish; the original is cancelled at that moment.
		out.BackupWon = true
		out.Value = res.Value
		out.Duration = backupFinish
	}
	// Both attempts ran from launch until the winner finished; the loser's
	// share of that overlap is speculation's bill.
	out.SpecWaste = out.Duration - launch
}
