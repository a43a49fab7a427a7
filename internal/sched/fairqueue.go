package sched

import (
	"errors"
	"sync"
)

// FairQueue is the serve mode's tenant-level admission layer: it sits in
// front of the job Scheduler and decides *whose* submission runs next, the
// way the Scheduler decides *which job* of a submission runs next. Each
// tenant gets its own bounded FIFO; a fixed worker pool drains the queues
// by deficit round robin, so a tenant flooding submissions advances other
// tenants' positions instead of starving them:
//
//   - Every tenant accrues Quantum×weight credits when the round-robin
//     cursor visits it; dispatching one submission spends one credit.
//     Unspent credits (a tenant capped by MaxInFlight) carry over, so
//     backpressured tenants are not penalized for the capacity they could
//     not use.
//   - MaxInFlight bounds a tenant's concurrently running submissions, so a
//     single tenant cannot occupy every worker even when alone in the
//     queue just before a burst from someone else.
//   - MaxQueued bounds a tenant's waiting submissions; beyond it Submit
//     rejects with ErrQueueFull, which the server surfaces as HTTP 429 —
//     admission control by rejection rather than unbounded buffering.
//
// FairQueue is safe for concurrent use. Work items are opaque funcs; the
// queue neither interprets nor times them.
type FairQueue struct {
	opts FairOptions

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantQueue
	// order is the round-robin ring of tenants ever seen, in first-submit
	// order; rr is the cursor. Tenant count is small (it only grows), so an
	// empty tenant staying in the ring costs one skip per round.
	order  []string
	rr     int
	wg     sync.WaitGroup
	closed bool
}

// FairOptions configures a FairQueue. The zero value of each field picks a
// sensible default.
type FairOptions struct {
	// Workers is the number of submissions run concurrently across all
	// tenants. Default 4.
	Workers int
	// MaxQueued bounds each tenant's waiting submissions. Default 64.
	MaxQueued int
	// MaxInFlight bounds each tenant's concurrently running submissions.
	// Default: Workers (a lone tenant may use the whole pool).
	MaxInFlight int
	// Quantum is the credit each weight unit earns per round-robin visit.
	// Default 1.
	Quantum int
	// Weights maps tenant name to relative weight; absent tenants weigh 1.
	Weights map[string]int
}

// ErrQueueFull is returned by Submit when the tenant's queue is at
// MaxQueued.
var ErrQueueFull = errors.New("sched: tenant queue full")

// ErrQueueClosed is returned by Submit after Close.
var ErrQueueClosed = errors.New("sched: fair queue closed")

type tenantQueue struct {
	name     string
	waiting  []func()
	deficit  int
	inflight int
}

// NewFairQueue starts a fair queue with opts.Workers dispatch workers.
func NewFairQueue(opts FairOptions) *FairQueue {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.MaxQueued <= 0 {
		opts.MaxQueued = 64
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = opts.Workers
	}
	if opts.Quantum <= 0 {
		opts.Quantum = 1
	}
	f := &FairQueue{
		opts:    opts,
		tenants: make(map[string]*tenantQueue),
	}
	f.cond = sync.NewCond(&f.mu)
	f.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go f.worker()
	}
	return f
}

// Submit enqueues run for the tenant. It returns ErrQueueFull when the
// tenant's queue is at capacity and ErrQueueClosed after Close; run is
// never invoked on error.
func (f *FairQueue) Submit(tenant string, run func()) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrQueueClosed
	}
	tq := f.tenants[tenant]
	if tq == nil {
		tq = &tenantQueue{name: tenant}
		f.tenants[tenant] = tq
		f.order = append(f.order, tenant)
	}
	if len(tq.waiting) >= f.opts.MaxQueued {
		return ErrQueueFull
	}
	tq.waiting = append(tq.waiting, run)
	f.cond.Signal()
	return nil
}

// Queued reports the tenant's waiting submissions.
func (f *FairQueue) Queued(tenant string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if tq := f.tenants[tenant]; tq != nil {
		return len(tq.waiting)
	}
	return 0
}

// InFlight reports the tenant's running submissions.
func (f *FairQueue) InFlight(tenant string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if tq := f.tenants[tenant]; tq != nil {
		return tq.inflight
	}
	return 0
}

// Close stops the workers and waits for in-flight submissions to finish.
// Waiting submissions that were never dispatched are discarded; callers
// that track per-submission state observe them as still queued.
func (f *FairQueue) Close() {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		f.cond.Broadcast()
	}
	f.mu.Unlock()
	// The drain mirrors net/http.Server.Close: the wait is bounded by
	// in-flight job completion, so there is nothing for a context to cancel
	// early.
	f.wg.Wait()
}

func (f *FairQueue) weight(tenant string) int {
	if w, ok := f.opts.Weights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// next pops the next submission by deficit round robin. Caller holds f.mu.
// Returns nil when nothing is dispatchable (all queues empty, or every
// non-empty tenant is at its in-flight cap).
func (f *FairQueue) next() (*tenantQueue, func()) {
	n := len(f.order)
	if n == 0 {
		return nil, nil
	}
	// One ring scan; an empty deficit refills on visit, so every eligible
	// tenant dispatches when the cursor reaches it. A tenant at its
	// in-flight cap is skipped without a refill, so its credit reflects
	// capacity it could actually have used.
	for i := 0; i < n; i++ {
		tq := f.tenants[f.order[f.rr]]
		if len(tq.waiting) > 0 && tq.inflight < f.opts.MaxInFlight {
			if tq.deficit < 1 {
				tq.deficit += f.opts.Quantum * f.weight(tq.name)
			}
			tq.deficit--
			run := tq.waiting[0]
			tq.waiting[0] = nil
			tq.waiting = tq.waiting[1:]
			if len(tq.waiting) == 0 {
				// Fully drained tenants restart from a clean slate: banked
				// credit must not let a later burst monopolize the workers.
				tq.deficit = 0
			}
			// The cursor advances past the dispatching tenant only once its
			// credit is spent, so weight w yields up to w consecutive
			// dispatches per visit.
			if tq.deficit < 1 {
				f.rr = (f.rr + 1) % n
			}
			return tq, run
		}
		f.rr = (f.rr + 1) % n
	}
	return nil, nil
}

// worker runs dispatched submissions until Close.
func (f *FairQueue) worker() {
	defer f.wg.Done()
	for {
		f.mu.Lock()
		var tq *tenantQueue
		var run func()
		for {
			if f.closed {
				f.mu.Unlock()
				return
			}
			if tq, run = f.next(); run != nil {
				break
			}
			f.cond.Wait()
		}
		tq.inflight++
		f.mu.Unlock()

		run()

		f.mu.Lock()
		tq.inflight--
		// A finished submission may unblock this tenant (in-flight cap) or
		// free a worker for anyone; wake all waiters.
		f.cond.Broadcast()
		f.mu.Unlock()
	}
}
