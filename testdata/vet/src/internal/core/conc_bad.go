package core

import "sync"

// pollAll carries seeded violations [scheduler-only-concurrency]: core is
// not a kernel package, so even a properly joined hand-rolled fork-join
// must go through sched.Scheduler — the go statement and every WaitGroup
// method are findings.
func pollAll(fns []func()) {
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			fn()
		}(fn)
	}
	wg.Wait()
}
