package sweep

import (
	"runtime"
	"sync"
)

// Parallel runs fn(i) for every i in [0, n) across a pool of worker
// goroutines: fanOut without a second stage. workers <= 0 means
// runtime.GOMAXPROCS(0). Every index runs even if an earlier one fails;
// the error for the smallest failing index is returned, so the outcome
// does not depend on scheduling.
func Parallel(n, workers int, fn func(i int) error) error {
	return fanOut(n, workers, func(i int) ([]struct{}, error) { return nil, fn(i) }, nil)
}

// fanOut runs build(k) for every k in [0, n), then run(t) for every
// task t the builds return, across a pool of worker goroutines. A worker
// takes a queued task before it starts the next build, so builds start
// in index order, tasks run in the order they were queued on the whole
// pool, and only about one build per worker has tasks waiting. A task's
// error counts as its build's: the error returned is the smallest
// failing build's own, or else its earliest failing task's, so it does
// not depend on scheduling.
func fanOut[T any](n, workers int, build func(k int) ([]T, error), run func(T) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type task struct {
		k, i int // build k's i-th task
		t    T
	}
	var (
		mu       sync.Mutex
		changed  = sync.NewCond(&mu)
		queue    []task
		next     int // the next build to start
		building int // builds in progress
		errs     = make([]error, n)
		errAt    = make([]int, n) // the task errs[k] came from; -1 the build
	)
	fail := func(k, i int, err error) {
		if err != nil && (errs[k] == nil || i < errAt[k]) {
			errs[k], errAt[k] = err, i
		}
	}
	work := func() {
		mu.Lock()
		defer mu.Unlock()
		for {
			switch {
			case len(queue) > 0:
				tk := queue[0]
				queue = queue[1:]
				mu.Unlock()
				err := run(tk.t)
				mu.Lock()
				fail(tk.k, tk.i, err)
			case next < n:
				k := next
				next++
				building++
				mu.Unlock()
				ts, err := build(k)
				mu.Lock()
				building--
				fail(k, -1, err)
				for i, t := range ts {
					queue = append(queue, task{k, i, t})
				}
				changed.Broadcast()
			case building > 0:
				changed.Wait() // a build may still queue tasks
			default:
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
