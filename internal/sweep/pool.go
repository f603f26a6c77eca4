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
// error counts as its build's.
func fanOut[T any](n, workers int, build func(k int) ([]T, error), run func(T) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type task struct {
		k int
		t T
	}
	var (
		mu       sync.Mutex
		changed  = sync.NewCond(&mu)
		queue    []task
		next     int // the next build to start
		building int // builds in progress
		errs     = make([]error, n)
	)
	fail := func(k int, err error) {
		if errs[k] == nil {
			errs[k] = err
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
				fail(tk.k, err)
			case next < n:
				k := next
				next++
				building++
				mu.Unlock()
				ts, err := build(k)
				mu.Lock()
				building--
				fail(k, err)
				for _, t := range ts {
					queue = append(queue, task{k, t})
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
