package stream

import (
	"runtime"
	"sync"
)

// Workers returns the worker-pool width used by the parallel paths:
// GOMAXPROCS, clamped to at least 1 and at most n when n > 0.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w < 1 {
		w = 1
	}
	if n > 0 && w > n {
		w = n
	}
	return w
}

// RunOrdered evaluates fn(0..n-1) on a pool of at most workers goroutines
// and returns the results in index order (the "ordered merge": parallel
// execution, deterministic output). On failure it returns the error of the
// lowest failing index, whatever order the tasks finished in, so the error
// a caller sees does not depend on scheduling; the parallel path still runs
// every task to completion.
func RunOrdered[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	if workers <= 0 || workers > n {
		workers = n
	}
	workers = Workers(workers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			var err error
			if out[i], err = fn(i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	var (
		wg   sync.WaitGroup
		errs = make([]error, n)
		next = make(chan int)
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
