// Package runner is the deterministic worker-pool harness that fans
// independent simulation jobs across OS threads. Every experiment point
// (one workload × scheme × ablation configuration) has exclusive use of
// a machine.Machine, built for it or reset to the state machine.New
// builds, so jobs share no mutable state and can execute in any
// interleaving; the pool collects results strictly by input index, which
// makes the rendered output of a parallel run byte-identical to the
// serial run. The harness is the substrate for the experiment registry
// (internal/exp), the parallel CLIs, and every future scaling study
// (sharding, open-loop load generation, multi-backend).
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested parallelism: n when positive, else
// GOMAXPROCS (the number of OS threads Go will actually run on).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(items[i]) for every item on up to workers goroutines and
// returns the results in input order. workers <= 0 uses GOMAXPROCS.
// The first failing job (lowest input index) determines the returned
// error, and once any job fails no new job starts, so long sweeps stop
// promptly. Jobs must be independent: fn owns everything it touches
// except read-only inputs.
func Map[I, O any](workers int, items []I, fn func(item I) (O, error)) ([]O, error) {
	n := len(items)
	if n == 0 {
		return nil, nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	out := make([]O, n)
	if workers == 1 {
		// Serial fast path: identical semantics, no goroutines.
		for i, item := range items {
			o, err := fn(item)
			if err != nil {
				return nil, err
			}
			out[i] = o
		}
		return out, nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				o, err := fn(items[i])
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = o
			}
		}()
	}
	wg.Wait()

	// Deterministic error selection: jobs are claimed in index order, so
	// every job below a failed one has run, and the lowest-index error
	// is the serial path's.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
