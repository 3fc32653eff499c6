// Package runner is the deterministic worker-pool harness that fans
// independent simulation jobs across OS threads. Every experiment point
// (one workload × scheme × ablation configuration) builds its own
// machine.Machine, so jobs share no mutable state and can execute in any
// interleaving; the pool collects results strictly by input index, which
// makes the rendered output of a parallel run byte-identical to the
// serial run. The harness is the substrate for the experiment registry
// (internal/exp), the parallel CLIs, and every future scaling study
// (sharding, open-loop load generation, multi-backend).
package runner

import (
	"context"
	"errors"
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

// Map runs fn(ctx, i, items[i]) for every item on up to workers
// goroutines and returns the results in input order. workers <= 0 uses
// GOMAXPROCS. The first failing job (lowest input index) determines the
// returned error, and its failure cancels the context handed to jobs
// that have not completed, so long sweeps stop promptly. Jobs must be
// independent: fn owns everything it touches except read-only inputs.
func Map[I, O any](ctx context.Context, workers int, items []I, fn func(ctx context.Context, i int, item I) (O, error)) ([]O, error) {
	n := len(items)
	if n == 0 {
		return nil, ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	out := make([]O, n)
	if workers == 1 {
		// Serial fast path: identical semantics, no goroutines.
		for i, item := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			o, err := fn(ctx, i, item)
			if err != nil {
				return nil, err
			}
			out[i] = o
		}
		return out, nil
	}

	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := jctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				o, err := fn(jctx, i, items[i])
				if err != nil {
					errs[i] = err
					cancel()
					continue
				}
				out[i] = o
			}
		}()
	}
	wg.Wait()

	// Deterministic error selection: the lowest-index job error wins,
	// preferring real failures over cancellations it caused.
	var ctxErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctxErr == nil {
				ctxErr = err
			}
			continue
		}
		return nil, err
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	return out, nil
}
