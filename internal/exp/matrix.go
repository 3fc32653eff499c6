package exp

import (
	"fmt"
	"sync"

	"qei/internal/metrics"
	"qei/internal/runner"
	"qei/internal/scheme"
	"qei/internal/workload"
)

// The evaluation of Sec. VI-B and VII reads one set of workload runs
// across Figs. 1, 7-12, the bench records and the ablations. Each run is
// a cell, named by everything that decides its result, and a memo
// simulates each cell once for every table that reads it.

// warm and cold name a cell's warm-up setting.
const warm, cold = true, false

// cell is one workload run as a comparable key. Two cells are equal
// exactly when their runs are the same simulation, so the bench types
// must be comparable (every workload benchmark is).
type cell struct {
	bench workload.Benchmark
	// params sizes the accelerator; the zero Params is the software
	// baseline.
	params scheme.Params
	// nb runs QUERY_NB (in Full mode) instead of blocking QUERY_B.
	nb   bool
	mode workload.Mode
	warm bool
	// batch is the QUERY_B issue batch, always explicit so that a
	// WithBatch row equal to workload.DefaultBatch keys equal to the
	// default; zero (the driver's default) otherwise.
	batch int
}

// swCell is bench run in software.
func swCell(b workload.Benchmark, mode workload.Mode, warm bool) cell {
	return cell{bench: b, mode: mode, warm: warm}
}

// bCell is bench run with blocking QUERY_B on the accelerator p sizes,
// at the default batch.
func bCell(b workload.Benchmark, p scheme.Params, mode workload.Mode, warm bool) cell {
	return cell{bench: b, params: p, mode: mode, warm: warm, batch: workload.DefaultBatch(p)}
}

// rowCells gives a benchmark's row of the evaluation matrix in mode: its
// warm software cell, then its warm QUERY_B cell under each
// scheme.Kinds() scheme.
func rowCells(mode workload.Mode) func(workload.Benchmark) []cell {
	return func(b workload.Benchmark) []cell {
		cells := []cell{swCell(b, mode, warm)}
		for _, k := range scheme.Kinds() {
			cells = append(cells, bCell(b, scheme.ForKind(k), mode, warm))
		}
		return cells
	}
}

// simulate runs c through its driver with a metrics registry attached.
func simulate(c cell) (workload.Run, error) {
	opts := []workload.RunOption{workload.WithMetrics(metrics.NewRegistry())}
	if c.warm {
		opts = append(opts, workload.WithWarmup())
	}
	switch {
	case c.params == scheme.Params{}:
		return workload.RunBaseline(c.bench, c.mode, opts...)
	case c.nb:
		return workload.RunQEINonBlocking(c.bench, c.params, opts...)
	}
	return workload.RunQEIWithParams(c.bench, c.params, c.mode, append(opts, workload.WithBatch(c.batch))...)
}

// once is a value its first reader computes.
type once[T any] struct {
	sync.Once
	v   T
	err error
}

func (o *once[T]) get(compute func() (T, error)) (T, error) {
	o.Do(func() { o.v, o.err = compute() })
	return o.v, o.err
}

// memo holds the simulations more than one renderer reads: every cell
// (a *once[workload.Run] per cell), and per Scale the batch sweep. Each
// is computed once, by its first reader (every output is the same at
// any worker count); readers must not modify what they get.
type memo struct {
	cells   sync.Map
	batches [FullScale + 1]once[[]BenchResult]
	// sim simulates a cell on a miss; nil means simulate. Tests
	// substitute it to see which cells are simulated.
	sim func(cell) (workload.Run, error)
}

// run returns c's answer-checked run, simulating c on the memo's first
// request for it.
func (m *memo) run(c cell) (workload.Run, error) {
	o, _ := m.cells.LoadOrStore(c, new(once[workload.Run]))
	return o.(*once[workload.Run]).get(func() (workload.Run, error) {
		if m.sim != nil {
			return checked(m.sim(c))
		}
		return checked(simulate(c))
	})
}

// readCells renders one group of results per item from the runs of the
// item's cells, in cells' order. Items fan across par workers, and the
// groups are concatenated in input order.
func readCells[T, R any](m *memo, par int, items []T, cells func(T) []cell, read func(T, []workload.Run) []R) ([]R, error) {
	return mapJobs(par, items, func(it T) ([]R, error) {
		cs := cells(it)
		runs := make([]workload.Run, len(cs))
		for i, c := range cs {
			var err error
			if runs[i], err = m.run(c); err != nil {
				return nil, err
			}
		}
		return read(it, runs), nil
	})
}

// batch returns the batch sweep's records at s.
func (m *memo) batch(s Scale, par int) ([]BenchResult, error) {
	return m.batches[s].get(func() ([]BenchResult, error) {
		return runner.Map(par, batchJobsFor(s), func(job batchJob) (BenchResult, error) {
			return runBatchCell(s, job)
		})
	})
}

// modeNames names each workload.Mode in answer-check errors.
var modeNames = map[workload.Mode]string{workload.Full: "Full", workload.ROIOnly: "ROIOnly", workload.NonROIOnly: "NonROIOnly"}

// checked is the answer check every simulated run of this package goes
// through: it passes err on, and fails a run in which any probe
// answered differently from its plan, naming the benchmark, scheme and
// mode.
func checked(r workload.Run, err error) (workload.Run, error) {
	if err == nil && r.Mismatches != 0 {
		err = fmt.Errorf("qei: %s/%s/%s produced %d wrong results", r.Name, r.Scheme, modeNames[r.Mode], r.Mismatches)
	}
	return r, err
}
