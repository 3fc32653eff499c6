package exp

import (
	"fmt"
	"sync"

	"qei/internal/metrics"
	"qei/internal/runner"
	"qei/internal/scheme"
	"qei/internal/workload"
)

// matrixRow is one benchmark's row of the evaluation matrix of Sec. VI-B
// and VII-A: the benchmark run in software, in Full and NonROIOnly
// mode, and under each integration scheme in Full mode, all warm.
// Fig. 7, Fig. 9, the bench records and Fig. 8's software pair are
// readings of it, and a memo simulates it once for all of them.
type matrixRow struct {
	bench workload.Benchmark
	// sw and nonROI are the software runs in Full and NonROIOnly mode.
	sw, nonROI workload.Run
	// hw holds each scheme's Full-mode QEI run, with metrics attached.
	hw map[scheme.Kind]workload.Run
}

// runMatrix simulates the matrix over benches, one job per benchmark
// across par workers (<= 0 means GOMAXPROCS), and returns its rows in
// bench order.
func runMatrix(benches []workload.Benchmark, par int) ([]matrixRow, error) {
	return runner.Map(par, benches, func(b workload.Benchmark) (matrixRow, error) {
		row := matrixRow{bench: b, hw: map[scheme.Kind]workload.Run{}}
		var err error
		if row.sw, err = checked(workload.RunBaseline(b, workload.Full, workload.WithWarmup())); err != nil {
			return row, err
		}
		if row.nonROI, err = checked(workload.RunBaseline(b, workload.NonROIOnly, workload.WithWarmup())); err != nil {
			return row, err
		}
		for _, k := range scheme.Kinds() {
			hw, err := checked(workload.RunQEI(b, k, workload.Full,
				workload.WithWarmup(), workload.WithMetrics(metrics.NewRegistry())))
			if err != nil {
				return row, err
			}
			row.hw[k] = hw
		}
		return row, nil
	})
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

// memo holds, per Scale, the simulations more than one renderer reads:
// the evaluation matrix and the batch sweep. Each is computed once, by
// the first reader and with its worker count (every output is the same
// at any count); readers must not modify what they get.
type memo struct {
	matrices [FullScale + 1]once[[]matrixRow]
	batches  [FullScale + 1]once[[]BenchResult]
}

// matrix returns the evaluation matrix at s.
func (m *memo) matrix(s Scale, par int) ([]matrixRow, error) {
	return m.matrices[s].get(func() ([]matrixRow, error) {
		return runMatrix(benchesFor(s), par)
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
