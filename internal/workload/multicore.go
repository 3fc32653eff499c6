package workload

import (
	"fmt"

	"qei/internal/cpu"
	"qei/internal/qei"
	"qei/internal/scheme"
)

// Multi-core scalability experiment, backing the Scalability column of
// Tab. I: K cores issue independent query streams concurrently. A
// core-placed scheme (Core-integrated) instantiates one private
// accelerator per core (its QST scales with the core count); tile-placed
// schemes (CHA-based) share the 24 distributed instances; device-placed
// schemes funnel every core into one centralized accelerator whose
// comparators and QST become the chokepoint.

// MultiCoreResult summarizes a scalability run.
type MultiCoreResult struct {
	Scheme  string
	Cores   int
	Queries int
	// Makespan is the slowest core's finishing cycle.
	Makespan uint64
	// Throughput is aggregate queries per kilocycle.
	Throughput float64
	Mismatches int
}

// RunMultiCore runs bench's measured query stream split across the
// given number of cores under one integration scheme, ROI-only. There is
// no warm-up pass: the built structure is seeded into the LLC, and the
// makespan counts from cycle 0.
func RunMultiCore(bench Benchmark, kind scheme.Kind, cores int) (MultiCoreResult, error) {
	if cores < 1 {
		return MultiCoreResult{}, fmt.Errorf("workload: need at least one core")
	}
	params := scheme.ForKind(kind)
	s, err := open(bench, &params, nil)
	if err != nil {
		return MultiCoreResult{}, err
	}
	defer s.close()
	if cores > s.m.Desc.Cores {
		return MultiCoreResult{}, fmt.Errorf("workload: %d cores exceed the chip's %d", cores, s.m.Desc.Cores)
	}
	s.warmLLC()
	res := MultiCoreResult{Scheme: kind.String(), Cores: cores}

	// Accelerators: private per core when placed beside the core, shared
	// views of core 0's otherwise.
	accels := []*qei.Accelerator{s.accel}
	cpus := []*cpu.Core{s.core}
	for c := 1; c < cores; c++ {
		var a *qei.Accelerator
		if params.Placement == scheme.PlaceCore {
			a = qei.New(s.m, params, s.fw, c)
		} else {
			a = s.accel.ViewForCore(c)
		}
		accels = append(accels, a)
		cpus = append(cpus, s.m.NewCore(c, a))
	}

	// Split requests across cores, flatten to probes.
	perCore := make([][]Probe, cores)
	for i, req := range s.plan.Requests {
		c := i % cores
		perCore[c] = append(perCore[c], req.Probes...)
	}

	// Round-robin across cores in QST-sized batches so the shared
	// accelerator sees interleaved issue times, as concurrent cores
	// would produce.
	const batch = 10
	pending := make([][]expect, cores)
	for progress := true; progress; {
		progress = false
		for c, probes := range perCore {
			if len(probes) == 0 {
				continue
			}
			progress = true
			chunk := probes[:min(batch, len(probes))]
			perCore[c] = probes[len(chunk):]
			err := s.chunk(cpus[c], func() error {
				for _, p := range chunk {
					emitQueryB(s.b, p, s.tag, false)
					pending[c] = append(pending[c], expect{tag: s.tag, p: p})
					s.tag++
				}
				return nil
			})
			if err != nil {
				return res, err
			}
		}
	}

	for c := range pending {
		mismatches, _ := verify(accels[c], pending[c])
		res.Queries += len(pending[c])
		res.Mismatches += mismatches
		res.Makespan = max(res.Makespan, cpus[c].Now(), accels[c].Stats().LastFinish)
	}
	if res.Makespan > 0 {
		res.Throughput = float64(res.Queries) * 1000 / float64(res.Makespan)
	}
	return res, nil
}
