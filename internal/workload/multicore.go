package workload

import (
	"fmt"

	"qei/internal/cfa"
	"qei/internal/cpu"
	"qei/internal/isa"
	"qei/internal/machine"
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

// RunMultiCore runs bench's query stream split across the given number
// of cores under one integration scheme, ROI-only, with warmup.
func RunMultiCore(bench Benchmark, kind scheme.Kind, cores int) (MultiCoreResult, error) {
	if cores < 1 {
		return MultiCoreResult{}, fmt.Errorf("workload: need at least one core")
	}
	m := machine.NewDefault()
	if cores > m.Cfg.Cores {
		return MultiCoreResult{}, fmt.Errorf("workload: %d cores exceed the chip's %d", cores, m.Cfg.Cores)
	}
	buildStart := m.AS.Brk()
	plan, err := bench.Build(m)
	if err != nil {
		return MultiCoreResult{}, err
	}
	buildEnd := m.AS.Brk()
	m.WarmLLC(buildStart, buildEnd)

	reg := cfa.DefaultRegistry()
	res := MultiCoreResult{Scheme: kind.String(), Cores: cores}

	// Accelerators: private per core when placed beside the core, shared
	// views otherwise.
	p := scheme.ForKind(kind)
	accels := make([]*qei.Accelerator, cores)
	if p.Placement == scheme.PlaceCore {
		for c := 0; c < cores; c++ {
			accels[c] = qei.New(m, p, reg, c)
		}
	} else {
		base := qei.New(m, p, reg, 0)
		accels[0] = base
		for c := 1; c < cores; c++ {
			accels[c] = base.ViewForCore(c)
		}
	}
	cpus := make([]*cpu.Core, cores)
	for c := 0; c < cores; c++ {
		cpus[c] = m.NewCore(c, accels[c])
	}

	// Split requests across cores, flatten to probes.
	perCore := make([][]Probe, cores)
	for i, req := range plan.Requests {
		c := i % cores
		perCore[c] = append(perCore[c], req.Probes...)
	}

	type pend struct {
		core int
		tag  uint64
		p    Probe
	}
	var pending []pend
	tag := uint64(0)

	// Round-robin across cores in QST-sized batches so the shared
	// accelerator sees interleaved issue times, as concurrent cores
	// would produce.
	batch := 10
	offsets := make([]int, cores)
	remaining := res.Queries
	_ = remaining
	for {
		progress := false
		for c := 0; c < cores; c++ {
			probes := perCore[c]
			if offsets[c] >= len(probes) {
				continue
			}
			progress = true
			end := offsets[c] + batch
			if end > len(probes) {
				end = len(probes)
			}
			b := isa.NewBuilder()
			for _, p := range probes[offsets[c]:end] {
				b.ALUN(6, 0)
				r := b.QueryB(isa.QueryDesc{
					HeaderAddr: p.Header,
					KeyAddr:    p.Key,
					KeyLen:     p.KeyLen,
					Tag:        tag,
				})
				check := b.ALU(r, 0)
				b.Branch(check, false)
				b.ALUN(4, 0)
				pending = append(pending, pend{core: c, tag: tag, p: p})
				tag++
				res.Queries++
			}
			offsets[c] = end
			cpus[c].Run(b.Take())
			if err := cpus[c].Err(); err != nil {
				return res, err
			}
		}
		if !progress {
			break
		}
	}

	for _, e := range pending {
		r, ok := accels[e.core].Result(e.tag)
		if !ok || r.Fault != nil || r.Found != e.p.WantFound || (r.Found && r.Value != e.p.WantValue) {
			res.Mismatches++
		}
	}
	for c := 0; c < cores; c++ {
		if now := cpus[c].Now(); now > res.Makespan {
			res.Makespan = now
		}
		if fin := accels[c].Stats().LastFinish; fin > res.Makespan {
			res.Makespan = fin
		}
	}
	if res.Makespan > 0 {
		res.Throughput = float64(res.Queries) * 1000 / float64(res.Makespan)
	}
	return res, nil
}
