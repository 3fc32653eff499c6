package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"qei/internal/metrics"
	"qei/internal/scheme"
	"qei/internal/workload"
)

// softwareScheme labels the matrix's baseline cells.
const softwareScheme = "software"

// paperCell is one run of the matrix: a benchmark on the software
// baseline or under one integration scheme.
type paperCell struct {
	bench, scheme               string
	cycles                      uint64
	queries, requests, mismatch int
}

// paperPass is one pass over the paper's Fig. 7 matrix: every benchmark
// on the software baseline and under each of the five schemes, Full
// mode, warmed.
type paperPass struct {
	cells []paperCell
	rec   *recorder
	// nom holds setup and run at the nominal machine speed, each
	// benchmark's cells scaled by a reference time taken just before
	// them: a pass is long enough for the machine's speed to drift.
	nom nominal
	// setup is the time inside Benchmark.Build (each cell builds its
	// structures and request stream on a fresh machine); run is the rest.
	setup, run          time.Duration
	alloc, gcs, gcPause uint64
	probes              int
	// sim sums every cell's metrics snapshot.
	sim map[string]uint64
}

func (p *paperPass) wall() time.Duration { return p.setup + p.run }

func (p *paperPass) ops() int { return p.probes }

func runPaperPass(benches []workload.Benchmark, traced bool) (*paperPass, error) {
	p := &paperPass{rec: newRecorder(traced), sim: make(map[string]uint64)}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var total time.Duration
	cell := func(tb *timedBench, c call, name string, run func(opts ...workload.RunOption) (workload.Run, error)) error {
		p.rec.enter(c)
		r, err := run(workload.WithWarmup(), workload.WithMetrics(metrics.NewRegistry()))
		total += p.rec.exit()
		if err != nil {
			return fmt.Errorf("%s/%s: %w", tb.Name(), name, err)
		}
		p.cells = append(p.cells, paperCell{
			bench: tb.Name(), scheme: name, cycles: r.Cycles,
			queries: r.Queries, requests: tb.requests, mismatch: r.Mismatches,
		})
		p.probes += r.Queries
		for _, s := range r.Metrics {
			p.sim[s.Name] += s.Value
		}
		return nil
	}
	for _, b := range benches {
		ref := referenceTime()
		build0, total0 := p.rec.stats[callBuild].ns, total
		tb := &timedBench{Benchmark: b, rec: p.rec}
		err := cell(tb, callRunBaseline, softwareScheme, func(opts ...workload.RunOption) (workload.Run, error) {
			return workload.RunBaseline(tb, workload.Full, opts...)
		})
		if err != nil {
			return nil, err
		}
		for _, k := range scheme.Kinds() {
			err := cell(tb, callRunQEI, k.String(), func(opts ...workload.RunOption) (workload.Run, error) {
				return workload.RunQEI(tb, k, workload.Full, opts...)
			})
			if err != nil {
				return nil, err
			}
		}
		build := time.Duration(p.rec.stats[callBuild].ns - build0)
		p.nom.add(build, total-total0-build, ref)
	}
	runtime.ReadMemStats(&ms1)
	build := time.Duration(p.rec.stats[callBuild].ns)
	p.setup = build
	p.run = total - build
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc - p.rec.buildAlloc
	p.gcs = uint64(ms1.NumGC - ms0.NumGC)
	p.gcPause = ms1.PauseTotalNs - ms0.PauseTotalNs
	return p, nil
}

func (p *paperPass) mismatches() int {
	n := 0
	for _, c := range p.cells {
		n += c.mismatch
	}
	return n
}

// sameCells reports whether two passes simulated identical cycles,
// queries and verdicts in every cell.
func sameCells(a, b *paperPass) bool {
	if len(a.cells) != len(b.cells) {
		return false
	}
	for i := range a.cells {
		if a.cells[i] != b.cells[i] {
			return false
		}
	}
	return true
}

// paperSim is the matrix's simulated outcome on the paper's proposed
// Core-integrated scheme.
type paperSim struct {
	// p50 and p99 are request-weighted quantiles of the cycles one
	// request takes: the loop is closed, so a request's latency is its
	// service time, and each request counts at its cell's mean (the
	// runner reports no finer grain). samples is the request count.
	p50, p99 float64
	samples  int
	// rate is the geomean over benchmarks of requests completed per
	// 1000 cycles, and speedup the geomean of baseline cycles over
	// Core-integrated cycles.
	rate, speedup float64
}

func (p *paperPass) simulated() paperSim {
	base := map[string]uint64{}
	type cellLat struct {
		lat float64
		n   int
	}
	var lats []cellLat
	var s paperSim
	logRate, logSpeedup, n := 0.0, 0.0, 0
	for _, c := range p.cells {
		if c.scheme == softwareScheme {
			base[c.bench] = c.cycles
		}
	}
	for _, c := range p.cells {
		if c.scheme != scheme.CoreIntegrated.String() {
			continue
		}
		lats = append(lats, cellLat{float64(c.cycles) / float64(c.requests), c.requests})
		s.samples += c.requests
		logRate += math.Log(float64(c.requests) * 1000 / float64(c.cycles))
		logSpeedup += math.Log(float64(base[c.bench]) / float64(c.cycles))
		n++
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i].lat < lats[j].lat })
	weighted := func(q float64) float64 {
		rank := int(math.Ceil(q * float64(s.samples)))
		for _, l := range lats {
			if rank <= l.n {
				return l.lat
			}
			rank -= l.n
		}
		return lats[len(lats)-1].lat
	}
	s.p50, s.p99 = weighted(0.50), weighted(0.99)
	s.rate = math.Exp(logRate / float64(n))
	s.speedup = math.Exp(logSpeedup / float64(n))
	return s
}
