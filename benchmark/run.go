package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"time"

	"qei"
	"qei/internal/serve"
	"qei/internal/workload"
)

// A run repeats whole passes until its budget is spent (at least one),
// and reports the median of the per-pass host figures. Every pass starts
// from a fresh machine and fresh inputs drawn from the same seed, so its
// simulated outcome must repeat the first pass's exactly. Before each
// pass the heap is collected and returned to the OS, so every pass
// starts from the same heap. Host times are scaled to the nominal
// machine speed (reference.go).

// servePass runs one serving pass and books it: its requests, the
// oracle's verdict, epoch violations, and whether it repeats ref.
func (r *result) servePass(cfg qei.ServingConfig, traced bool, ref *servePass) (*servePass, serveCheck, error) {
	debug.FreeOSMemory()
	kernel := referenceTime()
	p, err := runServePass(cfg, traced)
	if err != nil {
		return nil, serveCheck{}, err
	}
	p.nom.add(p.setup, p.run, kernel)
	c := p.check(cfg)
	r.attempted += uint64(p.ops())
	r.failed += c.failed
	if c.wrong > 0 {
		r.violation("%d reads returned an answer the host model rejects", c.wrong)
	}
	if p.epoch.violations > 0 {
		r.violation("%d epoch read-after-retire violations", p.epoch.violations)
	}
	if ref != nil && !sameReport(ref, p) {
		r.violation("a repeated pass simulated a different outcome")
	}
	r.notef("pass traced=%t: %d requests, serve %.3fs, setup %.3fs, reference %.4fs; nominal %.0f requests/s",
		traced, p.ops(), p.run.Seconds(), p.setup.Seconds(), kernel.Seconds(), p.nom.perSecond(p.ops()))
	return p, c, nil
}

func serveUntraced(s spec, budget time.Duration) (*result, error) {
	cfg := s.serving
	r := newResult()
	var ref *servePass
	var chk serveCheck
	var qps, setup, alloc []float64
	start := time.Now()
	for ref == nil || time.Since(start) < budget {
		p, c, err := r.servePass(cfg, false, ref)
		if err != nil {
			return nil, err
		}
		qps = append(qps, p.nom.perSecond(p.ops()))
		setup = append(setup, p.nom.setup)
		alloc = append(alloc, float64(p.alloc)/float64(p.ops()))
		p.release()
		if ref == nil {
			ref, chk = p, c
		}
	}
	rate, probes, bad, err := maxRate(cfg, s.probeRequests)
	if err != nil {
		return nil, err
	}
	if bad > 0 {
		r.violation("%d wrong answers or epoch violations in the rate ladder", bad)
	}
	r.notef("%d latency samples (reads after the first %.0f%% of arrivals); rate ladder: %d probes of %d requests",
		len(chk.readLat), warmupShare*100, probes, s.probeRequests)
	r.values = map[string]float64{
		"sim_qps":            median(qps),
		"setup_s":            median(setup),
		"peak_rss_mb":        peakRSSMiB(),
		"alloc_bytes_per_op": median(alloc),
		"sim_p50_cycles":     float64(quantile(chk.readLat, 0.50)),
		"sim_p99_cycles":     float64(quantile(chk.readLat, 0.99)),
		"sim_max_rate":       rate,
	}
	return r, nil
}

func serveTraced(s spec, budget time.Duration, traceFile string) (*result, error) {
	cfg := s.serving
	r := newResult()
	var ref, tr *servePass
	var m map[string]float64
	var plain, traced []float64
	start := time.Now()
	for i := 0; len(traced) == 0 || time.Since(start) < budget; i++ {
		p, c, err := r.servePass(cfg, i%2 == 1, ref)
		if err != nil {
			return nil, err
		}
		q := p.nom.perSecond(p.ops())
		if i%2 == 1 {
			traced = append(traced, q)
			if tr == nil {
				tr, m = p, map[string]float64{}
				serveLayerMetrics(m, p, c)
			}
		} else {
			plain = append(plain, q)
			if ref == nil {
				ref = p
			}
		}
		p.release()
	}
	// The program's own assembly of the same run must report the same.
	reqs, err := serve.GenerateParallel(cfg.GenConfig(), cfg.GenWorkers)
	if err != nil {
		return nil, err
	}
	rep, err := qei.ReplayServing(cfg, cfg.GenConfig(), reqs)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	js, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(js, ref.reportJSON) {
		r.violation("the benchmark's report differs from qei.ReplayServing's")
	}
	for n, v := range layerMetrics(layerInput{
		rec: tr.rec, wall: tr.wall(), gen: tr.gen, ops: tr.ops(),
		gcs: tr.gcs, gcPause: tr.gcPause, sim: tr.sim, epoch: tr.epoch,
		rehashes: tr.rehashes, overhead: 1 - median(traced)/median(plain),
	}) {
		m[n] = v
	}
	r.values = m
	if err := writeTrace(tr.rec, traceFile); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	r.notef("trace: %d spans in %s", len(tr.rec.spans), traceFile)
	return r, nil
}

// serveLayerMetrics adds the serving layer's own metrics, read from the
// report, the oracle's latencies and the decorator's counts.
func serveLayerMetrics(m map[string]float64, p *servePass, c serveCheck) {
	rep := p.rep
	reads := float64(c.reads)
	polls := float64(p.rec.stats[callPoll].calls)
	m["serve.poll_calls_per_req"] = ratio(polls, float64(p.ops()))
	m["serve.poll_pending_frac"] = ratio(float64(p.rec.pending), polls)
	m["serve.throttled_frac"] = ratio(float64(rep.Total.Throttled), reads)
	if rep.Batch != nil {
		m["serve.batch.mean_size"] = ratio(float64(rep.Batch.BatchedReads), float64(rep.Batch.Batches))
	}
	m["serve.retries_per_req"] = ratio(float64(rep.Total.Retries), reads)
	m["serve.failover_frac"] = ratio(float64(rep.Total.FailedOver), reads)
	m["serve.shed_frac"] = ratio(float64(rep.Total.Shed), reads)
	if rep.Breaker != nil {
		m["serve.breaker.trips"] = float64(rep.Breaker.Trips)
	}
	m["serve.slo_miss_frac"] = ratio(float64(c.missed), float64(len(c.readLat)))
	m["serve.error_frac"] = ratio(float64(rep.Total.Shed+rep.Total.Faults), reads)
	m["serve.p999_cycles"] = float64(quantile(c.readLat, 0.999))
	m["serve.write_p99_cycles"] = float64(quantile(c.writeLat, 0.99))
	if last := p.reqs[len(p.reqs)-1].At; rep.MakespanCycles > last {
		m["serve.backlog_cycles"] = float64(rep.MakespanCycles - last)
	}
	m["latency.samples"] = float64(len(c.readLat))
}

// paperPass runs one matrix pass and books it like servePass.
func (r *result) paperPass(benches []workload.Benchmark, traced bool, ref *paperPass) (*paperPass, error) {
	debug.FreeOSMemory()
	p, err := runPaperPass(benches, traced)
	if err != nil {
		return nil, err
	}
	r.attempted += uint64(p.ops())
	if n := p.mismatches(); n > 0 {
		r.failed += uint64(n)
		r.violation("%d probes returned a wrong answer", n)
	}
	if ref != nil && !sameCells(ref, p) {
		r.violation("a repeated pass simulated different cycles")
	}
	r.notef("pass traced=%t: %d probes in %d cells, run %.3fs, build %.3fs; nominal %.0f probes/s",
		traced, p.ops(), len(p.cells), p.run.Seconds(), p.setup.Seconds(), p.nom.perSecond(p.ops()))
	return p, nil
}

func paperUntraced(s spec, budget time.Duration) (*result, error) {
	r := newResult()
	var ref *paperPass
	var qps, setup, alloc []float64
	start := time.Now()
	for ref == nil || time.Since(start) < budget {
		p, err := r.paperPass(s.paper, false, ref)
		if err != nil {
			return nil, err
		}
		qps = append(qps, p.nom.perSecond(p.ops()))
		setup = append(setup, p.nom.setup)
		alloc = append(alloc, float64(p.alloc)/float64(p.ops()))
		if ref == nil {
			ref = p
		}
	}
	sim := ref.simulated()
	r.notef("%d latency samples (Core-integrated requests); speedup geomean %.4f", sim.samples, sim.speedup)
	r.values = map[string]float64{
		"sim_qps":            median(qps),
		"setup_s":            median(setup),
		"peak_rss_mb":        peakRSSMiB(),
		"alloc_bytes_per_op": median(alloc),
		"sim_p50_cycles":     sim.p50,
		"sim_p99_cycles":     sim.p99,
		"sim_max_rate":       sim.rate,
	}
	return r, nil
}

func paperTraced(s spec, budget time.Duration, traceFile string) (*result, error) {
	r := newResult()
	var ref, tr *paperPass
	var plain, traced []float64
	start := time.Now()
	for i := 0; len(traced) == 0 || time.Since(start) < budget; i++ {
		p, err := r.paperPass(s.paper, i%2 == 1, ref)
		if err != nil {
			return nil, err
		}
		q := p.nom.perSecond(p.ops())
		if i%2 == 1 {
			traced = append(traced, q)
			if tr == nil {
				tr = p
			}
		} else {
			plain = append(plain, q)
			if ref == nil {
				ref = p
			}
		}
	}
	sim := ref.simulated()
	m := layerMetrics(layerInput{
		rec: tr.rec, wall: tr.wall(), ops: tr.ops(),
		gcs: tr.gcs, gcPause: tr.gcPause, sim: tr.sim,
		speedup:  sim.speedup,
		overhead: 1 - median(traced)/median(plain),
	})
	m["latency.samples"] = float64(sim.samples)
	r.values = m
	if err := writeTrace(tr.rec, traceFile); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	r.notef("trace: %d spans in %s", len(tr.rec.spans), traceFile)
	return r, nil
}
