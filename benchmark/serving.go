package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"

	"qei"
	"qei/internal/serve"
)

// warmupShare of the arrivals (the first ones) is left out of the
// latency figures: every serving pass starts with empty modelled caches.
const warmupShare = 0.05

// servePass is one serving run: a freshly generated stream served on a
// fresh machine through the decorated backends.
type servePass struct {
	reqs []serve.Request
	rep  *serve.Report
	// reportJSON is the report as the program prints it, and digest a
	// hash of every per-request result; both must repeat exactly.
	reportJSON []byte
	digest     uint64
	rec        *recorder
	// nom holds setup and run at the nominal machine speed.
	nom nominal
	// gen is the stream generation time, setup adds the machine and the
	// table builds, and run is serve.Run without the builds.
	gen, setup, run time.Duration
	// alloc, gcs and gcPause are the heap allocation, GC cycles and GC
	// pause time inside serve.Run, builds excluded.
	alloc, gcs, gcPause uint64
	sim                 map[string]uint64
	epoch               epochCounts
	// rehashes counts online cuckoo rehashes over the mutable tables.
	rehashes uint64
}

type epochCounts struct {
	violations, retired, reclaimed, reused uint64
}

// wall is the pass's host time from generation to the end of serve.Run.
func (p *servePass) wall() time.Duration { return p.setup + p.run }

// ops is the number of requests the pass served.
func (p *servePass) ops() int { return p.rep.Requests }

// release drops the stream and the per-request results once they are
// checked, so a kept pass does not weigh on the next pass's memory.
func (p *servePass) release() {
	p.reqs, p.rep.Results = nil, nil
}

// runServePass generates cfg's stream and serves it with the benchmark's
// own assembly of the program's public pieces: the same machine,
// backends and resilience layer qei.ReplayServing builds, with the
// backends decorated.
func runServePass(cfg qei.ServingConfig, traced bool) (*servePass, error) {
	p := &servePass{rec: newRecorder(traced)}
	start := time.Now()
	gen := cfg.GenConfig()
	reqs, err := serve.GenerateParallel(gen, cfg.GenWorkers)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	p.reqs = reqs
	p.gen = time.Since(start)

	opts := []qei.Option{qei.WithSeed(cfg.Seed), qei.WithMetrics()}
	if cfg.Faults != nil {
		opts = append(opts, qei.WithFaultInjection(*cfg.Faults))
	}
	sys := qei.NewSystem(cfg.Scheme, opts...)
	primary, err := qei.NewServingBackend(cfg.Backend, sys)
	if err != nil {
		return nil, err
	}
	scfg := serve.Config{
		Gen:            gen,
		SlotsPerTenant: cfg.SlotsPerTenant,
		SLO:            cfg.SLO,
		KeepResults:    true,
		WriteCost:      cfg.WriteCost,
		BatchAdmit:     cfg.BatchAdmit,
	}
	if cfg.Resilient {
		fo, err := qei.NewServingBackend("baseline", sys)
		if err != nil {
			return nil, err
		}
		scfg.Resilience = &serve.Resilience{
			Deadline: 4 * cfg.SLO,
			Failover: decorate(fo, p.rec, callFailoverQuery),
		}
	}
	b := decorate(primary, p.rec, callQuery)
	beforeRun := time.Since(start)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	p.rec.enter(callServeRun)
	rep, err := serve.Run(b, scfg, reqs)
	runDur := p.rec.exit()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	build := time.Duration(p.rec.stats[callBuild].ns)
	p.setup = beforeRun + build
	p.run = runDur - build
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc - p.rec.buildAlloc
	p.gcs = uint64(ms1.NumGC - ms0.NumGC)
	p.gcPause = ms1.PauseTotalNs - ms0.PauseTotalNs

	// Stamp what ReplayServing stamps from the machine.
	p.sim = make(map[string]uint64)
	for _, m := range sys.Metrics() {
		p.sim[m.Name] = m.Value
	}
	rep.FaultsInjected = sys.FaultsInjected()
	rep.EpochViolations = sys.EpochViolations()
	if rep.Batch != nil {
		rep.Batch.Levels = p.sim["qei/batch/levels"]
		rep.Batch.TranslationsSaved = p.sim["qei/batch/translations_saved"]
		rep.Batch.CoalescedProbes = p.sim["qei/batch/coalesced_probes"]
		rep.Batch.Deferred = p.sim["qei/batch/deferred"]
	}
	// The tables hold the whole machine; keep only their counts.
	for _, t := range p.rec.mutables {
		p.rehashes += t.MutStats().Rehashes
	}
	p.rec.mutables = nil
	es := sys.EpochStats()
	p.epoch = epochCounts{sys.EpochViolations(), es.Retired, es.Reclaimed, es.Reused}
	p.rep = rep
	if p.reportJSON, err = json.Marshal(rep); err != nil {
		return nil, err
	}
	h := fnv.New64a()
	var buf [17]byte
	for _, r := range rep.Results {
		binary.LittleEndian.PutUint64(buf[0:], r.Value)
		binary.LittleEndian.PutUint64(buf[8:], r.Done)
		buf[16] = b2u(r.Found) | b2u(r.Err != nil)<<1
		h.Write(buf[:])
	}
	p.digest = h.Sum64()
	return p, nil
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// serveCheck is the oracle's verdict on one pass and the latency
// figures derived from its per-request results.
type serveCheck struct {
	reads, writes uint64
	// wrong counts completed reads whose answer differs from the host
	// model; failed adds the shed and faulted reads.
	wrong, failed uint64
	// Latencies in simulated cycles from each request's scheduled
	// arrival, after the warm-up arrivals, sorted.
	readLat, writeLat []uint64
	// missed counts post-warm-up reads over the SLO, shed or faulted.
	missed uint64
}

// check verifies every read of the pass against a host model of the
// tables. Reads are checked against the model applied in arrival order:
// the server admits a read before it handles any later request, and the
// epoch snapshots make the state at admission the one the read sees. A
// read-only stream never misses, so there a read that returns nothing
// and no fault was shed.
func (p *servePass) check(cfg qei.ServingConfig) serveCheck {
	gen := cfg.GenConfig()
	model := make([]map[string]uint64, gen.Tenants)
	for t := range model {
		keys, values := serve.TenantKeys(gen, t)
		model[t] = make(map[string]uint64, len(keys))
		for i, k := range keys {
			model[t][string(k)] = values[i]
		}
	}
	readOnly := cfg.WriteFraction == 0
	warm := int(math.Ceil(warmupShare * float64(len(p.reqs))))
	var c serveCheck
	for i := range p.reqs {
		req := &p.reqs[i]
		res := p.rep.Results[req.Seq]
		lat := uint64(0)
		if res.Done > req.At {
			lat = res.Done - req.At
		}
		switch req.Op {
		case serve.OpPut:
			c.writes++
			model[req.Tenant][string(req.Key)] = req.Value
		case serve.OpDel:
			c.writes++
			delete(model[req.Tenant], string(req.Key))
		default:
			c.reads++
			want, found := model[req.Tenant][string(req.Key)]
			shed := readOnly && !res.Found && res.Err == nil
			ok := res.Err == nil && !shed && res.Found == found && (!found || res.Value == want)
			switch {
			case res.Err != nil || shed:
				c.failed++
			case !ok:
				c.wrong++
			}
			if i >= warm {
				c.readLat = append(c.readLat, lat)
				if !ok || (cfg.SLO > 0 && lat > cfg.SLO) {
					c.missed++
				}
			}
			continue
		}
		if i >= warm {
			c.writeLat = append(c.writeLat, lat)
		}
	}
	c.failed += c.wrong
	sort.Slice(c.readLat, func(a, b int) bool { return c.readLat[a] < c.readLat[b] })
	sort.Slice(c.writeLat, func(a, b int) bool { return c.writeLat[a] < c.writeLat[b] })
	return c
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// meetsSLO reports whether a pass sustained its arrival rate: at most
// 1% of post-warm-up reads missed the SLO (the p99 meets it, counting
// shed and faulted reads as misses), and the backlog did not grow — the
// last request retired within one SLO of the last arrival.
func meetsSLO(cfg qei.ServingConfig, p *servePass, c serveCheck) bool {
	last := p.reqs[len(p.reqs)-1].At
	return c.missed*100 <= uint64(len(c.readLat)) && p.rep.MakespanCycles <= last+cfg.SLO
}

// ladderGaps are the mean arrival gaps the rate ladder probes, fastest
// first: 32·2^(k/6) cycles for k = 0..30, six steps per doubling.
func ladderGaps() []uint64 {
	gaps := make([]uint64, 31)
	for k := range gaps {
		gaps[k] = uint64(math.Round(32 * math.Pow(2, float64(k)/6)))
	}
	return gaps
}

// bisectSteps refine the first passing ladder gap against the failing
// one before it.
const bisectSteps = 3

// maxRate finds the highest arrival rate, in requests per 1000
// simulated cycles, at which cfg meets its SLO with no growing backlog.
// Each probe serves a fresh probeRequests-long stream. The ladder is
// scanned from the fastest gap down to the first that passes, because
// batching is not monotone: at low rates batches wait to fill and miss
// the SLO too. wrong counts the answers the oracle rejected and the
// epoch violations in all probes.
func maxRate(cfg qei.ServingConfig, probeRequests int) (rate float64, probes int, wrong uint64, err error) {
	try := func(gap uint64) (bool, error) {
		c := cfg
		c.MeanGap = gap
		c.Requests = probeRequests
		p, err := runServePass(c, false)
		if err != nil {
			return false, fmt.Errorf("rate probe at gap %d: %w", gap, err)
		}
		probes++
		chk := p.check(c)
		wrong += chk.wrong + p.epoch.violations
		return meetsSLO(c, p, chk), nil
	}
	gaps := ladderGaps()
	k := 0
	for ; k < len(gaps); k++ {
		ok, err := try(gaps[k])
		if err != nil {
			return 0, probes, wrong, err
		}
		if ok {
			break
		}
	}
	if k == len(gaps) {
		return 0, probes, wrong, fmt.Errorf("no arrival gap up to %d cycles meets the SLO", gaps[len(gaps)-1])
	}
	pass := gaps[k]
	if k > 0 {
		fail := gaps[k-1]
		for i := 0; i < bisectSteps && pass-fail > 1; i++ {
			mid := (fail + pass) / 2
			ok, err := try(mid)
			if err != nil {
				return 0, probes, wrong, err
			}
			if ok {
				pass = mid
			} else {
				fail = mid
			}
		}
	}
	return 1000 / float64(pass), probes, wrong, nil
}

// sameReport reports whether two passes over the same inputs produced
// the same simulated outcome.
func sameReport(a, b *servePass) bool {
	return bytes.Equal(a.reportJSON, b.reportJSON) && a.digest == b.digest
}
