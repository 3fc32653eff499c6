package main

import (
	"path"
	"sort"
	"time"
)

// metricDef is one metric of the catalog: BENCHMARK.json declares the
// same names, units and directions, and README.md explains each.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run: what a user of the
// simulator sees. Host-time metrics measure the simulator; sim_* ones
// are the simulated machine's and repeat exactly for a given seed.
var endToEnd = []metricDef{
	{"sim_qps", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"alloc_bytes_per_op", "B/op", "lower"},
	{"sim_p50_cycles", "cycles", "lower"},
	{"sim_p99_cycles", "cycles", "lower"},
	{"sim_max_rate", "1/kcycle", "higher"},
}

// perLayer are the metrics of a traced run. Host time in a layer is
// given as its share of the pass's host time (*.host_frac), counted
// from the calls the benchmark makes into that layer; a layer a
// workload does not use reads 0 there.
var perLayer = []metricDef{
	// serve
	{"serve.self.host_frac", "frac", "lower"},
	{"serve.poll_calls_per_req", "1/req", "lower"},
	{"serve.poll_pending_frac", "frac", "lower"},
	{"serve.throttled_frac", "frac", "lower"},
	{"serve.batch.mean_size", "keys", "higher"},
	{"serve.retries_per_req", "1/req", "lower"},
	{"serve.failover_frac", "frac", "lower"},
	{"serve.shed_frac", "frac", "lower"},
	{"serve.breaker.trips", "count", "lower"},
	{"serve.slo_miss_frac", "frac", "lower"},
	{"serve.error_frac", "frac", "lower"},
	{"serve.p999_cycles", "cycles", "lower"},
	{"serve.write_p99_cycles", "cycles", "lower"},
	{"serve.backlog_cycles", "cycles", "lower"},
	{"latency.samples", "count", "higher"},
	// qei: the root System, internal/qei and cfa
	{"qei.query_async.host_frac", "frac", "lower"},
	{"qei.query_async.full_frac", "frac", "lower"},
	{"qei.poll.host_frac", "frac", "lower"},
	{"qei.wait.host_frac", "frac", "lower"},
	{"qei.query_batch.host_frac", "frac", "lower"},
	{"qei.transitions_per_query", "1/query", "lower"},
	{"qei.mem_lines_per_query", "1/query", "lower"},
	{"qei.translation_cycles_per_query", "cycles/query", "lower"},
	{"qei.data_access_cycles_per_query", "cycles/query", "lower"},
	{"qei.qst.stall_cycles_per_query", "cycles/query", "lower"},
	{"qei.qst.residency_cycles_per_query", "cycles/query", "lower"},
	{"qei.cmp_remote_per_query", "1/query", "lower"},
	{"qei.exceptions", "count", "lower"},
	{"qei.retries", "count", "lower"},
	{"qei.timeouts", "count", "lower"},
	{"qei.batch.levels_per_batch", "1/batch", "lower"},
	{"qei.batch.translations_saved_per_query", "1/query", "higher"},
	{"qei.batch.lines_deduped_per_query", "1/query", "higher"},
	{"qei.batch.coalesced_frac", "frac", "higher"},
	{"qei.batch.deferred_frac", "frac", "lower"},
	// baseline, cpu and the paper runner
	{"baseline.query.host_frac", "frac", "lower"},
	{"workload.baseline.host_frac", "frac", "lower"},
	{"workload.qei.host_frac", "frac", "lower"},
	{"workload.speedup_geomean", "x", "higher"},
	{"cpu.ipc", "instr/cycle", "higher"},
	{"cpu.rob_stall_cycles_per_instr", "cycles/instr", "lower"},
	{"cpu.lq_stall_cycles_per_instr", "cycles/instr", "lower"},
	{"cpu.mispredict_rate", "frac", "lower"},
	// dstruct and epoch
	{"dstruct.build.host_frac", "frac", "lower"},
	{"dstruct.mutate.host_frac", "frac", "lower"},
	{"dstruct.rehashes", "count", "lower"},
	{"epoch.retired", "count", "lower"},
	{"epoch.reclaimed_frac", "frac", "higher"},
	{"epoch.reused_frac", "frac", "higher"},
	// cache, tlb, noc, mem
	{"cache.l1d.miss_ratio", "frac", "lower"},
	{"cache.l2.miss_ratio", "frac", "lower"},
	{"cache.llc.miss_ratio", "frac", "lower"},
	{"dram.accesses_per_op", "1/op", "lower"},
	{"tlb.l1.miss_ratio", "frac", "lower"},
	{"tlb.l2.miss_ratio", "frac", "lower"},
	{"tlb.walk_cycles_per_op", "cycles/op", "lower"},
	{"noc.sends_per_op", "1/op", "lower"},
	{"noc.bytes_per_op", "B/op", "lower"},
	{"mem.frames_allocated", "count", "lower"},
	// workgen and the Go runtime
	{"workgen.host_frac", "frac", "lower"},
	{"go.gc_cycles_per_kop", "1/kop", "lower"},
	{"go.gc_pause_frac", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// median of xs (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simCounters reads the simulator's metric registry (summed over the
// pass's machines).
type simCounters map[string]uint64

// sum adds every counter whose name matches pattern (path.Match
// syntax, so "core*/l1d/misses" covers every core).
func (s simCounters) sum(pattern string) float64 {
	var n uint64
	for name, v := range s {
		if ok, _ := path.Match(pattern, name); ok {
			n += v
		}
	}
	return float64(n)
}

// missRatio is misses/(hits+misses) over the counters under pattern.
func (s simCounters) missRatio(pattern string) float64 {
	m := s.sum(pattern + "/misses")
	return ratio(m, m+s.sum(pattern+"/hits"))
}

// layerInput is what a traced pass hands the per-layer metrics.
type layerInput struct {
	rec      *recorder
	wall     time.Duration
	gen      time.Duration
	ops      int
	gcs      uint64
	gcPause  uint64
	sim      simCounters
	epoch    epochCounts
	rehashes uint64
	speedup  float64
	overhead float64
}

// layerMetrics derives the machine- and host-side per-layer metrics
// shared by both kinds of workload; the serving ones are added by the
// serving runner.
func layerMetrics(in layerInput) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	wall := float64(in.wall)
	share := func(c ...call) float64 {
		var ns int64
		for _, x := range c {
			ns += in.rec.stats[x].selfNs
		}
		return ratio(float64(ns), wall)
	}
	ops := float64(in.ops)
	sim := in.sim
	q := sim.sum("qei/queries")
	perQ := func(name string) float64 { return ratio(sim.sum(name), q) }
	batchQ := sim.sum("qei/batch/queries")

	m["serve.self.host_frac"] = share(callServeRun)
	m["qei.query_async.host_frac"] = share(callQueryAsync)
	m["qei.query_async.full_frac"] = ratio(float64(in.rec.full), float64(in.rec.stats[callQueryAsync].calls))
	m["qei.poll.host_frac"] = share(callPoll)
	m["qei.wait.host_frac"] = share(callWait)
	m["qei.query_batch.host_frac"] = share(callQueryBatch)
	m["qei.transitions_per_query"] = perQ("qei/cee/transitions")
	m["qei.mem_lines_per_query"] = perQ("qei/mem/lines")
	m["qei.translation_cycles_per_query"] = perQ("qei/translation_cycles")
	m["qei.data_access_cycles_per_query"] = perQ("qei/data_access_cycles")
	m["qei.qst.stall_cycles_per_query"] = perQ("qei/qst/stall_cycles")
	m["qei.qst.residency_cycles_per_query"] = perQ("qei/qst/busy_entry_cycles")
	m["qei.cmp_remote_per_query"] = perQ("qei/cmp/remote")
	m["qei.exceptions"] = sim.sum("qei/exceptions")
	m["qei.retries"] = sim.sum("qei/retries")
	m["qei.timeouts"] = sim.sum("qei/timeouts")
	m["qei.batch.levels_per_batch"] = ratio(sim.sum("qei/batch/levels"), sim.sum("qei/batch/batches"))
	m["qei.batch.translations_saved_per_query"] = ratio(sim.sum("qei/batch/translations_saved"), batchQ)
	m["qei.batch.lines_deduped_per_query"] = ratio(sim.sum("qei/batch/lines_deduped"), batchQ)
	m["qei.batch.coalesced_frac"] = ratio(sim.sum("qei/batch/coalesced_probes"), batchQ)
	m["qei.batch.deferred_frac"] = ratio(sim.sum("qei/batch/deferred"), batchQ)

	m["baseline.query.host_frac"] = share(callFailoverQuery)
	m["workload.baseline.host_frac"] = share(callRunBaseline)
	m["workload.qei.host_frac"] = share(callRunQEI)
	m["workload.speedup_geomean"] = in.speedup
	m["cpu.ipc"] = ratio(sim.sum("core*/instructions"), sim.sum("core*/cycles"))
	// The core books each instruction's own wait, so waits overlap and
	// are counted per instruction, not as a share of the cycles.
	instr := sim.sum("core*/instructions")
	m["cpu.rob_stall_cycles_per_instr"] = ratio(sim.sum("core*/rob/stall_cycles"), instr)
	m["cpu.lq_stall_cycles_per_instr"] = ratio(sim.sum("core*/lq/stall_cycles"), instr)
	m["cpu.mispredict_rate"] = ratio(sim.sum("core*/branch/mispredicts"), sim.sum("core*/branch/executed"))

	m["dstruct.build.host_frac"] = share(callBuild)
	m["dstruct.mutate.host_frac"] = share(callInsert, callDelete)
	m["dstruct.rehashes"] = float64(in.rehashes)
	m["epoch.retired"] = float64(in.epoch.retired)
	m["epoch.reclaimed_frac"] = ratio(float64(in.epoch.reclaimed), float64(in.epoch.retired))
	m["epoch.reused_frac"] = ratio(float64(in.epoch.reused), float64(in.epoch.retired))

	m["cache.l1d.miss_ratio"] = sim.missRatio("core*/l1d")
	m["cache.l2.miss_ratio"] = sim.missRatio("core*/l2")
	m["cache.llc.miss_ratio"] = sim.missRatio("cha*/llc")
	m["dram.accesses_per_op"] = ratio(sim.sum("dram/accesses"), ops)
	m["tlb.l1.miss_ratio"] = sim.missRatio("core*/tlb/l1")
	m["tlb.l2.miss_ratio"] = sim.missRatio("core*/tlb/l2")
	m["tlb.walk_cycles_per_op"] = ratio(sim.sum("core*/tlb/walker/walk_cycles"), ops)
	m["noc.sends_per_op"] = ratio(sim.sum("noc/sends"), ops)
	m["noc.bytes_per_op"] = ratio(sim.sum("noc/total_bytes"), ops)
	m["mem.frames_allocated"] = sim.sum("mem/frames_allocated")

	m["workgen.host_frac"] = ratio(float64(in.gen), wall)
	m["go.gc_cycles_per_kop"] = ratio(float64(in.gcs)*1000, ops)
	m["go.gc_pause_frac"] = ratio(float64(in.gcPause), wall)
	m["trace.overhead_frac"] = in.overhead
	return m
}
