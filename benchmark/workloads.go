package main

import (
	"fmt"

	"qei"
	"qei/internal/workload"
)

// spec is one benchmark workload: either the paper's closed-loop matrix
// (paper set) or an open-loop serving mix (serving).
type spec struct {
	name    string
	paper   []workload.Benchmark
	serving qei.ServingConfig
	// probeRequests is the stream length of each sim_max_rate probe.
	probeRequests int
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"paper_matrix", "serve_read", "serve_batch", "serve_rw", "serve_chaos"}

// lookup returns the named workload with every generator driven by
// seed: the serving stream's seed, the fault schedule's seed, and an
// offset added to each paper benchmark's own seed.
func lookup(name string, seed int64) (spec, error) {
	if name == "paper_matrix" {
		dpdk, jvm, rocks, snort, flann := workload.SmallDPDK(), workload.SmallJVM(),
			workload.SmallRocksDB(), workload.SmallSnort(), workload.SmallFLANN()
		dpdk.Seed += seed
		jvm.Seed += seed
		rocks.Seed += seed
		snort.Seed += seed
		flann.Seed += seed
		return spec{name: name, paper: []workload.Benchmark{dpdk, jvm, rocks, snort, flann}}, nil
	}
	// Four Zipf(0.99) tenants with Zipf(0.99) key choice on the paper's
	// Core-integrated scheme. The modelled caches start empty.
	c := qei.DefaultServingConfig()
	c.Seed = seed
	c.Requests = 200_000
	c.GenWorkers = 1
	s := spec{name: name, probeRequests: 20_000}
	switch name {
	case "serve_read":
		// 1024-key BSTs: a cache-resident working set served through
		// per-query QueryAsync/Poll/Wait under per-tenant admission.
		c.KeysPerTenant = 1024
	case "serve_batch":
		// 16384-key B+ trees (LLC/DRAM-resident) at a rate where
		// unbatched serving saturates, admitted in batches of 16 to the
		// level-wise engine.
		c.Kind = qei.KindBTree
		c.KeysPerTenant = 16384
		c.BatchAdmit = 16
		c.MeanGap = 100
		c.SLO = 20000
	case "serve_rw":
		// Mutable cuckoo tables: 30% of requests are software writes,
		// 30% of those deletes, beside in-flight accelerated reads.
		c.Kind = qei.KindCuckoo
		c.KeysPerTenant = 4096
		c.WriteFraction = 0.3
		c.DeleteFraction = 0.3
		c.MeanGap = 300
	case "serve_chaos":
		// The serve_read tables at a lower rate with injected spurious
		// exceptions and TLB shootdowns, served by the resilience layer:
		// retry, breaker, failover to the software walker, shedding.
		// Bit flips are left out: they corrupt answers silently, which
		// the oracle would count as wrong (see README.md).
		c.KeysPerTenant = 1024
		c.MeanGap = 600
		f, err := qei.ParseFaultSpec(fmt.Sprintf("%d:spurious=0.05,shootdown=0.02", seed))
		if err != nil {
			return spec{}, err
		}
		c.Faults = &f
		c.Resilient = true
	default:
		return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	s.serving = c
	return s, nil
}
