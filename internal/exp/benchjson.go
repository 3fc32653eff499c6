package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"qei/internal/metrics"
	"qei/internal/scheme"
	"qei/internal/workload"
)

// BenchResult is one machine-readable benchmark record: a workload run
// under one integration scheme, its cycle counts, its speedup over the
// software baseline, and the key simulator counters for that run. It is
// the schema behind qeibench -json (BENCH_<exp>.json files).
type BenchResult struct {
	// Experiment is the registry name that produced the record ("bench").
	Experiment string `json:"experiment"`
	// Workload is the benchmark name (dpdk, rocksdb, ...).
	Workload string `json:"workload"`
	// Scheme is the integration scheme the accelerator ran under.
	Scheme string `json:"scheme"`
	// BaselineCycles is the software run's makespan on the same inputs.
	BaselineCycles uint64 `json:"baseline_cycles"`
	// Cycles is the accelerated run's makespan.
	Cycles uint64 `json:"cycles"`
	// Queries is the number of probes the run performed.
	Queries uint64 `json:"queries"`
	// CyclesPerQuery is Cycles/Queries for the accelerated run.
	CyclesPerQuery float64 `json:"cycles_per_query"`
	// Speedup is BaselineCycles/Cycles (whole-run, not ROI-scoped).
	Speedup float64 `json:"speedup"`
	// Counters holds the non-zero key metrics of the accelerated run
	// (see benchCounters for the selection).
	Counters map[string]uint64 `json:"counters"`
}

// benchCounters is the metric subset copied into each BenchResult: the
// accelerator's work profile plus the shared-resource pressure counters
// the paper's evaluation discusses.
var benchCounters = []string{
	"qei/queries",
	"qei/cee/transitions",
	"qei/mem/lines",
	"qei/cmp/local",
	"qei/cmp/remote",
	"qei/dpu/hash_ops",
	"qei/exceptions",
	"qei/translation_cycles",
	"qei/data_access_cycles",
	"noc/sends",
	"dram/accesses",
}

// RunBench executes the workload × scheme benchmark matrix with metrics
// attached and returns one record per cell, in workload-major order
// (deterministic at any worker count: par workers, <= 0 means
// GOMAXPROCS).
func RunBench(s Scale, par int) ([]BenchResult, error) {
	return runBenchOn(benchesFor(s), par)
}

// runBenchOn is RunBench over an explicit benchmark list (tests use a
// trimmed set to keep the suite fast).
func runBenchOn(benches []workload.Benchmark, par int) ([]BenchResult, error) {
	return mapJobs(par, benches,
		func(b workload.Benchmark) ([]BenchResult, error) {
			sw, err := workload.RunBaseline(b, workload.Full, workload.WithWarmup())
			if err != nil {
				return nil, err
			}
			var out []BenchResult
			for _, k := range scheme.Kinds() {
				reg := metrics.NewRegistry()
				hw, err := workload.RunQEI(b, k, workload.Full,
					workload.WithWarmup(), workload.WithMetrics(reg))
				if err != nil {
					return nil, err
				}
				if hw.Mismatches != 0 {
					return nil, fmt.Errorf("qei: bench %s/%s produced %d wrong results", b.Name(), k, hw.Mismatches)
				}
				counters := make(map[string]uint64)
				for _, name := range benchCounters {
					if v := hw.Metrics.Value(name); v != 0 {
						counters[name] = v
					}
				}
				r := BenchResult{
					Experiment:     "bench",
					Workload:       b.Name(),
					Scheme:         k.String(),
					BaselineCycles: sw.Cycles,
					Cycles:         hw.Cycles,
					Queries:        uint64(hw.Queries),
					Speedup:        float64(sw.Cycles) / float64(hw.Cycles),
					Counters:       counters,
				}
				if hw.Queries > 0 {
					r.CyclesPerQuery = float64(hw.Cycles) / float64(hw.Queries)
				}
				out = append(out, r)
			}
			return out, nil
		})
}

// benchMatrix renders RunBench as a TableData for the experiment
// registry ("bench"); qeibench -json emits the same runs as JSON.
func benchMatrix(s Scale, par int) (TableData, error) {
	rs, err := RunBench(s, par)
	t := TableData{
		Title: "Bench — per-scheme cycles, speedup, and key counters",
		Headers: []string{"workload", "scheme", "cycles", "cyc_per_query",
			"speedup_x", "cee_transitions", "remote_cmp", "dram"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{
			r.Workload, r.Scheme, f("%d", r.Cycles), f("%.1f", r.CyclesPerQuery),
			f("%.2f", r.Speedup),
			f("%d", r.Counters["qei/cee/transitions"]),
			f("%d", r.Counters["qei/cmp/remote"]),
			f("%d", r.Counters["dram/accesses"]),
		})
	}
	return t, err
}

// WriteBenchJSON writes results as indented JSON to
// <dir>/BENCH_<name>.json and returns the file path.
func WriteBenchJSON(dir, name string, results []BenchResult) (string, error) {
	path := filepath.Join(dir, "BENCH_"+name+".json")
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
