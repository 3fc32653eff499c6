package exp

import (
	"encoding/json"
	"os"
	"path/filepath"

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

// RunBench simulates the workload × scheme matrix with metrics
// attached and returns one record per QEI run, in workload-major order
// (deterministic at any worker count: par workers, <= 0 means
// GOMAXPROCS).
func RunBench(s Scale, par int) ([]BenchResult, error) {
	return new(memo).bench(s, par)
}

// bench returns the bench records at s.
func (m *memo) bench(s Scale, par int) ([]BenchResult, error) {
	return readCells(m, par, benchesFor(s), rowCells(workload.Full), benchRecords)
}

// benchRecords reads one record per QEI run of b's Full-mode matrix
// row: its cycles, its whole-run speedup over the software Full run and
// its non-zero benchCounters.
func benchRecords(b workload.Benchmark, runs []workload.Run) []BenchResult {
	var out []BenchResult
	for i, k := range scheme.Kinds() {
		sw, hw := runs[0], runs[1+i]
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
	return out
}

// benchTable renders the bench records as the registry's "bench"
// table; qeibench -json writes the same records as JSON.
func (m *memo) benchTable(s Scale, par int) (TableData, error) {
	rs, err := m.bench(s, par)
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
