package qei

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"qei/internal/workload"
)

// queryAll runs the same deterministic query sequence on sys and
// returns the per-query latencies plus the final clock.
func queryAll(t *testing.T, sys *System, keys [][]byte, vals []uint64) ([]uint64, uint64) {
	t.Helper()
	table := mustBuild(t, sys, KindCuckoo, keys, vals)
	lats := make([]uint64, 0, len(keys))
	for i, k := range keys {
		res, err := sys.Query(table, k)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != vals[i] {
			t.Fatalf("key %d: %+v want %d", i, res, vals[i])
		}
		lats = append(lats, res.Latency)
	}
	return lats, sys.Now()
}

// TestObservabilityZeroCycleImpact is the CI-enforced zero-overhead
// guard: attaching the metrics registry and the tracer must not change
// a single simulated cycle. Instrumentation observes the timeline; it
// must never participate in it.
func TestObservabilityZeroCycleImpact(t *testing.T) {
	keys, vals := testKeys(300, 16, 11)
	for _, sch := range Schemes() {
		sch := sch
		t.Run(sch.String(), func(t *testing.T) {
			plain := NewSystem(sch)
			observed := NewSystem(sch, WithMetrics(), WithTimeline())
			pl, pn := queryAll(t, plain, keys, vals)
			ol, on := queryAll(t, observed, keys, vals)
			if pn != on {
				t.Fatalf("observability changed the clock: %d vs %d cycles", pn, on)
			}
			for i := range pl {
				if pl[i] != ol[i] {
					t.Fatalf("query %d latency changed: %d vs %d", i, pl[i], ol[i])
				}
			}
		})
	}
}

func TestSystemMetricsReadout(t *testing.T) {
	sys := NewSystem(CoreIntegrated, WithMetrics())
	keys, vals := testKeys(200, 16, 12)
	queryAll(t, sys, keys, vals)

	ms := sys.Metrics()
	if len(ms) == 0 {
		t.Fatal("no metrics from a WithMetrics system")
	}
	byName := map[string]uint64{}
	for i, m := range ms {
		byName[m.Name] = m.Value
		if i > 0 && ms[i-1].Name >= m.Name {
			t.Fatalf("metrics unsorted: %q before %q", ms[i-1].Name, m.Name)
		}
	}
	if byName["qei/queries"] != 200 {
		t.Fatalf("qei/queries = %d, want 200", byName["qei/queries"])
	}
	// The accelerator touched memory through the hierarchy and the page
	// tables through a TLB; those component counters must be live too.
	for _, want := range []string{"qei/cee/transitions", "qei/mem/lines", "dram/accesses"} {
		if byName[want] == 0 {
			t.Fatalf("%s = 0 after 200 queries", want)
		}
	}
	// Systems without the option pay nothing and read nothing.
	if NewSystem(CoreIntegrated).Metrics() != nil {
		t.Fatal("Metrics() non-nil without WithMetrics")
	}
}

func TestSystemUnifiedTraceExport(t *testing.T) {
	sys := NewSystem(CoreIntegrated, WithTimeline())
	keys, vals := testKeys(100, 16, 13)
	queryAll(t, sys, keys, vals)

	doc := sys.ExportTrace()
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(doc), &parsed); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("empty unified trace")
	}
	cats := map[string]bool{}
	for _, e := range parsed.TraceEvents {
		cats[e.Cat] = true
		if e.Ph != "X" && e.Ph != "i" {
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	// One timeline, many components: queries, cache accesses, and page
	// walks must all be present for a cuckoo workload.
	for _, want := range []string{"qst", "cache", "tlb"} {
		if !cats[want] {
			t.Fatalf("category %q missing from unified trace (have %v)", want, cats)
		}
	}
}

// benchTestSet trims the bench matrix to two structurally different
// workloads so the JSON and determinism tests stay fast; RunBench
// itself covers the full set.
func benchTestSet() []workload.Benchmark {
	return []workload.Benchmark{workload.SmallDPDK(), workload.SmallJVM()}
}

// TestBenchJSONRoundTrip validates the qeibench -json schema: the
// written BENCH_*.json decodes back into []BenchResult with cycles and
// speedup per scheme.
func TestBenchJSONRoundTrip(t *testing.T) {
	rs, err := runBenchOn(benchTestSet(), []ExpOption{WithParallelism(4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no bench results")
	}
	schemes := map[string]bool{}
	for _, r := range rs {
		if r.Cycles == 0 || r.BaselineCycles == 0 || r.Speedup <= 0 {
			t.Fatalf("degenerate record %+v", r)
		}
		if r.Counters["qei/queries"] == 0 {
			t.Fatalf("record %s/%s lost its counters", r.Workload, r.Scheme)
		}
		schemes[r.Scheme] = true
	}
	if len(schemes) != len(Schemes()) {
		t.Fatalf("results cover %d schemes, want %d", len(schemes), len(Schemes()))
	}

	path, err := WriteBenchJSON(t.TempDir(), "test", rs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "BENCH_test.json") {
		t.Fatalf("unexpected path %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []BenchResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("BENCH json does not decode into the result schema: %v", err)
	}
	if len(back) != len(rs) {
		t.Fatalf("round trip lost records: %d vs %d", len(back), len(rs))
	}
	if back[0].Experiment != "bench" {
		t.Fatalf("experiment name %q", back[0].Experiment)
	}
}

// TestMetricsCollectorParallelDeterminism extends PR 1's byte-identical
// guarantee to metric aggregation: the merged snapshot of a parallel
// run must equal the serial run's exactly.
func TestMetricsCollectorParallelDeterminism(t *testing.T) {
	serial := NewMetricsCollector()
	if _, err := runBenchOn(benchTestSet(), []ExpOption{WithParallelism(1), WithMetricsCollector(serial)}); err != nil {
		t.Fatal(err)
	}
	parallel := NewMetricsCollector()
	if _, err := runBenchOn(benchTestSet(), []ExpOption{WithParallelism(4), WithMetricsCollector(parallel)}); err != nil {
		t.Fatal(err)
	}
	s, p := serial.String(), parallel.String()
	if s == "" {
		t.Fatal("collector saw no metrics")
	}
	if s != p {
		t.Fatalf("merged metrics diverge between worker counts:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
	}
	if m := serial.Merged(); len(m) == 0 || m[0].Name == "" {
		t.Fatal("Merged() returned no metrics")
	}
}
