package exp

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"qei"
)

// TestBenchJSONRoundTrip validates the qeibench -json schema on the
// committed BENCH_bench.json "bench" records (TestBenchGoldenCycles
// proves they equal a fresh run): they carry cycles, speedup and
// counters for every scheme, and WriteBenchJSON writes them back in a
// form that decodes into []BenchResult.
func TestBenchJSONRoundTrip(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_bench.json")
	if err != nil {
		t.Fatal(err)
	}
	var all, rs []BenchResult
	if err := json.Unmarshal(data, &all); err != nil {
		t.Fatal(err)
	}
	for _, r := range all {
		if r.Experiment == "bench" {
			rs = append(rs, r)
		}
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
	if len(schemes) != len(qei.Schemes()) {
		t.Fatalf("results cover %d schemes, want %d", len(schemes), len(qei.Schemes()))
	}

	path, err := WriteBenchJSON(t.TempDir(), "test", rs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "BENCH_test.json") {
		t.Fatalf("unexpected path %s", path)
	}
	data, err = os.ReadFile(path)
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
