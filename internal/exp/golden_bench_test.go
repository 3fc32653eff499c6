package exp

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchGoldenCycles pins the "bench" and "batch" experiments'
// simulated outputs to BENCH_bench.json, committed at the repository
// root. Performance work on the hot path must leave every simulated
// quantity — cycle counts, speedups, and the counter profile of each
// run — byte-identical. If this test fails after an intentional model
// change, regenerate the file from the repository root with:
//
//	go run ./cmd/qeibench -json -scale small -out .
func TestBenchGoldenCycles(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_bench.json")
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	var all []BenchResult
	if err := json.Unmarshal(data, &all); err != nil {
		t.Fatalf("golden file: %v", err)
	}
	want := map[string][]BenchResult{}
	for _, w := range all {
		want[w.Experiment] = append(want[w.Experiment], w)
	}
	bench, err := RunBench(Small, 0)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := RunBatchBench(Small)
	if err != nil {
		t.Fatal(err)
	}
	for exp, got := range map[string][]BenchResult{"bench": bench, "batch": batch} {
		if len(got) != len(want[exp]) {
			t.Fatalf("%s: got %d records, golden has %d", exp, len(got), len(want[exp]))
		}
		for i := range got {
			gj, _ := json.Marshal(got[i])
			wj, _ := json.Marshal(want[exp][i])
			if string(gj) != string(wj) {
				t.Errorf("%s record %d (%s/%s) diverges from golden:\n got: %s\nwant: %s",
					exp, i, got[i].Workload, got[i].Scheme, gj, wj)
			}
		}
	}
}
