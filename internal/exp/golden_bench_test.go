package exp

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchGoldenCycles pins the "bench" experiment's simulated outputs
// to BENCH_bench.json, committed at the repository root. Performance
// work on the hot path must leave every simulated quantity — cycle
// counts, speedups, and the counter profile of each run —
// byte-identical. If this test fails after an intentional model change,
// regenerate the file from the repository root with:
//
//	go run ./cmd/qeibench -exp bench -scale small -json -out .
func TestBenchGoldenCycles(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_bench.json")
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	var all []BenchResult
	if err := json.Unmarshal(data, &all); err != nil {
		t.Fatalf("golden file: %v", err)
	}
	// The file also carries the "batch" experiment's records (pinned for
	// determinism by the batch tests); this comparison covers the
	// "bench" rows.
	var want []BenchResult
	for _, w := range all {
		if w.Experiment == "bench" {
			want = append(want, w)
		}
	}
	got, err := RunBench(Small, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, golden has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if string(gj) != string(wj) {
			t.Errorf("record %d (%s/%s) diverges from golden:\n got: %s\nwant: %s",
				i, g.Workload, g.Scheme, gj, wj)
		}
	}
}
