package exp

import (
	"os"
	"slices"
	"testing"

	"qei/internal/golden"
)

// TestBenchGoldenCycles pins the "bench" and "batch" records — every
// simulated cycle count, speedup and counter profile — to
// BENCH_bench.json at the repository root, written as WriteBenchJSON
// writes it (qeibench -json writes the same file; ci.sh compares the
// two). It reads the records from the memo TestExperimentTables
// renders the bench and batch tables from, so neither is simulated
// twice. After an intended model change, regenerate the file as
// package golden describes.
func TestBenchGoldenCycles(t *testing.T) {
	bench, err := testMemo.bench(Small, 0)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := testMemo.batch(Small, 0)
	if err != nil {
		t.Fatal(err)
	}
	path, err := WriteBenchJSON(t.TempDir(), "bench", slices.Concat(bench, batch))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "../../BENCH_bench.json", string(got))
}
