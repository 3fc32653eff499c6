package exp

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchGuard is the CI benchmark-regression gate (the ci.sh
// bench-guard stage runs it with QEI_BENCH_GUARD=1): it benchmarks the
// end-to-end runners and compares against the committed BENCH_guard.json
// envelope. Allocations are the hard gate — allocs/op is
// machine-independent, so exceeding the envelope by the strict factor
// means a real regression (a builder no longer pooled, a map back on the
// hot path). Wall time gets a generous factor since CI machines vary.
//
// Regenerate the envelope after an intentional performance change:
//
//	go test -run '^$' -bench BenchmarkEndToEnd -benchtime 3x ./internal/exp
//
// then round the measured allocs/op and ns/op up ~10% into
// BENCH_guard.json at the repository root.
func TestBenchGuard(t *testing.T) {
	if os.Getenv("QEI_BENCH_GUARD") == "" {
		t.Skip("set QEI_BENCH_GUARD=1 to run the benchmark regression guard (ci.sh bench-guard stage does)")
	}

	data, err := os.ReadFile("../../BENCH_guard.json")
	if err != nil {
		t.Fatalf("read envelope: %v", err)
	}
	var envelope map[string]struct {
		AllocsPerOp int64 `json:"allocs_per_op"`
		NsPerOp     int64 `json:"ns_per_op"`
	}
	if err := json.Unmarshal(data, &envelope); err != nil {
		t.Fatalf("parse envelope: %v", err)
	}

	const (
		allocsFactor = 2 // hard gate: >2x committed allocs/op fails
		nsFactor     = 5 // soft gate: absorbs CI machine variation
	)
	benches := map[string]func(*testing.B){
		"BenchmarkEndToEndBaseline": BenchmarkEndToEndBaseline,
		"BenchmarkEndToEndQEI":      BenchmarkEndToEndQEI,
		"BenchmarkEndToEndBench":    BenchmarkEndToEndBench,
		"BenchmarkQueryBatch":       BenchmarkQueryBatch,
	}
	for name, fn := range benches {
		limit, ok := envelope[name]
		if !ok {
			t.Errorf("%s: no envelope entry in BENCH_guard.json", name)
			continue
		}
		r := testing.Benchmark(fn)
		if r.N == 0 {
			t.Errorf("%s: benchmark did not run", name)
			continue
		}
		allocs := r.AllocsPerOp()
		ns := r.NsPerOp()
		t.Logf("%s: %d ns/op, %d allocs/op (envelope %d ns/op, %d allocs/op)",
			name, ns, allocs, limit.NsPerOp, limit.AllocsPerOp)
		if allocs > allocsFactor*limit.AllocsPerOp {
			t.Errorf("%s: %d allocs/op exceeds %dx envelope (%d): allocation regression on the hot path",
				name, allocs, allocsFactor, limit.AllocsPerOp)
		}
		if ns > nsFactor*limit.NsPerOp {
			t.Errorf("%s: %d ns/op exceeds %dx envelope (%d): wall-clock regression",
				name, ns, nsFactor, limit.NsPerOp)
		}
	}
}
