package workload

import (
	"runtime"
	"testing"

	"qei/internal/scheme"
)

// TestRunsAllocateBounded pins what a warm run of small Snort, the
// benchmark with the most non-ROI work per request, allocates. A
// request's non-ROI work is one isa.Filler op, so a chunk's trace stays
// a few thousand ops; listing that work op by op would make a chunk of
// Snort requests 8 × 512 000 ops of 32 B, over 100 MiB per run. A
// freshly built default machine is about 9.4 MiB of LLC arrays, which a
// run on a recycled machine does not allocate: the "recycled" case is
// the second of two small-DPDK runs, its Build included. Not parallel:
// TotalAlloc counts every goroutine's allocations, and the free list is
// the package's.
func TestRunsAllocateBounded(t *testing.T) {
	dpdk := func() (Run, error) { return RunQEI(SmallDPDK(), scheme.CoreIntegrated, Full, WithWarmup()) }
	if _, err := dpdk(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		limit uint64
		run   func() (Run, error)
	}{
		{"recycled", 2 << 20, dpdk},
		{"qei", 64 << 20, func() (Run, error) { return RunQEI(SmallSnort(), scheme.CoreIntegrated, Full, WithWarmup()) }},
		{"baseline", 64 << 20, func() (Run, error) { return RunBaseline(SmallSnort(), Full, WithWarmup()) }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run, err := tc.run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if run.Mismatches != 0 {
			t.Fatalf("%s: %d result mismatches", tc.name, run.Mismatches)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s run allocated %d KiB", tc.name, got>>10)
		if got > tc.limit {
			t.Errorf("%s run allocated %d KiB, want at most %d KiB", tc.name, got>>10, tc.limit>>10)
		}
	}
}

// BenchmarkRunQEISnort measures one warm QUERY_B run of small Snort, the
// benchmark with the most non-ROI work per request. Run it with
// -benchmem: B/op stays bounded because each request's non-ROI work is
// one isa.Filler op, not a listed op per instruction.
func BenchmarkRunQEISnort(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunQEI(SmallSnort(), scheme.CoreIntegrated, Full, WithWarmup()); err != nil {
			b.Fatal(err)
		}
	}
}
