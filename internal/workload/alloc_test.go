package workload

import (
	"runtime"
	"testing"

	"qei/internal/metrics"
	"qei/internal/scheme"
)

// TestRunsAllocateBounded pins what a warm run of small Snort, the
// benchmark with the most non-ROI work per request, allocates. A
// request's non-ROI work is one isa.Filler op, so a chunk's trace stays
// a few thousand ops; listing that work op by op would make a chunk of
// Snort requests 8 × 512 000 ops of 32 B, over 100 MiB per run. A
// freshly built default machine is about 9.4 MiB of LLC arrays, which a
// run on a recycled machine does not allocate, and the second run of a
// benchmark restores the first one's image into memory the machine
// keeps instead of building it. The "recycled" cases are the second of
// two small-DPDK runs on one machine, without and with metrics: the
// session hands the core, the accelerator, the trace builder, the
// probe queue and the registries back with the machine, so the run
// allocates its Run, the accelerator's Stats and, with metrics, the
// snapshot of about 600 samples (14 KiB): 320 B and 14.4 KiB measured,
// bounded at 1 and 16 KiB. Not parallel: TotalAlloc counts every
// goroutine's allocations, and the free list and the images are the
// package's.
func TestRunsAllocateBounded(t *testing.T) {
	dpdk := func(opts ...RunOption) func() (Run, error) {
		return func() (Run, error) {
			return RunQEI(SmallDPDK(), scheme.CoreIntegrated, Full, append(opts, WithWarmup())...)
		}
	}
	withMetrics := dpdk(WithMetrics(metrics.NewRegistry()))
	for _, warm := range []func() (Run, error){dpdk(), withMetrics} {
		if _, err := warm(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name  string
		limit uint64
		run   func() (Run, error)
	}{
		{"recycled", 1 << 10, dpdk()},
		{"recycled/metrics", 16 << 10, withMetrics},
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
		t.Logf("%s run allocated %d B", tc.name, got)
		if got > tc.limit {
			t.Errorf("%s run allocated %d B, want at most %d KiB", tc.name, got, tc.limit>>10)
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
