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
// Snort requests 8 × 512 000 ops of 32 B, over 100 MiB per run. About
// 9 MiB is the machine itself. Not parallel: TotalAlloc counts every
// goroutine's allocations.
func TestRunsAllocateBounded(t *testing.T) {
	const limit = 64 << 20
	for _, tc := range []struct {
		name string
		run  func() (Run, error)
	}{
		{"qei", func() (Run, error) { return RunQEI(SmallSnort(), scheme.CoreIntegrated, Full, WithWarmup()) }},
		{"baseline", func() (Run, error) { return RunBaseline(SmallSnort(), Full, WithWarmup()) }},
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
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("%s run allocated %d MiB, want at most %d MiB", tc.name, got>>20, limit>>20)
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
