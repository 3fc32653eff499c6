package workload

import (
	"runtime"
	"testing"

	"qei/internal/scheme"
)

// TestRunsAllocateBounded pins that a session streams its traces into
// the core through the builder's fixed-size buffer: materialising a
// chunk of Snort requests (8 × 512 000 non-ROI ops of 32 B) would
// allocate over 100 MiB per run. About 9 MiB is the machine itself.
// Not parallel: TotalAlloc counts every goroutine's allocations.
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
// benchmark with the longest per-request non-ROI stream. Run it with
// -benchmem: B/op is what the streamed builder bounds.
func BenchmarkRunQEISnort(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunQEI(SmallSnort(), scheme.CoreIntegrated, Full, WithWarmup()); err != nil {
			b.Fatal(err)
		}
	}
}
