package qei

import "testing"

// BenchmarkObservedQuery quantifies the wall-clock cost of live
// instrumentation on the hot path (compare with BenchmarkQuerySingle;
// simulated cycles are asserted identical by
// TestObservabilityZeroCycleImpact).
func BenchmarkObservedQuery(b *testing.B) {
	sys := NewSystem(CoreIntegrated, WithMetrics(), WithTimeline())
	keys, vals := testKeys(1000, 16, 42)
	table := mustBuild(b, sys, KindCuckoo, keys, vals)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.Query(table, keys[i%len(keys)])
		if err != nil {
			b.Fatal(err)
		}
		if !res.Found {
			b.Fatal("lookup missed")
		}
	}
}

// BenchmarkQuerySingle measures one accelerated query end to end through
// the public API (the library's hot path).
func BenchmarkQuerySingle(b *testing.B) {
	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(1000, 16, 42)
	table := mustBuild(b, sys, KindCuckoo, keys, vals)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.Query(table, keys[i%len(keys)])
		if err != nil {
			b.Fatal(err)
		}
		if !res.Found {
			b.Fatal("lookup missed")
		}
	}
}
