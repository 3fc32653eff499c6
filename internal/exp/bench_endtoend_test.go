package exp

// End-to-end wall-clock benchmarks for the simulator hot path, sized
// for -benchmem iteration during performance work. They back the ci.sh
// bench-guard stage: the repository root's BENCH_guard.json pins their
// allocs/op envelope.

import (
	"testing"

	"qei"
	"qei/internal/scheme"
	"qei/internal/workload"
)

// BenchmarkEndToEndBaseline runs the software baseline end to end on
// the small DPDK workload: trace synthesis through the OoO core model,
// caches, TLBs, and mesh.
func BenchmarkEndToEndBaseline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.RunBaseline(workload.SmallDPDK(), workload.Full,
			workload.WithWarmup()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndQEI runs the accelerated path (CHA-TLB scheme) end
// to end on the small DPDK workload: QST issue, CEE walks, comparator
// booking, NoC accounting.
func BenchmarkEndToEndQEI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run, err := workload.RunQEI(workload.SmallDPDK(), scheme.CHATLB,
			workload.Full, workload.WithWarmup())
		if err != nil {
			b.Fatal(err)
		}
		if run.Mismatches != 0 {
			b.Fatalf("%d wrong results", run.Mismatches)
		}
	}
}

// benchBatchSetup builds the batch benchmarks' shared fixture: a
// 4096-key B+ tree and a shuffled 64-probe set with duplicates and
// misses (the level-wise engine's acceptance workload).
func benchBatchSetup(b *testing.B) (*qei.System, qei.Table, [][]byte) {
	b.Helper()
	keys, vals := batchGenKeys(4096, 16, 42)
	absent, _ := batchGenKeys(64, 16, 43)
	probes := batchProbeSet(keys, absent, 64, 44)
	s := qei.NewSystem(qei.CoreIntegrated)
	tb, err := s.Build(qei.KindBTree, keys, vals)
	if err != nil {
		b.Fatal(err)
	}
	return s, tb, probes
}

// BenchmarkQueryBatch runs a 64-key batch through the level-wise
// engine — the batched hot path the BENCH_guard envelope pins.
func BenchmarkQueryBatch(b *testing.B) {
	b.ReportAllocs()
	s, tb, probes := benchBatchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.QueryBatch(tb, probes, qei.WithBatchMode(qei.BatchLevelWise)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryBatchWindowed runs the identical batch on the windowed
// non-blocking path, for side-by-side wall-clock comparison.
func BenchmarkQueryBatchWindowed(b *testing.B) {
	b.ReportAllocs()
	s, tb, probes := benchBatchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.QueryBatch(tb, probes, qei.WithBatchMode(qei.BatchWindowed)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryBatchPerQuery runs the identical probes as sequential
// blocking queries — the unbatched reference.
func BenchmarkQueryBatchPerQuery(b *testing.B) {
	b.ReportAllocs()
	s, tb, probes := benchBatchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range probes {
			if _, err := s.Query(tb, p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEndToEndBench runs one full cell of the "bench" experiment
// matrix — baseline plus every integration scheme — exactly as
// qeibench -exp bench does, on one workload.
func BenchmarkEndToEndBench(b *testing.B) {
	b.ReportAllocs()
	benches := []workload.Benchmark{workload.SmallDPDK()}
	for i := 0; i < b.N; i++ {
		if _, err := runBenchOn(benches, 1); err != nil {
			b.Fatal(err)
		}
	}
}
