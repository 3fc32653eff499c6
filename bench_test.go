package qei

// One benchmark per table and figure of the paper's evaluation section
// (see DESIGN.md's experiment index), plus ablation benches for the
// design choices the paper argues for. Each bench prints the regenerated
// rows via b.Log so `go test -bench . -benchmem` reproduces the paper's
// data set; EXPERIMENTS.md records paper-vs-measured values.
//
// Scale: benches honour -short (small configurations); full paper-scale
// runs are the default.

import (
	"flag"
	"fmt"
	"testing"

	"qei/internal/hwdesc"
	"qei/internal/machine"
	"qei/internal/scheme"
	"qei/internal/workload"
)

// -expworkers picks the worker count for experiment fan-out in the
// figure benchmarks (0 = GOMAXPROCS, 1 = serial). Output is identical
// at any setting; only wall-clock changes.
var expWorkers = flag.Int("expworkers", 0, "experiment worker count (0 = GOMAXPROCS)")

func expOpts() []ExpOption {
	return []ExpOption{WithParallelism(*expWorkers)}
}

func benchScale(b *testing.B) Scale {
	if testing.Short() {
		return Small
	}
	return FullScale
}

func logTable(b *testing.B, t TableData) {
	b.Helper()
	b.Log("\n" + t.String())
}

// BenchmarkFig1QueryTimeShare regenerates Fig. 1.
func BenchmarkFig1QueryTimeShare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := Fig1QueryTimeShare(benchScale(b), expOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, t)
		}
	}
}

// BenchmarkTab1SchemeMatrix regenerates Tab. I.
func BenchmarkTab1SchemeMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := TabI()
		if i == 0 {
			logTable(b, t)
		}
	}
}

// BenchmarkTab2Config regenerates Tab. II.
func BenchmarkTab2Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := TabII()
		if i == 0 {
			logTable(b, t)
		}
	}
}

// BenchmarkFig7Speedup regenerates Fig. 7 (the headline result).
func BenchmarkFig7Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := Fig7Speedup(benchScale(b), expOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, t)
		}
	}
}

// BenchmarkFig8LatencySweep regenerates Fig. 8.
func BenchmarkFig8LatencySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := Fig8LatencySweep(benchScale(b), expOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, t)
		}
	}
}

// BenchmarkFig9EndToEnd regenerates Fig. 9.
func BenchmarkFig9EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := Fig9EndToEnd(benchScale(b), expOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, t)
		}
	}
}

// BenchmarkFig10TupleSpace regenerates Fig. 10.
func BenchmarkFig10TupleSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := Fig10TupleSpace(benchScale(b), expOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, t)
		}
	}
}

// BenchmarkFig11InstrReduction regenerates Fig. 11.
func BenchmarkFig11InstrReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := Fig11InstrReduction(benchScale(b), expOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, t)
		}
	}
}

// BenchmarkTab3AreaPower regenerates Tab. III.
func BenchmarkTab3AreaPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := TabIII()
		if i == 0 {
			logTable(b, t)
		}
	}
}

// BenchmarkFig12DynamicPower regenerates Fig. 12.
func BenchmarkFig12DynamicPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := Fig12DynamicPower(benchScale(b), expOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, t)
		}
	}
}

// BenchmarkNoCUtilization checks the Sec. V hotspot/bandwidth claim.
func BenchmarkNoCUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := NoCUtilization(benchScale(b), expOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, t)
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

func ablationBench(small, full workload.Benchmark, b *testing.B) workload.Benchmark {
	if testing.Short() {
		return small
	}
	return full
}

// BenchmarkAblationQSTSize sweeps the QST depth: the paper picks 10
// entries as the balance point (50-90% occupancy, Sec. VI-A).
func BenchmarkAblationQSTSize(b *testing.B) {
	bench := ablationBench(workload.SmallJVM(), workload.DefaultJVM(), b)
	for i := 0; i < b.N; i++ {
		var rows TableData
		rows.Title = "Ablation — QST entries vs ROI cycles (Core-integrated, JVM)"
		rows.Headers = []string{"qst_entries", "roi_cycles", "occupancy"}
		for _, entries := range []int{2, 5, 10, 20, 40} {
			p := scheme.ForKind(scheme.CoreIntegrated)
			p.QSTEntriesPerInstance = entries
			run, err := workload.RunQEIWithParams(bench, p, workload.ROIOnly,
				workload.WithWarmup(), workload.WithBatch(entries))
			if err != nil {
				b.Fatal(err)
			}
			rows.Rows = append(rows.Rows, []string{
				fmt.Sprintf("%d", entries),
				fmt.Sprintf("%d", run.Cycles),
				fmt.Sprintf("%.2f", run.Accel.Occupancy()),
			})
		}
		if i == 0 {
			logTable(b, rows)
		}
	}
}

// BenchmarkAblationRemoteCompare toggles the CHA comparators: without
// them the Core-integrated scheme must pull large keys through its L2.
func BenchmarkAblationRemoteCompare(b *testing.B) {
	bench := ablationBench(workload.SmallRocksDB(), workload.DefaultRocksDB(), b)
	for i := 0; i < b.N; i++ {
		var rows TableData
		rows.Title = "Ablation — remote (CHA) vs local comparison (RocksDB, 100B keys)"
		rows.Headers = []string{"comparators", "roi_cycles", "remote_compares", "mem_lines"}
		for _, remote := range []bool{true, false} {
			p := scheme.ForKind(scheme.CoreIntegrated)
			p.RemoteCompare = remote
			run, err := workload.RunQEIWithParams(bench, p, workload.ROIOnly, workload.WithWarmup())
			if err != nil {
				b.Fatal(err)
			}
			label := "remote (CHA)"
			if !remote {
				label = "local (fetch)"
			}
			rows.Rows = append(rows.Rows, []string{
				label,
				fmt.Sprintf("%d", run.Cycles),
				fmt.Sprintf("%d", run.Accel.RemoteCompares),
				fmt.Sprintf("%d", run.Accel.MemLines),
			})
		}
		if i == 0 {
			logTable(b, rows)
		}
	}
}

// BenchmarkAblationTranslation compares the three translation paths on
// one CHA-placed accelerator.
func BenchmarkAblationTranslation(b *testing.B) {
	bench := ablationBench(workload.SmallJVM(), workload.DefaultJVM(), b)
	for i := 0; i < b.N; i++ {
		var rows TableData
		rows.Title = "Ablation — translation path (CHA placement, JVM)"
		rows.Headers = []string{"translation", "roi_cycles"}
		for _, k := range []scheme.Kind{scheme.CHATLB, scheme.CHANoTLB} {
			run, err := workload.RunQEI(bench, k, workload.ROIOnly, workload.WithWarmup())
			if err != nil {
				b.Fatal(err)
			}
			rows.Rows = append(rows.Rows, []string{
				scheme.ForKind(k).Translation.String(),
				fmt.Sprintf("%d", run.Cycles),
			})
		}
		if i == 0 {
			logTable(b, rows)
		}
	}
}

// BenchmarkAblationBatch sweeps the QUERY_B software batch size.
func BenchmarkAblationBatch(b *testing.B) {
	bench := ablationBench(workload.SmallDPDK(), workload.DefaultDPDK(), b)
	for i := 0; i < b.N; i++ {
		var rows TableData
		rows.Title = "Ablation — QUERY_B batch size (DPDK, Core-integrated)"
		rows.Headers = []string{"batch", "roi_cycles"}
		for _, batch := range []int{1, 2, 5, 10, 20} {
			run, err := workload.RunQEI(bench, scheme.CoreIntegrated, workload.ROIOnly,
				workload.WithWarmup(), workload.WithBatch(batch))
			if err != nil {
				b.Fatal(err)
			}
			rows.Rows = append(rows.Rows, []string{
				fmt.Sprintf("%d", batch),
				fmt.Sprintf("%d", run.Cycles),
			})
		}
		if i == 0 {
			logTable(b, rows)
		}
	}
}

// BenchmarkAblationSkew compares uniform and Zipf-skewed (YCSB-like,
// s=0.99) query streams on the DPDK FIB: hot keys keep the software
// baseline in its private caches, so skew narrows the accelerator's
// advantage — quantifying where QEI's speedup comes from.
func BenchmarkAblationSkew(b *testing.B) {
	uniB := ablationBench(workload.SmallDPDK(), workload.DefaultDPDK(), b)
	var skewB workload.Benchmark
	if testing.Short() {
		skewB = workload.SmallSkewedDPDK()
	} else {
		skewB = workload.DefaultSkewedDPDK()
	}
	for i := 0; i < b.N; i++ {
		var rows TableData
		rows.Title = "Ablation — query-key skew (DPDK, Core-integrated)"
		rows.Headers = []string{"distribution", "sw_cyc_per_query", "speedup_x"}
		for _, bench := range []workload.Benchmark{uniB, skewB} {
			sw, err := workload.RunBaseline(bench, workload.ROIOnly, workload.WithWarmup())
			if err != nil {
				b.Fatal(err)
			}
			hw, err := workload.RunQEI(bench, scheme.CoreIntegrated, workload.ROIOnly, workload.WithWarmup())
			if err != nil {
				b.Fatal(err)
			}
			rows.Rows = append(rows.Rows, []string{
				bench.Name(),
				fmt.Sprintf("%.1f", float64(sw.Cycles)/float64(sw.Queries)),
				fmt.Sprintf("%.2f", float64(sw.Cycles)/float64(hw.Cycles)),
			})
		}
		if i == 0 {
			logTable(b, rows)
		}
	}
}

// BenchmarkAblationIndexStructure compares the two classic ordered
// indexes over identical keys: the skip list (RocksDB memtable) against
// a B+-tree. The B+-tree's shallow, wide nodes need far fewer dependent
// fetches per query, so it suits the accelerator's pipelined CFAs
// better — a structure-choice insight the abstraction makes measurable.
func BenchmarkAblationIndexStructure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var rows TableData
		rows.Title = "Ablation — index structure under QEI (same 100B keys)"
		rows.Headers = []string{"structure", "accel_cycles_per_query", "lines_per_query"}
		for _, kind := range []string{"skiplist", "btree"} {
			sys := NewSystem(CoreIntegrated)
			keys, vals := testKeys(4000, 100, 60)
			var tb Table
			var err error
			if kind == "skiplist" {
				tb, err = sys.Build(KindSkipList, keys, vals)
			} else {
				tb, err = sys.Build(KindBTree, keys, vals)
			}
			if err != nil {
				b.Fatal(err)
			}
			var total uint64
			n := 300
			for q := 0; q < n; q++ {
				res, err := sys.Query(tb, keys[(q*13)%len(keys)])
				if err != nil {
					b.Fatal(err)
				}
				if !res.Found {
					b.Fatal("lookup missed")
				}
				total += res.Latency
			}
			st := sys.Stats()
			rows.Rows = append(rows.Rows, []string{
				kind,
				fmt.Sprintf("%.0f", float64(total)/float64(n)),
				fmt.Sprintf("%.1f", float64(st.MemLines)/float64(st.Queries)),
			})
		}
		if i == 0 {
			logTable(b, rows)
		}
	}
}

// BenchmarkScalability runs the multi-core scalability study behind
// Tab. I's Scalability column.
func BenchmarkScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := Scalability(benchScale(b), expOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, t)
		}
	}
}

// BenchmarkTailLatency runs the open-loop latency extension experiment.
func BenchmarkTailLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := TailLatency(benchScale(b), expOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, t)
		}
	}
}

// BenchmarkAblationHugePage compares the default fragmented layout with
// the physically contiguous (huge-page) layout prior accelerators assume
// (Sec. II-B, Challenge 3): with contiguity, translation would be
// trivial, but the paper argues cloud services cannot rely on it.
func BenchmarkAblationHugePage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var rows TableData
		rows.Title = "Ablation — fragmented vs contiguous physical layout"
		rows.Headers = []string{"layout", "contiguous", "pages_mapped"}
		for _, contiguous := range []bool{false, true} {
			d := hwdesc.Default()
			d.ContiguousFrames = contiguous
			m := machine.New(d)
			start := m.AS.Brk()
			bench := workload.SmallDPDK()
			if _, err := bench.Build(m); err != nil {
				b.Fatal(err)
			}
			label := "fragmented (default)"
			if contiguous {
				label = "huge-page assumption"
			}
			rows.Rows = append(rows.Rows, []string{
				label,
				fmt.Sprintf("%v", m.AS.Contiguous(start, uint64(m.AS.Brk()-start))),
				fmt.Sprintf("%d", m.AS.MappedPages()),
			})
		}
		if i == 0 {
			logTable(b, rows)
		}
	}
}

// BenchmarkBenchMatrix regenerates the machine-readable benchmark
// matrix (qeibench -json).
func BenchmarkBenchMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := BenchMatrix(benchScale(b), expOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, t)
		}
	}
}

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
