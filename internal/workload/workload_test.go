package workload

import (
	"reflect"
	"strings"
	"testing"

	"qei/internal/scheme"
	"qei/internal/trace"
)

func TestBaselineRunsCleanAllBenchmarks(t *testing.T) {
	for _, b := range AllSmall() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			run, err := RunBaseline(b, Full)
			if err != nil {
				t.Fatal(err)
			}
			if run.Mismatches != 0 {
				t.Fatalf("%d result mismatches", run.Mismatches)
			}
			if run.Queries == 0 || run.Cycles == 0 {
				t.Fatalf("empty run: %+v", run)
			}
			if run.Core.Instructions == 0 {
				t.Fatal("no instructions retired")
			}
		})
	}
}

func TestQEIRunsCleanAllBenchmarks(t *testing.T) {
	for _, b := range AllSmall() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			run, err := RunQEI(b, scheme.CoreIntegrated, Full)
			if err != nil {
				t.Fatal(err)
			}
			if run.Mismatches != 0 {
				t.Fatalf("%d result mismatches", run.Mismatches)
			}
			if run.Accel == nil || run.Accel.Queries == 0 {
				t.Fatal("accelerator saw no queries")
			}
		})
	}
}

func TestQEIBeatsBaselineROI(t *testing.T) {
	for _, b := range []Benchmark{SmallDPDK(), SmallJVM(), SmallRocksDB()} {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			sw, err := RunBaseline(b, ROIOnly)
			if err != nil {
				t.Fatal(err)
			}
			hw, err := RunQEI(b, scheme.CoreIntegrated, ROIOnly)
			if err != nil {
				t.Fatal(err)
			}
			speedup := float64(sw.Cycles) / float64(hw.Cycles)
			if speedup < 1.5 {
				t.Fatalf("ROI speedup = %.2fx — QEI should clearly beat software", speedup)
			}
		})
	}
}

func TestROISharesInProfileBand(t *testing.T) {
	// Fig. 1: query operations take 23–44% of CPU time. Allow some slack
	// around the band for the small test configurations.
	for _, b := range AllSmall() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			full, err := RunBaseline(b, Full)
			if err != nil {
				t.Fatal(err)
			}
			nonROI, err := RunBaseline(b, NonROIOnly)
			if err != nil {
				t.Fatal(err)
			}
			share := float64(full.Cycles-nonROI.Cycles) / float64(full.Cycles)
			if share < 0.15 || share > 0.60 {
				t.Fatalf("ROI share = %.2f, want within the profiled band (~0.23-0.44)", share)
			}
		})
	}
}

func TestInstructionCountReduction(t *testing.T) {
	// Fig. 11: QEI eliminates most dynamic instructions in the ROI.
	b := SmallDPDK()
	sw, err := RunBaseline(b, ROIOnly)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := RunQEI(b, scheme.CoreIntegrated, ROIOnly)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(hw.Core.Instructions) / float64(sw.Core.Instructions)
	// Hash-table queries are the shortest software routines, so they show
	// the smallest relative reduction; even there most dynamic
	// instructions must disappear (Fig. 11).
	if ratio > 0.40 {
		t.Fatalf("QEI retains %.0f%% of baseline instructions; want <40%%", ratio*100)
	}
}

func TestNonBlockingTupleSpace(t *testing.T) {
	b := SmallTupleSpace(5)
	run, err := RunQEINonBlocking(b, scheme.ForKind(scheme.CoreIntegrated))
	if err != nil {
		t.Fatal(err)
	}
	if run.Mismatches != 0 {
		t.Fatalf("%d mismatches", run.Mismatches)
	}
	if run.Accel.NonBlocking == 0 {
		t.Fatal("no non-blocking queries issued")
	}
	if run.Queries != 96*5 {
		t.Fatalf("queries = %d, want %d", run.Queries, 96*5)
	}
}

func TestNonBlockingHonoursParams(t *testing.T) {
	// The QUERY_NB driver must size the accelerator from the params it
	// is given, as the blocking driver does. Tuple-space search keeps
	// many probes in flight, so a 2-entry QST with one comparator stalls
	// where the default 10-entry QST does not.
	b := SmallTupleSpace(5)
	def := scheme.ForKind(scheme.CoreIntegrated)
	small := def
	small.QSTEntriesPerInstance, small.ComparatorsPerSite = 2, 1
	base, err := RunQEINonBlocking(b, def)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := RunQEINonBlocking(b, small)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Mismatches != 0 {
		t.Fatalf("%d mismatches", tight.Mismatches)
	}
	if tight.Cycles == base.Cycles {
		t.Fatalf("2-entry QST ran in the default %d cycles; params ignored", base.Cycles)
	}
}

func TestNonBlockingHelpsDeviceSchemesMost(t *testing.T) {
	// Sec. VII-B: with QUERY_NB "the performance of the Device-based
	// schemes becomes much better than using the blocking instruction"
	// because hundreds of in-flight operations amortize the long access
	// latency; the Core-integrated scheme is capped at its 10-entry QST.
	b := SmallTupleSpace(10)
	blocking, err := RunQEI(b, scheme.DeviceDirect, Full)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := RunQEINonBlocking(b, scheme.ForKind(scheme.DeviceDirect))
	if err != nil {
		t.Fatal(err)
	}
	gain := float64(blocking.Cycles) / float64(nb.Cycles)
	if gain < 1.3 {
		t.Fatalf("device NB gain = %.2fx over blocking; want a clear win", gain)
	}

	// Core-integrated: NB cannot add much beyond the QST bound.
	ciB, err := RunQEI(b, scheme.CoreIntegrated, Full)
	if err != nil {
		t.Fatal(err)
	}
	ciNB, err := RunQEINonBlocking(b, scheme.ForKind(scheme.CoreIntegrated))
	if err != nil {
		t.Fatal(err)
	}
	ciGain := float64(ciB.Cycles) / float64(ciNB.Cycles)
	if ciGain > gain {
		t.Fatalf("Core-integrated NB gain (%.2fx) should not exceed the device gain (%.2fx)", ciGain, gain)
	}
}

func TestTupleSpeedupGrowsWithTuples(t *testing.T) {
	// Fig. 10: "as the number of tuples increases, the speedup also
	// increases due to the increasing parallelism."
	speedup := func(tuples int) float64 {
		b := SmallTupleSpace(tuples)
		sw, err := RunBaseline(b, Full)
		if err != nil {
			t.Fatal(err)
		}
		nb, err := RunQEINonBlocking(b, scheme.ForKind(scheme.CoreIntegrated))
		if err != nil {
			t.Fatal(err)
		}
		return float64(sw.Cycles) / float64(nb.Cycles)
	}
	s5 := speedup(5)
	s15 := speedup(15)
	if s15 <= s5 {
		t.Fatalf("speedup should grow with tuple count: 5 tuples %.2fx, 15 tuples %.2fx", s5, s15)
	}
}

func TestJVMAccessesPerQueryNearPaper(t *testing.T) {
	// Paper: 39.9 memory accesses per query on the JVM benchmark.
	b := DefaultJVM()
	b.Objects = 20000 // keep the test quick; depth ~2ln(20000) ≈ 19.8
	b.Queries = 100
	run, err := RunQEI(b, scheme.CoreIntegrated, ROIOnly)
	if err != nil {
		t.Fatal(err)
	}
	perQuery := float64(run.Accel.MemLines) / float64(run.Accel.Queries)
	if perQuery < 20 || perQuery > 70 {
		t.Fatalf("JVM memory accesses per query = %.1f, want near the paper's ~39.9", perQuery)
	}
}

func TestDeterministicRuns(t *testing.T) {
	b := SmallDPDK()
	r1, err := RunBaseline(b, Full)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunBaseline(b, Full)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Core.Instructions != r2.Core.Instructions {
		t.Fatalf("runs not deterministic: %d/%d vs %d/%d cycles/instrs",
			r1.Cycles, r1.Core.Instructions, r2.Cycles, r2.Core.Instructions)
	}
}

// TestTracedFullRunMatchesUntraced requires a Full-mode run with a
// tracer attached to equal the same run without one. A tracer makes the
// machine's memory port decline every ring walk of skipped filler
// loads, so the traced run times each Filler block op by op where the
// untraced one skips periods: the two must not differ in any field.
func TestTracedFullRunMatchesUntraced(t *testing.T) {
	drivers := []struct {
		name string
		run  func(b Benchmark, opts ...RunOption) (Run, error)
	}{
		{"baseline", func(b Benchmark, opts ...RunOption) (Run, error) { return RunBaseline(b, Full, opts...) }},
		{"qei-core", func(b Benchmark, opts ...RunOption) (Run, error) {
			return RunQEI(b, scheme.CoreIntegrated, Full, opts...)
		}},
		{"qei-nb", func(b Benchmark, opts ...RunOption) (Run, error) {
			return RunQEINonBlocking(b, scheme.ForKind(scheme.CoreIntegrated), opts...)
		}},
	}
	for _, b := range AllSmall() {
		for _, d := range drivers {
			plain, err := d.run(b)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name(), d.name, err)
			}
			tr := trace.New(1 << 10)
			traced, err := d.run(b, WithTrace(tr))
			if err != nil {
				t.Fatalf("%s/%s traced: %v", b.Name(), d.name, err)
			}
			if tr.Len() == 0 {
				t.Fatalf("%s/%s: the tracer recorded no event", b.Name(), d.name)
			}
			if !reflect.DeepEqual(traced, plain) {
				t.Errorf("%s/%s: traced run\n%+v\nuntraced run\n%+v", b.Name(), d.name, traced, plain)
			}
		}
	}
}

func TestFLANNProbesAllTables(t *testing.T) {
	b := SmallFLANN()
	run, err := RunQEI(b, scheme.CoreIntegrated, ROIOnly)
	if err != nil {
		t.Fatal(err)
	}
	if run.Queries != 60*12 {
		t.Fatalf("queries = %d, want %d (12 tables per request)", run.Queries, 60*12)
	}
	if run.Mismatches != 0 {
		t.Fatalf("%d mismatches", run.Mismatches)
	}
}

// TestCatalogue pins the one name table the CLIs resolve -workload
// through: every name resolves at both scales to the benchmark the
// reports print, and an unknown name is an error naming them all.
func TestCatalogue(t *testing.T) {
	want := map[string]string{
		"dpdk": "DPDK", "jvm": "JVM", "rocksdb": "RocksDB", "snort": "Snort", "flann": "FLANN",
		"tuple5": "TupleSpace-5", "tuple10": "TupleSpace-10", "tuple15": "TupleSpace-15",
	}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %d names", names, len(want))
	}
	for _, name := range names {
		small, err := Lookup(name, false)
		if err != nil {
			t.Fatalf("Lookup(%q, small): %v", name, err)
		}
		full, err := Lookup(name, true)
		if err != nil {
			t.Fatalf("Lookup(%q, full): %v", name, err)
		}
		if small.Name() != want[name] || full.Name() != want[name] {
			t.Errorf("%s: names %q (small) and %q (full), want %q", name, small.Name(), full.Name(), want[name])
		}
		if small == full {
			t.Errorf("%s: small and full scale are the same benchmark %+v", name, small)
		}
	}
	for _, bad := range []string{"quake", ""} {
		_, err := Lookup(bad, false)
		if err == nil {
			t.Fatalf("Lookup(%q) resolved, want an error", bad)
		}
		for _, name := range names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("Lookup(%q) error %q does not list %q", bad, err, name)
			}
		}
	}
}
