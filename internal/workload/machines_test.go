package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"qei/internal/hwdesc"
	"qei/internal/machine"
	"qei/internal/metrics"
	"qei/internal/runner"
	"qei/internal/scheme"
	"qei/internal/trace"
)

// dropIdleMachines empties the free list, so the next run builds its
// machine.
func dropIdleMachines() {
	machines.Lock()
	machines.free = nil
	machines.Unlock()
}

// dropImages empties the images, so the next run of any benchmark
// builds it.
func dropImages() {
	images.Lock()
	images.list = nil
	images.Unlock()
}

// idleMachine reports whether the free list holds a machine described
// by d, which the next run on d then takes.
func idleMachine(d hwdesc.Description) bool {
	machines.Lock()
	defer machines.Unlock()
	for _, s := range machines.free {
		if reflect.DeepEqual(s.m.Desc, d) {
			return true
		}
	}
	return false
}

// imageOf reports whether an earlier run left an image of bench on d,
// which the next run of bench on d then restores.
func imageOf(bench Benchmark, d hwdesc.Description) bool {
	images.Lock()
	defer images.Unlock()
	for _, img := range images.list {
		if img.of(bench, &d) {
			return true
		}
	}
	return false
}

// unshared is a benchmark no image matches: each &unshared{b} is a
// pointer of its own, so a run of it calls Build.
type unshared struct{ Benchmark }

// recycleCell is one run whose result must not depend on whether its
// machine was built for it or reset after other runs, nor on whether
// its benchmark was built for it or restored from an image.
type recycleCell struct {
	name  string
	bench Benchmark
	desc  hwdesc.Description
	run   func(b Benchmark) (any, error)
}

// tracedRun is a run together with the events it traced.
type tracedRun struct {
	Run   Run
	Trace string
}

func recycleCells() []recycleCell {
	def := hwdesc.Default()
	contiguous := hwdesc.Default()
	contiguous.ContiguousFrames = true
	qst := hwdesc.Default()
	qst.QST = hwdesc.QST{Entries: 40, Comparators: 4}
	var cells []recycleCell
	add := func(name string, bench Benchmark, d hwdesc.Description, run func(b Benchmark) (any, error)) {
		cells = append(cells, recycleCell{name, bench, d, run})
	}
	asAny := func(r Run, err error) (any, error) { return r, err }
	modes := []struct {
		name string
		mode Mode
	}{{"full", Full}, {"roi", ROIOnly}, {"nonroi", NonROIOnly}}
	for _, m := range modes {
		add("baseline/jvm/"+m.name, SmallJVM(), def, func(b Benchmark) (any, error) { return asAny(RunBaseline(b, m.mode)) })
		for _, k := range scheme.Kinds() {
			add("qei/dpdk/"+k.Name()+"/"+m.name, SmallDPDK(), def, func(b Benchmark) (any, error) {
				if m.mode == ROIOnly {
					return asAny(RunQEI(b, k, m.mode))
				}
				return asAny(RunQEI(b, k, m.mode, WithWarmup()))
			})
		}
	}
	add("nb/tuple5/cha-tlb", SmallTupleSpace(5), def, func(b Benchmark) (any, error) {
		return asAny(RunQEINonBlocking(b, scheme.ForKind(scheme.CHATLB), WithWarmup()))
	})
	add("multicore/dpdk/core/4", SmallDPDK(), def, func(b Benchmark) (any, error) { return RunMultiCore(b, scheme.CoreIntegrated, 4) })
	add("nocwindow/flann/device-indirect", SmallFLANN(), def, func(b Benchmark) (any, error) {
		return asAny(RunQEI(b, scheme.DeviceIndirect, ROIOnly, WithNoCWindow()))
	})
	add("trace/dpdk/cha-tlb", SmallDPDK(), def, func(b Benchmark) (any, error) {
		tr := trace.New(1 << 15)
		r, err := RunQEI(b, scheme.CHATLB, ROIOnly, WithTrace(tr))
		return tracedRun{r, tr.Export()}, err
	})
	add("metrics/dpdk/core", SmallDPDK(), def, func(b Benchmark) (any, error) {
		return asAny(RunQEI(b, scheme.CoreIntegrated, Full, WithWarmup(), WithMetrics(metrics.NewRegistry())))
	})
	add("contiguous/jvm/baseline", SmallJVM(), contiguous, func(b Benchmark) (any, error) {
		return asAny(RunBaseline(b, ROIOnly, WithMachine(contiguous)))
	})
	add("qst/dpdk/core", SmallDPDK(), qst, func(b Benchmark) (any, error) {
		return asAny(RunQEI(b, scheme.CoreIntegrated, ROIOnly, WithMachine(qst)))
	})
	return cells
}

// TestRecycledMachineMatchesFresh plays every cell from scratch, its
// benchmark built on a freshly built machine, then again in a seeded
// shuffled order on machines that earlier cells used and handed back,
// restoring the images earlier cells left, and requires each replayed
// result to equal the reference. The shuffle is played twice: serially,
// where most cells must find an idle machine and a third an image (the
// images are as many as GOMAXPROCS), and on two runner.Map workers that
// hand machines to each other through the free list and restore one
// image concurrently. A cell on a chip with contiguous frames must not
// take the image of the same benchmark on the default chip. Last, one
// machine runs a chain of schemes (oneMachineThroughSchemes). Not
// parallel with other tests: the free list and the images are the
// package's.
func TestRecycledMachineMatchesFresh(t *testing.T) {
	cells := recycleCells()
	fresh := make([]any, len(cells))
	for i, c := range cells {
		dropIdleMachines()
		v, err := c.run(&unshared{c.bench})
		if err != nil {
			t.Fatalf("%s from scratch: %v", c.name, err)
		}
		fresh[i] = v
	}
	replay := func(i int) (struct{}, error) {
		c := cells[i]
		v, err := c.run(c.bench)
		if err != nil {
			return struct{}{}, fmt.Errorf("%s on a recycled machine: %w", c.name, err)
		}
		if !reflect.DeepEqual(v, fresh[i]) {
			t.Errorf("%s: recycled machine and image gave\n%+v\nfrom scratch gave\n%+v", c.name, v, fresh[i])
		}
		return struct{}{}, nil
	}
	order := rand.New(rand.NewSource(37)).Perm(len(cells))
	recycled, restored := 0, 0
	for _, i := range order {
		if idleMachine(cells[i].desc) {
			recycled++
		}
		if imageOf(cells[i].bench, cells[i].desc) {
			restored++
		}
		if _, err := replay(i); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("serial replay: %d of %d cells on a recycled machine, %d restored an image", recycled, len(cells), restored)
	if recycled < len(cells)/2 {
		t.Errorf("only %d of %d cells ran on a recycled machine", recycled, len(cells))
	}
	if restored < len(cells)/3 {
		t.Errorf("only %d of %d cells restored an image", restored, len(cells))
	}
	if _, err := runner.Map(2, order, replay); err != nil {
		t.Fatal(err)
	}

	// Contiguous frames lay the same benchmark out differently, so that
	// cell must build an image of its own beside the default chip's.
	for i, c := range cells {
		if !c.desc.ContiguousFrames {
			continue
		}
		dropImages()
		if _, err := RunBaseline(c.bench, ROIOnly); err != nil || !imageOf(c.bench, hwdesc.Default()) {
			t.Fatalf("%s: no default-chip image of the benchmark (%v)", c.name, err)
		}
		if _, err := replay(i); err != nil {
			t.Fatal(err)
		}
		if !imageOf(c.bench, c.desc) {
			t.Errorf("%s left no image of its own chip", c.name)
		}
	}
	oneMachineThroughSchemes(t)
}

// oneMachineThroughSchemes runs small DPDK on one recycled machine
// through software, CHA-TLB, a device scheme (with and without metrics)
// and Core-integrated, so that machine's core, accelerator, dedicated
// TLBs and registries carry over from run to run, and requires each
// Run, Metrics included, to equal the same run on a fresh machine.
func oneMachineThroughSchemes(t *testing.T) {
	t.Helper()
	withMetrics := func() RunOption { return WithMetrics(metrics.NewRegistry()) }
	steps := []struct {
		name string
		run  func(b Benchmark) (Run, error)
	}{
		{"software", func(b Benchmark) (Run, error) { return RunBaseline(b, Full, WithWarmup(), withMetrics()) }},
		{"cha-tlb", func(b Benchmark) (Run, error) { return RunQEI(b, scheme.CHATLB, Full, WithWarmup(), withMetrics()) }},
		{"device-indirect", func(b Benchmark) (Run, error) {
			return RunQEI(b, scheme.DeviceIndirect, Full, WithWarmup(), withMetrics())
		}},
		{"device-direct/no-metrics", func(b Benchmark) (Run, error) { return RunQEI(b, scheme.DeviceDirect, ROIOnly) }},
		{"core-integrated", func(b Benchmark) (Run, error) {
			return RunQEI(b, scheme.CoreIntegrated, Full, WithWarmup(), withMetrics())
		}},
	}
	fresh := make([]Run, len(steps))
	for i, st := range steps {
		dropIdleMachines()
		r, err := st.run(&unshared{SmallDPDK()})
		if err != nil {
			t.Fatalf("%s from scratch: %v", st.name, err)
		}
		fresh[i] = r
	}
	dropIdleMachines()
	var recycled *session
	for i, st := range steps {
		r, err := st.run(SmallDPDK())
		if err != nil {
			t.Fatalf("%s on the recycled machine: %v", st.name, err)
		}
		if len(r.Metrics) == 0 != strings.HasSuffix(st.name, "no-metrics") {
			t.Fatalf("%s: %d metrics", st.name, len(r.Metrics))
		}
		if !reflect.DeepEqual(r, fresh[i]) {
			t.Errorf("%s: the recycled machine gave\n%+v\na fresh one gave\n%+v", st.name, r, fresh[i])
		}
		machines.Lock()
		if len(machines.free) != 1 || recycled != nil && machines.free[0] != recycled {
			t.Fatalf("%s did not hand its session back to be the only idle one", st.name)
		}
		recycled = machines.free[0]
		machines.Unlock()
	}
}

// TestMachineFreeListBounded runs on GOMAXPROCS+2 distinct small chips
// and requires the free list to keep at most GOMAXPROCS of them.
func TestMachineFreeListBounded(t *testing.T) {
	dropIdleMachines()
	n := runtime.GOMAXPROCS(0)
	for i := 0; i < n+2; i++ {
		d := hwdesc.Default()
		d.Name = fmt.Sprintf("sweep%d", i)
		d.LLCSlice = hwdesc.Cache{SizeBytes: 64 << 10, Ways: 8, HitLatency: 20}
		run, err := RunBaseline(DPDK{Keys: 64, Queries: 4, Seed: 1}, ROIOnly, WithMachine(d))
		if err != nil || run.Mismatches != 0 {
			t.Fatalf("%s: %v, %d mismatches", d.Name, err, run.Mismatches)
		}
	}
	machines.Lock()
	idle := len(machines.free)
	machines.Unlock()
	if idle == 0 || idle > n {
		t.Errorf("free list holds %d machines after %d distinct chips, want 1..%d", idle, n+2, n)
	}
	dropIdleMachines()
}

// TestSharedRegistrySumsRuns passes one registry to two runs: it must
// hold the sum of their final counters, although their machines'
// counters were reset after each run.
func TestSharedRegistrySumsRuns(t *testing.T) {
	reg := metrics.NewRegistry()
	r1, err := RunQEI(SmallDPDK(), scheme.CoreIntegrated, ROIOnly, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunBaseline(SmallDPDK(), ROIOnly, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Metrics.NonZero()) == 0 || len(r2.Metrics.NonZero()) == 0 {
		t.Fatal("a run with metrics reported no counters")
	}
	if got, want := reg.Snapshot(), metrics.Merge(r1.Metrics, r2.Metrics); !reflect.DeepEqual(got, want) {
		t.Errorf("shared registry holds\n%s\nwant the sum of both runs\n%s", got, want)
	}
}

// planRecorder builds its benchmark once per pointer and keeps a deep
// copy of the plan as Build returned it.
type planRecorder struct {
	Benchmark
	builds      int
	plan, built *Plan
}

func (r *planRecorder) Build(m *machine.Machine) (*Plan, error) {
	plan, err := r.Benchmark.Build(m)
	if err == nil {
		r.builds++
		r.plan, r.built = plan, clonePlan(plan)
	}
	return plan, err
}

// clonePlan copies p down to its probes.
func clonePlan(p *Plan) *Plan {
	c := *p
	clone := func(reqs []Request) []Request {
		if reqs == nil {
			return nil
		}
		out := make([]Request, len(reqs))
		for i, r := range reqs {
			out[i].Probes = append([]Probe(nil), r.Probes...)
		}
		return out
	}
	c.Requests, c.WarmupRequests = clone(p.Requests), clone(p.WarmupRequests)
	return &c
}

// TestPlanUnchangedByRuns plays every driver on each small benchmark.
// The runs share the plan the first one built, restored with its image,
// so none of them may modify it.
func TestPlanUnchangedByRuns(t *testing.T) {
	dropImages()
	for _, b := range append(AllSmall(), SmallTupleSpace(5), SmallSkewedDPDK()) {
		r := &planRecorder{Benchmark: b}
		runs := []func() error{
			func() error { _, err := RunBaseline(r, Full, WithWarmup()); return err },
			func() error { _, err := RunBaseline(r, ROIOnly); return err },
			func() error { _, err := RunQEI(r, scheme.CoreIntegrated, Full, WithWarmup()); return err },
			func() error { _, err := RunQEI(r, scheme.CHATLB, NonROIOnly, WithBatch(4)); return err },
			func() error {
				_, err := RunQEINonBlocking(r, scheme.ForKind(scheme.DeviceIndirect), WithNoCWindow())
				return err
			},
			func() error { _, err := RunMultiCore(r, scheme.CHANoTLB, 3); return err },
		}
		for _, run := range runs {
			if err := run(); err != nil {
				t.Fatalf("%s: %v", b.Name(), err)
			}
		}
		if r.builds != 1 {
			t.Errorf("%s built %d times in %d runs, want once", b.Name(), r.builds, len(runs))
		}
		if !reflect.DeepEqual(r.plan, r.built) {
			t.Errorf("%s: a run modified the shared plan", b.Name())
		}
	}
}

// BenchmarkRestoreImage times what a cell of a matrix pays to lay its
// benchmark out on a reset default machine: "restore" puts back an
// image of small Snort or RocksDB taken once, "build" calls Build as a
// cell without an image does. The machine is reset between ops, off
// the clock.
func BenchmarkRestoreImage(b *testing.B) {
	for _, bench := range []Benchmark{SmallSnort(), SmallRocksDB()} {
		m := machine.New(hwdesc.Default())
		if _, err := bench.Build(m); err != nil {
			b.Fatal(err)
		}
		img := m.AS.Snapshot(nil)
		b.Logf("%s image: %d pages mapped", bench.Name(), m.AS.MappedPages())
		b.Run(bench.Name()+"/restore", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m.Reset()
				b.StartTimer()
				m.AS.Restore(img)
			}
		})
		b.Run(bench.Name()+"/build", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m.Reset()
				b.StartTimer()
				if _, err := bench.Build(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
