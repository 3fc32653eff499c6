package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"qei/internal/hwdesc"
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

// idleMachine reports whether the free list holds a machine described
// by d, which the next run on d then takes.
func idleMachine(d hwdesc.Description) bool {
	machines.Lock()
	defer machines.Unlock()
	for _, m := range machines.free {
		if reflect.DeepEqual(m.Desc, d) {
			return true
		}
	}
	return false
}

// recycleCell is one run whose result must not depend on whether its
// machine was built for it or reset after other runs.
type recycleCell struct {
	name string
	desc hwdesc.Description
	run  func() (any, error)
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
	add := func(name string, d hwdesc.Description, run func() (any, error)) {
		cells = append(cells, recycleCell{name, d, run})
	}
	asAny := func(r Run, err error) (any, error) { return r, err }
	modes := []struct {
		name string
		mode Mode
	}{{"full", Full}, {"roi", ROIOnly}, {"nonroi", NonROIOnly}}
	for _, m := range modes {
		add("baseline/jvm/"+m.name, def, func() (any, error) { return asAny(RunBaseline(SmallJVM(), m.mode)) })
		for _, k := range scheme.Kinds() {
			add("qei/dpdk/"+k.Name()+"/"+m.name, def, func() (any, error) {
				if m.mode == ROIOnly {
					return asAny(RunQEI(SmallDPDK(), k, m.mode))
				}
				return asAny(RunQEI(SmallDPDK(), k, m.mode, WithWarmup()))
			})
		}
	}
	add("nb/tuple5/cha-tlb", def, func() (any, error) {
		return asAny(RunQEINonBlocking(SmallTupleSpace(5), scheme.ForKind(scheme.CHATLB), WithWarmup()))
	})
	add("multicore/dpdk/core/4", def, func() (any, error) { return RunMultiCore(SmallDPDK(), scheme.CoreIntegrated, 4) })
	add("nocwindow/flann/device-indirect", def, func() (any, error) {
		return asAny(RunQEI(SmallFLANN(), scheme.DeviceIndirect, ROIOnly, WithNoCWindow()))
	})
	add("trace/dpdk/cha-tlb", def, func() (any, error) {
		tr := trace.New(1 << 15)
		r, err := RunQEI(SmallDPDK(), scheme.CHATLB, ROIOnly, WithTrace(tr))
		return tracedRun{r, tr.Export()}, err
	})
	add("metrics/dpdk/core", def, func() (any, error) {
		return asAny(RunQEI(SmallDPDK(), scheme.CoreIntegrated, Full, WithWarmup(), WithMetrics(metrics.NewRegistry())))
	})
	add("contiguous/jvm/baseline", contiguous, func() (any, error) {
		return asAny(RunBaseline(SmallJVM(), ROIOnly, WithMachine(contiguous)))
	})
	add("qst/dpdk/core", qst, func() (any, error) {
		return asAny(RunQEI(SmallDPDK(), scheme.CoreIntegrated, ROIOnly, WithMachine(qst)))
	})
	return cells
}

// TestRecycledMachineMatchesFresh plays every cell on a freshly built
// machine, then again in a seeded shuffled order on machines that
// earlier cells used and handed back, and requires each recycled result
// to equal the fresh one. The shuffle is played twice: serially, where
// most cells must find an idle machine, and on two runner.Map workers
// that hand machines to each other through the free list. Not parallel
// with other tests: the free list is the package's.
func TestRecycledMachineMatchesFresh(t *testing.T) {
	cells := recycleCells()
	fresh := make([]any, len(cells))
	for i, c := range cells {
		dropIdleMachines()
		v, err := c.run()
		if err != nil {
			t.Fatalf("%s on a fresh machine: %v", c.name, err)
		}
		fresh[i] = v
	}
	replay := func(i int) (struct{}, error) {
		v, err := cells[i].run()
		if err != nil {
			return struct{}{}, fmt.Errorf("%s on a recycled machine: %w", cells[i].name, err)
		}
		if !reflect.DeepEqual(v, fresh[i]) {
			t.Errorf("%s: recycled machine gave\n%+v\nfresh machine gave\n%+v", cells[i].name, v, fresh[i])
		}
		return struct{}{}, nil
	}
	order := rand.New(rand.NewSource(37)).Perm(len(cells))
	recycled := 0
	for _, i := range order {
		if idleMachine(cells[i].desc) {
			recycled++
		}
		if _, err := replay(i); err != nil {
			t.Fatal(err)
		}
	}
	if recycled < len(cells)/2 {
		t.Errorf("only %d of %d cells ran on a recycled machine", recycled, len(cells))
	}
	if _, err := runner.Map(2, order, replay); err != nil {
		t.Fatal(err)
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
