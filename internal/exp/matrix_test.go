package exp

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"qei/internal/hwdesc"
	"qei/internal/qei"
	"qei/internal/scheme"
	"qei/internal/workload"
)

// TestCheckedNamesTheRun pins the package's one answer check: a run
// with a wrong answer fails naming its benchmark, scheme and mode, and
// a clean run or a run error passes through unchanged.
func TestCheckedNamesTheRun(t *testing.T) {
	bad := workload.Run{Name: "DPDK", Scheme: "software", Mode: workload.NonROIOnly, Mismatches: 2}
	if _, err := checked(bad, nil); err == nil {
		t.Fatal("a run with 2 wrong answers passed the check")
	} else {
		for _, want := range []string{"DPDK", "software", "NonROIOnly", "2 wrong results"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
	}
	ok := workload.Run{Name: "JVM", Scheme: "CHA-TLB", Cycles: 7}
	if r, err := checked(ok, nil); err != nil || r.Cycles != 7 {
		t.Errorf("clean run: %+v, %v", r, err)
	}
	failed := errors.New("build failed")
	if _, err := checked(bad, failed); err != failed {
		t.Errorf("run error replaced by %v", err)
	}
}

// TestOnceComputesOnce pins the memo's sharing: concurrent readers of
// one value see a single computation and its result.
func TestOnceComputesOnce(t *testing.T) {
	var o once[int]
	var mu sync.Mutex
	calls := 0
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := o.get(func() (int, error) {
				mu.Lock()
				defer mu.Unlock()
				calls++
				return 42, nil
			})
			if v != 42 || err != nil {
				t.Errorf("got %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("computed %d times, want once", calls)
	}
}

// countingMemo returns a fresh memo whose misses are counted per cell in
// sims instead of simulated: each answers with a small made-up run, so
// the tables render instantly.
func countingMemo(sims map[cell]int) *memo {
	var mu sync.Mutex
	return &memo{sim: func(c cell) (workload.Run, error) {
		mu.Lock()
		defer mu.Unlock()
		sims[c]++
		return workload.Run{Name: c.bench.Name(), Mode: c.mode, Queries: 10, Cycles: 1000, Accel: &qei.Stats{}}, nil
	}}
}

// renderOn runs the named registry entries on m at Small, each on four
// workers.
func renderOn(t *testing.T, m *memo, names ...string) {
	t.Helper()
	byName := map[string]Experiment{}
	for _, e := range experiments(m) {
		byName[e.Name] = e
	}
	for _, name := range names {
		e, ok := byName[name]
		if !ok {
			t.Fatalf("no experiment %q", name)
		}
		if _, err := e.Run(Small, 4); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestCellsAreShared renders Fig. 7, Fig. 12 and Fig. 1, then Fig. 8,
// Fig. 11 and the five run-based ablations on one memo, and requires
// that the later tables simulate nothing the earlier ones ran: each of
// the 17 rows below is a hit, as is Fig. 8's software pair from the
// evaluation matrix, and every other cell is simulated exactly once.
// Each later table is also rendered alone, on a fresh memo, to learn
// the cells it reads.
func TestCellsAreShared(t *testing.T) {
	dev := scheme.ForKind(scheme.DeviceIndirect)
	if p, err := hwdesc.ForScheme(scheme.DeviceIndirect).WithDataLatency(300).SchemeParams(); err != nil || p != dev {
		t.Fatalf("Fig. 8's 300-cycle machine is not the Tab. II Device-indirect scheme: %+v, %v", p, err)
	}
	core := scheme.ForKind(scheme.CoreIntegrated)
	jvm, rocks, dpdk := workload.SmallJVM(), workload.SmallRocksDB(), workload.SmallDPDK()
	wantHits := map[string][]cell{
		"abl-qst":    {bCell(jvm, core, workload.ROIOnly, warm)},
		"abl-remote": {bCell(rocks, core, workload.ROIOnly, warm)},
		"abl-translation": {
			bCell(jvm, scheme.ForKind(scheme.CHATLB), workload.ROIOnly, warm),
			bCell(jvm, scheme.ForKind(scheme.CHANoTLB), workload.ROIOnly, warm),
		},
		"abl-batch": {bCell(dpdk, core, workload.Full, warm)},
		"abl-skew":  {swCell(dpdk, workload.ROIOnly, warm), bCell(dpdk, core, workload.ROIOnly, warm)},
	}
	for _, b := range benchesFor(Small) {
		wantHits["fig8"] = append(wantHits["fig8"], bCell(b, dev, workload.Full, warm))
		wantHits["fig11"] = append(wantHits["fig11"], swCell(b, workload.ROIOnly, cold))
	}
	matrixSW := map[cell]bool{}
	for _, b := range benchesFor(Small) {
		for _, mode := range []workload.Mode{workload.Full, workload.NonROIOnly} {
			matrixSW[swCell(b, mode, warm)] = true
			wantHits["fig8"] = append(wantHits["fig8"], swCell(b, mode, warm))
		}
	}

	sims := map[cell]int{}
	shared := countingMemo(sims)
	renderOn(t, shared, "fig7", "fig12", "fig1")
	earlier := map[cell]bool{}
	for c := range sims {
		earlier[c] = true
	}
	hits := 0
	for _, name := range []string{"fig8", "fig11", "abl-qst", "abl-remote", "abl-translation", "abl-batch", "abl-skew"} {
		before := len(sims)
		renderOn(t, shared, name)
		alone := map[cell]int{}
		renderOn(t, countingMemo(alone), name)
		want := map[cell]bool{}
		for _, c := range wantHits[name] {
			want[c] = true
			if !earlier[c] {
				t.Errorf("%s: %+v was not simulated by Fig. 7, 12 or 1", name, c)
			}
			if alone[c] == 0 {
				t.Errorf("%s does not read %+v", name, c)
			}
		}
		for c := range alone {
			if earlier[c] && !want[c] {
				t.Errorf("%s: unexpected hit %+v", name, c)
			}
		}
		if got, wantNew := len(sims)-before, len(alone)-len(want); got != wantNew {
			t.Errorf("%s simulated %d new cells after the earlier tables, want %d", name, got, wantNew)
		}
		for c := range want {
			if !matrixSW[c] {
				hits++
			}
		}
	}
	if hits != 17 {
		t.Errorf("%d hits besides Fig. 8's software pair listed, want 17", hits)
	}
	for c, n := range sims {
		if n != 1 {
			t.Errorf("%+v simulated %d times", c, n)
		}
	}
}
