package exp

import (
	"errors"
	"strings"
	"sync"
	"testing"

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
