package runner

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderedResults(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 4, 8, 200} {
		out, err := Map(workers, items,
			func(item int) (int, error) {
				return item * item, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	items := []string{"a", "bb", "ccc", "dddd", "eeeee", "ffffff", "g"}
	run := func(workers int) []int {
		out, err := Map(workers, items,
			func(s string) (int, error) {
				// Uneven job durations shuffle completion order.
				time.Sleep(time.Duration(len(s)%3) * time.Millisecond)
				return len(s) + int(s[0]), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, w := range []int{2, 4, 7} {
		par := run(w)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: out[%d] = %d, serial %d", w, i, par[i], serial[i])
			}
		}
	}
}

func TestMapLowestIndexErrorWins(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	items := make([]int, 32)
	for i := range items {
		items[i] = i
	}
	_, err := Map(8, items,
		func(i int) (int, error) {
			switch i {
			case 3:
				return 0, errLow
			case 20:
				return 0, errHigh
			}
			return i, nil
		})
	if !errors.Is(err, errLow) {
		t.Fatalf("err = %v, want %v", err, errLow)
	}
}

func TestMapErrorCancelsRemainingJobs(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	items := make([]int, 1000)
	for i := range items {
		items[i] = i
	}
	_, err := Map(4, items,
		func(i int) (int, error) {
			started.Add(1)
			if i == 0 {
				return 0, boom
			}
			time.Sleep(time.Millisecond)
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// No job starts after the failure, so the bulk of the queue is
	// skipped without invoking fn.
	if n := started.Load(); n >= int64(len(items))/2 {
		t.Fatalf("%d of %d jobs ran after the first failed", n, len(items))
	}
}

func TestMapEmptyAndWorkersDefault(t *testing.T) {
	out, err := Map(0, nil,
		func(int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("empty map: %v %v", out, err)
	}
	if w := Workers(0); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS", w)
	}
	if w := Workers(3); w != 3 {
		t.Fatalf("Workers(3) = %d", w)
	}
}

func TestMapConcurrencyBound(t *testing.T) {
	var inFlight, peak atomic.Int64
	items := make([]int, 64)
	_, err := Map(4, items,
		func(i int) (int, error) {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			inFlight.Add(-1)
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 4 {
		t.Fatalf("peak in-flight %d exceeds 4 workers", p)
	}
}
