package main

import (
	"sort"
	"time"
)

// The calibration machine is a shared VM whose effective speed drifts by
// tens of percent over minutes while other tenants come and go; the
// same pass can take 1.3 s or 2.2 s. Host times are therefore scaled by
// the speed of a fixed reference kernel timed just before each pass, and
// read as if measured on a machine where the kernel takes refNominal.
// Over ten seeded runs per workload this cut the spread of sim_qps from
// 0.04–0.45 unscaled to 0.03–0.12 (README.md, Calibration).

// refNominal is the reference kernel's median time on the calibration
// machine.
const refNominal = 35 * time.Millisecond

// refState is the kernel's working set, allocated once so the kernel
// itself never allocates or triggers a collection.
var refState struct {
	table [1 << 21]uint64 // 16 MiB of random reads and writes
	slots [1 << 12]uint64
	heap  [1 << 12]uint64
}

// referenceKernel does a fixed amount of simulator-like host work that
// no change to the program touches: dependent random accesses over a
// 16 MiB table, data-dependent branches, and binary-heap sifts.
func referenceKernel() uint64 {
	x := uint64(88172645463325252)
	n := 0
	h := refState.heap[:]
	for i := 0; i < 1_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t := &refState.table[(x^refState.slots[x>>52])&(1<<21-1)]
		if *t&1 == 0 {
			*t += x
		} else {
			*t ^= x >> 3
		}
		refState.slots[x>>52] += *t
		if n < len(h) {
			// Push, sifting up.
			j := n
			n++
			for j > 0 && h[(j-1)/2] > *t {
				h[j] = h[(j-1)/2]
				j = (j - 1) / 2
			}
			h[j] = *t
			continue
		}
		// Replace the minimum, sifting down.
		j, v := 0, *t
		for {
			c := 2*j + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1] < h[c] {
				c++
			}
			if h[c] >= v {
				break
			}
			h[j] = h[c]
			j = c
		}
		h[j] = v
	}
	return x
}

// refSink keeps the kernel's result live.
var refSink uint64

// nominal accumulates host time, in seconds, scaled to the nominal
// machine speed.
type nominal struct {
	setup, run float64
}

// add scales setup and run by a reference time measured next to them.
func (n *nominal) add(setup, run, ref time.Duration) {
	f := float64(refNominal) / float64(ref)
	n.setup += setup.Seconds() * f
	n.run += run.Seconds() * f
}

// perSecond is ops per nominal second of run time.
func (n *nominal) perSecond(ops int) float64 { return float64(ops) / n.run }

// referenceTime is the median of three timed kernel runs.
func referenceTime() time.Duration {
	var d [3]time.Duration
	for i := range d {
		start := time.Now()
		refSink += referenceKernel()
		d[i] = time.Since(start)
	}
	s := d[:]
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[1]
}
