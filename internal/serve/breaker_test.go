package serve

import "testing"

// The breaker's policy, spelled out as literals so that a change to any
// constant in breaker.go fails these tests: a 32768-cycle window in 8
// buckets, a trip at a 0.5 fault rate over at least 8 outcomes, a hold
// of one window, and 4 half-open probes.
const (
	polWindow     = 32768
	polBucket     = polWindow / 8
	polMinSamples = 8
	polProbes     = 4
)

// record feeds n outcomes, one cycle apart from cycle at.
func record(b *breaker, at uint64, n int, ok bool) {
	for i := 0; i < n; i++ {
		b.Record(at+uint64(i), ok)
	}
}

func TestBreakerTripsAtRate(t *testing.T) {
	b := new(breaker)
	// Seven faults are below the 8-sample minimum: no trip yet.
	for i := 0; i < polMinSamples-1; i++ {
		b.Record(uint64(i*10), false)
		if b.State() != BreakerClosed {
			t.Fatalf("tripped on sample %d, below the sample minimum", i+1)
		}
	}
	b.Record(100, false)
	if b.State() != BreakerOpen {
		t.Fatalf("%d faults out of %d did not trip", polMinSamples, polMinSamples)
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
	if b.Allow(110) {
		t.Fatal("open breaker allowed the primary")
	}
	if b.FastFails() != 1 {
		t.Fatalf("fastFails = %d, want 1", b.FastFails())
	}

	// Exactly half of 8 outcomes trips; 3 of 8 does not.
	half := new(breaker)
	record(half, 0, polMinSamples/2, true)
	record(half, 100, polMinSamples/2-1, false)
	if half.State() != BreakerClosed {
		t.Fatal("3 faults in 7 outcomes tripped")
	}
	half.Record(200, false)
	if half.State() != BreakerOpen {
		t.Fatal("4 faults in 8 outcomes (rate 0.5) did not trip")
	}
	under := new(breaker)
	record(under, 0, polMinSamples/2+1, true)
	record(under, 100, polMinSamples/2-1, false)
	if under.State() != BreakerClosed {
		t.Fatal("3 faults in 8 outcomes (rate 0.375) tripped")
	}
}

func TestBreakerHealthyMajorityStaysClosed(t *testing.T) {
	b := new(breaker)
	// 1 fault in 10 is far under the 0.5 trip rate.
	for i := uint64(0); i < 10; i++ {
		b.Record(i*10, i != 3)
	}
	if b.State() != BreakerClosed {
		t.Fatal("healthy stream tripped the breaker")
	}
	if !b.Allow(200) {
		t.Fatal("closed breaker refused the primary")
	}
}

func TestBreakerWindowAgesOutFaults(t *testing.T) {
	// Seven faults (one short of the minimum) at cycle ~0, then one
	// fresh fault. In the last bucket of the window the stale faults
	// still count and the eighth trips the breaker ...
	within := new(breaker)
	record(within, 0, polMinSamples-1, false)
	within.Record(polWindow-polBucket, false)
	if within.State() != BreakerOpen {
		t.Fatal("faults inside the window did not count")
	}
	// ... but one window later they have aged out: the fresh fault is
	// alone, below the sample minimum.
	aged := new(breaker)
	record(aged, 0, polMinSamples-1, false)
	aged.Record(polWindow, false)
	if aged.State() != BreakerClosed {
		t.Fatal("aged-out faults still counted against the window")
	}
}

func TestBreakerHalfOpenCloseAndRetrip(t *testing.T) {
	b := new(breaker)
	record(b, 0, polMinSamples, false)
	if b.State() != BreakerOpen {
		t.Fatal("no trip")
	}
	openedAt := b.openedAt
	// The hold lasts one window: fast-fail until its last cycle.
	if b.Allow(openedAt + polWindow - 1) {
		t.Fatal("allowed during open hold")
	}
	// Then half-open, admitting 4 concurrent probes and no more.
	for i := 0; i < polProbes; i++ {
		if !b.Allow(openedAt + polWindow + uint64(i)) {
			t.Fatalf("probe %d refused", i+1)
		}
		if b.State() != BreakerHalfOpen {
			t.Fatalf("state %v after hold, want half-open", b.State())
		}
	}
	if b.Allow(openedAt + polWindow + 10) {
		t.Fatal("probe bound not enforced")
	}
	if b.Probes() != polProbes {
		t.Fatalf("probes = %d, want %d", b.Probes(), polProbes)
	}
	// Three probe successes leave it half-open; the fourth closes it.
	record(b, openedAt+polWindow+100, polProbes-1, true)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v after %d probe successes, want half-open", b.State(), polProbes-1)
	}
	b.Record(openedAt+polWindow+200, true)
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after %d probe successes, want closed", b.State(), polProbes)
	}

	// Trip again, half-open again, and this time a probe fault reopens.
	record(b, openedAt+polWindow+300, polMinSamples, false)
	if b.State() != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("second trip missing: state %v trips %d", b.State(), b.Trips())
	}
	if !b.Allow(b.openedAt + polWindow) {
		t.Fatal("no probe on second half-open")
	}
	b.Record(b.openedAt+polWindow+100, false)
	if b.State() != BreakerOpen || b.Trips() != 3 {
		t.Fatalf("probe fault did not re-trip: state %v trips %d", b.State(), b.Trips())
	}
}

// TestBreakerDeterministic pins that the automaton is a pure function
// of the fed (cycle, outcome) sequence — the property replay identity
// rests on.
func TestBreakerDeterministic(t *testing.T) {
	run := func() (BreakerState, uint64, uint64, uint64) {
		b := new(breaker)
		x := uint64(99)
		for i := uint64(0); i < 2000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			now := i * 300
			if b.Allow(now) {
				b.Record(now+200, x%2 != 0)
			}
		}
		return b.State(), b.Trips(), b.FastFails(), b.Probes()
	}
	s1, t1, f1, p1 := run()
	s2, t2, f2, p2 := run()
	if s1 != s2 || t1 != t2 || f1 != f2 || p1 != p2 {
		t.Fatalf("same sequence diverged: (%v %d %d %d) vs (%v %d %d %d)",
			s1, t1, f1, p1, s2, t2, f2, p2)
	}
	if t1 == 0 || f1 == 0 || p1 == 0 {
		t.Fatalf("sequence exercised no trips (%d), fast-fails (%d) or probes (%d)", t1, f1, p1)
	}
}
