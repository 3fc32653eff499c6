package serve

// Circuit breaker for the primary serving backend. The serving layer
// treats the accelerator as an unreliable fast path with the software
// walker as safety net (Tailwind's placement discipline); the breaker is
// the wholesale version of that judgment. It watches the primary's
// fault rate over a sliding window of simulated cycles and, once the
// window turns rotten, stops offering it requests at all: admission is
// bypassed and every request routes straight to the failover backend
// until a deterministic half-open probe phase proves the primary healthy
// again. Everything is driven off the backend's simulated clock, so a
// replayed trace walks the breaker through the identical state sequence.

// BreakerState is the classic three-state circuit-breaker automaton.
type BreakerState int

const (
	// BreakerClosed: healthy; requests flow to the primary backend.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the window tripped; requests fast-fail to the
	// failover backend without touching the primary.
	BreakerOpen
	// BreakerHalfOpen: the open hold expired; a bounded number of probe
	// requests test the primary while everything else stays failed over.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "invalid"
}

// The breaker's fixed policy. The window is sized to hold a few dozen
// typical request lifetimes at the default serving gap, so a burst of
// injected faults trips it within one soak but a lone fault ages out
// before the next one lands. Outcomes age out a bucket at a time. The
// breaker opens once at least breakerMinSamples outcomes in the window
// reach breakerTripRate faults, holds open for one window, and then
// half-opens: breakerProbes is both the cap on concurrently in-flight
// probes and the number of consecutive probe successes that close it;
// a probe fault reopens it.
const (
	breakerWindow     = 32768 // cycles
	breakerBuckets    = 8
	breakerWidth      = breakerWindow / breakerBuckets // cycles per bucket
	breakerTripRate   = 0.5
	breakerMinSamples = 8
	breakerOpenFor    = breakerWindow // cycles
	breakerProbes     = 4
)

// breaker is the deterministic sliding-window circuit breaker. All
// decisions are pure functions of the (simulated-cycle, outcome)
// sequence fed to Allow/Record, so serial, parallel-generated, and
// replayed runs see identical state transitions. Not safe for
// concurrent use — like the server, one goroutine owns it.
type breaker struct {
	state    BreakerState
	ok, bad  [breakerBuckets]uint64 // per-bucket outcome counts, ring-indexed
	slot     uint64                 // absolute bucket index holding the latest Record
	openedAt uint64                 // cycle of the last Closed/HalfOpen -> Open trip

	probeInflight int // half-open probes currently outstanding
	probeOK       int // consecutive half-open probe successes

	trips     uint64
	fastFails uint64
	probes    uint64
}

// rotate ages the window forward to the bucket containing cycle now,
// clearing every bucket that fell out of it.
func (b *breaker) rotate(now uint64) {
	abs := now / breakerWidth
	if abs <= b.slot {
		return
	}
	n := min(abs-b.slot, breakerBuckets)
	for i := uint64(1); i <= n; i++ {
		idx := (b.slot + i) % breakerBuckets
		b.ok[idx] = 0
		b.bad[idx] = 0
	}
	b.slot = abs
}

func (b *breaker) counts() (ok, bad uint64) {
	for i := range b.ok {
		ok += b.ok[i]
		bad += b.bad[i]
	}
	return ok, bad
}

func (b *breaker) trip(now uint64) {
	b.state = BreakerOpen
	b.openedAt = now
	b.trips++
	// Drop the rotten window so a later close starts from a clean slate
	// instead of instantly re-tripping on stale faults.
	b.ok = [breakerBuckets]uint64{}
	b.bad = [breakerBuckets]uint64{}
}

// Allow reports whether a request arriving at cycle now may try the
// primary backend. false means route it to the failover path (counted
// as a fast-fail). An open breaker whose hold has expired half-opens
// here and admits up to breakerProbes concurrent probes.
func (b *breaker) Allow(now uint64) bool {
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now < b.openedAt+breakerOpenFor {
			b.fastFails++
			return false
		}
		b.state = BreakerHalfOpen
		b.probeInflight = 0
		b.probeOK = 0
		fallthrough
	default: // BreakerHalfOpen
		if b.probeInflight >= breakerProbes {
			b.fastFails++
			return false
		}
		b.probeInflight++
		b.probes++
		return true
	}
}

// Record feeds one primary-backend outcome (ok = completed without a
// fault) observed at cycle now into the window and runs the state
// machine: a closed breaker trips when the window's fault rate reaches
// breakerTripRate with at least breakerMinSamples outcomes; a half-open
// breaker closes after breakerProbes consecutive successes and reopens
// on any fault.
func (b *breaker) Record(now uint64, ok bool) {
	b.rotate(now)
	if b.state == BreakerHalfOpen {
		if b.probeInflight > 0 {
			b.probeInflight--
		}
		if !ok {
			b.trip(now)
			return
		}
		b.probeOK++
		if b.probeOK >= breakerProbes {
			b.state = BreakerClosed
		}
		return
	}
	idx := b.slot % breakerBuckets
	if ok {
		b.ok[idx]++
	} else {
		b.bad[idx]++
	}
	if b.state != BreakerClosed || ok {
		return
	}
	okN, badN := b.counts()
	if okN+badN >= breakerMinSamples && float64(badN) >= breakerTripRate*float64(okN+badN) {
		b.trip(now)
	}
}

// State returns the current automaton state.
func (b *breaker) State() BreakerState { return b.state }

// Trips counts Closed/HalfOpen -> Open transitions.
func (b *breaker) Trips() uint64 { return b.trips }

// FastFails counts requests refused the primary while open (or while
// half-open past the probe bound) and routed to the failover path.
func (b *breaker) FastFails() uint64 { return b.fastFails }

// Probes counts requests admitted to the primary while half-open.
func (b *breaker) Probes() uint64 { return b.probes }

// BreakerReport is the breaker's summary row in a serving Report.
type BreakerReport struct {
	State     string `json:"state"`
	Trips     uint64 `json:"trips"`
	FastFails uint64 `json:"fast_fails"`
	Probes    uint64 `json:"probes"`
}
