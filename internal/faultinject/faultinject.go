// Package faultinject is the deterministic, seeded fault-injection
// harness behind the robustness layer (Sec. IV-D of the paper requires
// accelerator exceptions to surface architecturally and queries to be
// replayable; this package manufactures the failures those paths are
// tested against).
//
// Every injection decision is a pure function of (seed, fault kind,
// per-kind opportunity counter): component hot paths call a hook at each
// opportunity, the hook advances the counter and hashes it against the
// kind's configured rate. No time, no math/rand state, no goroutine
// coupling — replaying the same workload with the same Schedule
// reproduces the same fault sequence bit for bit, which is what makes a
// chaos-soak failure debuggable from its seed alone.
//
// The Injector is armed only while the accelerator executes a query
// (package qei brackets execute with Arm/Disarm), so host-side structure
// builders and the software walker always see clean memory. Every
// hook is nil-safe and disarmed-safe: a simulation without fault
// injection pays one predictable branch and cannot diverge by a cycle.
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// BitFlip corrupts one bit of data read from guest memory while the
	// accelerator walks a structure (a transient single-event upset on
	// the read path; memory itself stays intact).
	BitFlip Kind = iota
	// NoCDelay adds cycles to a mesh transfer (congestion, link retry).
	NoCDelay
	// NoCDrop drops a mesh message, forcing a retransmission: the
	// transfer pays the path twice plus a timeout penalty.
	NoCDrop
	// TLBShootdown invalidates a TLB before a lookup (a concurrent
	// munmap/IPI on another core), forcing a page walk.
	TLBShootdown
	// Spurious raises a spurious CFA exception on a transition — the
	// accelerator-internal soft error the retry path exists for.
	Spurious
	// Evict invalidates the accessed LLC line before lookup (capacity
	// pressure from other tenants), forcing a DRAM fill.
	Evict

	numKinds
)

// kindNames maps kinds to their schedule-spec spellings.
var kindNames = [numKinds]string{
	BitFlip:      "flip",
	NoCDelay:     "nocdelay",
	NoCDrop:      "nocdrop",
	TLBShootdown: "shootdown",
	Spurious:     "spurious",
	Evict:        "evict",
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// NumKinds reports how many fault kinds exist.
func NumKinds() int { return int(numKinds) }

// Schedule is a replayable fault plan: a seed plus one firing rate per
// kind. Rates are probabilities per opportunity in [0, 1].
type Schedule struct {
	Seed uint64
	Rate [numKinds]float64
}

// ParseSchedule parses the "seed:kind=rate,kind=rate" spec used by the
// qeiserve -faults flag, e.g. "7:flip=0.001,spurious=0.01". Kinds are
// flip, nocdelay, nocdrop, shootdown, spurious, evict; omitted kinds
// stay at rate 0. "seed:" alone is a valid all-zero schedule.
func ParseSchedule(spec string) (Schedule, error) {
	var s Schedule
	seedStr, rates, ok := strings.Cut(spec, ":")
	if !ok {
		return s, fmt.Errorf("faultinject: spec %q needs the form seed:kind=rate,...", spec)
	}
	seed, err := strconv.ParseUint(strings.TrimSpace(seedStr), 0, 64)
	if err != nil {
		return s, fmt.Errorf("faultinject: bad seed in %q: %v", spec, err)
	}
	s.Seed = seed
	if strings.TrimSpace(rates) == "" {
		return s, nil
	}
	for _, part := range strings.Split(rates, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return s, fmt.Errorf("faultinject: bad rate %q (want kind=rate)", part)
		}
		r, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || !(r >= 0 && r <= 1) { // so NaN fails too
			return s, fmt.Errorf("faultinject: rate %q must be a probability in [0,1]", part)
		}
		found := false
		for k, kn := range kindNames {
			if kn == strings.ToLower(strings.TrimSpace(name)) {
				s.Rate[k] = r
				found = true
				break
			}
		}
		if !found {
			return s, fmt.Errorf("faultinject: unknown fault kind %q (have %s)",
				name, strings.Join(kindNames[:], ", "))
		}
	}
	return s, nil
}

// String renders the schedule back into ParseSchedule's spec form, with
// kinds in a fixed order so equal schedules print identically.
func (s Schedule) String() string {
	var parts []string
	for k, r := range s.Rate {
		if r > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", kindNames[k], r))
		}
	}
	sort.Strings(parts)
	return fmt.Sprintf("%d:%s", s.Seed, strings.Join(parts, ","))
}

// Injector hands out deterministic injection decisions. The zero of
// *Injector (nil) is a valid, permanently-disabled injector; every
// method no-ops on it, mirroring the repo's nil-safe observability
// pattern so disabled fault injection costs nothing and changes nothing.
type Injector struct {
	sched Schedule
	armed bool

	ops      [numKinds]uint64 // opportunities seen per kind
	hits     [numKinds]uint64 // injections fired per kind
	injected uint64           // total injections fired
}

// New builds an injector from a schedule.
func New(s Schedule) *Injector { return &Injector{sched: s} }

// Arm enables injection. The accelerator arms around query execution so
// host-side builders and the software walker stay uncorrupted.
func (i *Injector) Arm() {
	if i != nil {
		i.armed = true
	}
}

// Disarm disables injection.
func (i *Injector) Disarm() {
	if i != nil {
		i.armed = false
	}
}

// Injected returns the total number of faults fired so far. The engine
// snapshots it around an execution attempt to classify faults as
// transient (injection happened during the attempt ⇒ worth retrying).
func (i *Injector) Injected() uint64 {
	if i == nil {
		return 0
	}
	return i.injected
}

// Hits returns how many times kind k fired.
func (i *Injector) Hits(k Kind) uint64 {
	if i == nil {
		return 0
	}
	return i.hits[k]
}

// splitmix64 is the SplitMix64 finalizer — a strong, allocation-free
// mix of one 64-bit word, the standard choice for counter-based PRNGs.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// fire decides one injection opportunity for kind k: it advances the
// kind's opportunity counter and hashes (seed, kind, counter) against
// the kind's rate. The returned word is the hash, usable as deterministic
// entropy for the fault's payload (which bit to flip, how long to delay).
func (i *Injector) fire(k Kind) (uint64, bool) {
	if i == nil || !i.armed {
		return 0, false
	}
	n := i.ops[k]
	i.ops[k]++
	r := i.sched.Rate[k]
	if r <= 0 {
		return 0, false
	}
	h := splitmix64(i.sched.Seed ^ (uint64(k)+1)*0xA24BAED4963EE407 ^ n*0x9E3779B97F4A7C15)
	// Compare the hash's upper 53 bits against the rate so r = 1 always
	// fires and r = 0 never does, without uint64 overflow at the edges.
	if float64(h>>11)/float64(1<<53) < r {
		i.hits[k]++
		i.injected++
		return h, true
	}
	return 0, false
}

// MaybeFlip flips one deterministic bit of buf when a BitFlip fires,
// reporting whether it did. addr salts the bit choice so different
// reads corrupt different bits.
func (i *Injector) MaybeFlip(addr uint64, buf []byte) bool {
	if len(buf) == 0 {
		return false
	}
	h, ok := i.fire(BitFlip)
	if !ok {
		return false
	}
	bit := int(splitmix64(h^addr) % uint64(len(buf)*8))
	buf[bit/8] ^= 1 << (bit % 8)
	return true
}

// NoCDelayCycles returns extra transfer cycles (1..16) when a NoCDelay
// fires, else 0.
func (i *Injector) NoCDelayCycles() uint64 {
	h, ok := i.fire(NoCDelay)
	if !ok {
		return 0
	}
	return 1 + (h>>32)%16
}

// NoCDrop reports whether this transfer is dropped and must retransmit.
func (i *Injector) NoCDrop() bool {
	_, ok := i.fire(NoCDrop)
	return ok
}

// TLBShootdown reports whether a shootdown invalidates the TLB before
// this lookup.
func (i *Injector) TLBShootdown() bool {
	_, ok := i.fire(TLBShootdown)
	return ok
}

// SpuriousFault reports whether this CFA transition raises a spurious
// exception.
func (i *Injector) SpuriousFault() bool {
	_, ok := i.fire(Spurious)
	return ok
}

// EvictLine reports whether the accessed LLC line is evicted before
// this lookup.
func (i *Injector) EvictLine() bool {
	_, ok := i.fire(Evict)
	return ok
}
