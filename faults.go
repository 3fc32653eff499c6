package qei

import "qei/internal/faultinject"

// FaultSpec is a replayable fault-injection plan: a seed plus a firing
// rate per fault kind. Pass it to WithFaultInjection; the same spec
// replayed over the same workload reproduces the same fault sequence
// exactly, so any chaos-test failure is debuggable from its spec alone.
type FaultSpec struct {
	sched faultinject.Schedule
}

// ParseFaultSpec parses the textual "seed:kind=rate,kind=rate" form
// shared with the qeiserve -faults flag, e.g. "7:flip=0.001,spurious=0.01".
// Kinds: flip (guest-memory bit-flips), nocdelay / nocdrop (mesh
// transfer delays and drops), shootdown (TLB invalidations), spurious
// (CFA exceptions), evict (LLC line evictions). Rates are probabilities
// per opportunity in [0,1]; omitted kinds stay at 0.
func ParseFaultSpec(spec string) (FaultSpec, error) {
	sched, err := faultinject.ParseSchedule(spec)
	if err != nil {
		return FaultSpec{}, err
	}
	return FaultSpec{sched: sched}, nil
}

// MustParseFaultSpec is ParseFaultSpec, panicking on a malformed spec.
func MustParseFaultSpec(spec string) FaultSpec {
	f, err := ParseFaultSpec(spec)
	if err != nil {
		panic(err)
	}
	return f
}

// String renders the spec back into ParseFaultSpec's form.
func (f FaultSpec) String() string { return f.sched.String() }

// Seed returns the spec's replay seed.
func (f FaultSpec) Seed() uint64 { return f.sched.Seed }
