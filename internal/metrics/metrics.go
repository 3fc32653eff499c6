// Package metrics is the simulator-wide metrics registry: a hierarchical
// namespace of typed counters and gauges that every simulated component
// (cores, caches, TLBs, NoC, memory, the QEI accelerator) publishes its
// activity into, so experiments can ask
// "where did the cycles go" with one snapshot instead of reaching into
// package-specific stats structs.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Handles are nil-safe: methods on a nil
//     *Counter/*Gauge are no-ops, and a nil *Registry hands out nil
//     handles, so instrumented hot paths pay only a predicted
//     branch when observability is off. Pull-based metrics
//     (RegisterFunc) cost nothing at all until Snapshot is taken.
//  2. Determinism. All values are uint64 and Snapshot/Merge aggregate
//     by summation, which is associative and commutative — merging
//     per-worker snapshots in any completion order yields byte-identical
//     results, preserving the parallel runner's serial-equivalence
//     guarantee. Float-valued metrics are stored fixed-point (e.g.
//     occupancy in milli-units) for the same reason.
//  3. Single-goroutine confinement. A Registry and its handles belong to
//     one simulation goroutine (each runner job owns its machine and its
//     registry); cross-goroutine aggregation goes through Snapshot +
//     Merge, never through shared handles.
//
// Names are component paths: "core0/rob/stall_cycles",
// "cha5/cmp/remote_ops", "llc/slice3/misses". Scoped returns a view that
// prefixes every registration, so a component registers relative names
// and the caller decides where it mounts.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Kind distinguishes the metric types in a Snapshot.
type Kind uint8

const (
	// KindCounter is a monotonically increasing event count.
	KindCounter Kind = iota
	// KindGauge is a point-in-time level (merged by summation, like the
	// counters, so parallel merges stay order-independent).
	KindGauge
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Counter is a monotonically increasing uint64. A nil Counter is a valid
// no-op handle — the disabled fast path.
type Counter struct {
	name string
	v    uint64
}

// Add increments the counter by n. No-op on a nil handle.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Inc increments the counter by one. No-op on a nil handle.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Value returns the current count (0 for a nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a settable uint64 level. A nil Gauge is a valid no-op handle.
type Gauge struct {
	name string
	v    uint64
}

// Set stores v. No-op on a nil handle.
func (g *Gauge) Set(v uint64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the current level (0 for a nil handle).
func (g *Gauge) Value() uint64 {
	if g == nil {
		return 0
	}
	return g.v
}

// funcMetric is a pull-based counter: fn is read at Snapshot time, so
// components with existing stats fields publish them without touching
// their hot paths at all.
type funcMetric struct {
	name string
	fn   func() uint64
}

// registryCore holds the actual metric storage; Registry values are
// cheap prefix views over one core.
type registryCore struct {
	counters []*Counter
	gauges   []*Gauge
	funcs    []funcMetric
}

// Registry is a hierarchical metric namespace. The zero-value pointer
// (nil) is a valid disabled registry: every constructor returns a nil
// handle and Snapshot returns nil.
type Registry struct {
	core   *registryCore
	prefix string
}

// NewRegistry creates an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{core: &registryCore{}}
}

// Enabled reports whether the registry collects anything.
func (r *Registry) Enabled() bool { return r != nil }

// Scoped returns a view of r that prefixes every registered name with
// name + "/". Scoping a nil registry stays nil, so component wiring code
// needs no guards.
func (r *Registry) Scoped(name string) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{core: r.core, prefix: r.join(name)}
}

func (r *Registry) join(name string) string {
	if r.prefix == "" {
		return name
	}
	return r.prefix + "/" + name
}

// Counter registers and returns a counter handle (nil on a nil
// registry). Registering the same name twice yields independent handles
// whose values are summed at Snapshot — deliberate, so several machines
// or instances can share one namespace.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{name: r.join(name)}
	r.core.counters = append(r.core.counters, c)
	return c
}

// Gauge registers and returns a gauge handle (nil on a nil registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{name: r.join(name)}
	r.core.gauges = append(r.core.gauges, g)
	return g
}

// RegisterFunc registers a pull-based counter evaluated at Snapshot
// time. This is how components expose pre-existing stats fields with
// zero hot-path changes. No-op on a nil registry.
func (r *Registry) RegisterFunc(name string, fn func() uint64) {
	if r == nil || fn == nil {
		return
	}
	r.core.funcs = append(r.core.funcs, funcMetric{name: r.join(name), fn: fn})
}

// Sample is one named value in a Snapshot.
type Sample struct {
	Name  string
	Kind  Kind
	Value uint64
}

// Snapshot is a point-in-time reading of a registry, sorted by name.
type Snapshot []Sample

// Snapshot reads every registered metric, summing same-named entries,
// and returns the samples sorted by name. A nil registry snapshots to
// nil.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	var s Snapshot
	for _, c := range r.core.counters {
		s = append(s, Sample{Name: c.name, Kind: KindCounter, Value: c.v})
	}
	for _, g := range r.core.gauges {
		s = append(s, Sample{Name: g.name, Kind: KindGauge, Value: g.v})
	}
	for _, f := range r.core.funcs {
		s = append(s, Sample{Name: f.name, Kind: KindCounter, Value: f.fn()})
	}
	return Merge(s)
}

// Merge combines snapshots by summing same-named samples. Summation is
// commutative and associative, so the result is identical for any input
// order — the property the parallel experiment runner relies on.
func Merge(snaps ...Snapshot) Snapshot {
	byName := make(map[string]*Sample)
	var names []string
	for _, snap := range snaps {
		for _, in := range snap {
			if acc, ok := byName[in.Name]; ok {
				acc.Value += in.Value
				continue
			}
			cp := in
			byName[in.Name] = &cp
			names = append(names, in.Name)
		}
	}
	sort.Strings(names)
	out := make(Snapshot, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	return out
}

// Get returns the sample with the given name.
func (s Snapshot) Get(name string) (Sample, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i < len(s) && s[i].Name == name {
		return s[i], true
	}
	return Sample{}, false
}

// Value returns the value of the named sample (0 if absent).
func (s Snapshot) Value(name string) uint64 {
	sm, _ := s.Get(name)
	return sm.Value
}

// NonZero returns the samples with non-zero values — the useful subset
// for human-facing listings on a mostly idle 24-core machine.
func (s Snapshot) NonZero() Snapshot {
	var out Snapshot
	for _, sm := range s {
		if sm.Value != 0 {
			out = append(out, sm)
		}
	}
	return out
}

// String renders the snapshot one "name value" line at a time, in name
// order — a deterministic serialization used by the byte-identity tests.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, sm := range s {
		fmt.Fprintf(&b, "%s %d\n", sm.Name, sm.Value)
	}
	return b.String()
}
