// Package metrics is the simulator-wide metrics registry: a hierarchical
// namespace of pull-based counters that every simulated component
// (cores, caches, TLBs, NoC, memory, the QEI accelerator) publishes its
// activity into, so experiments can ask
// "where did the cycles go" with one snapshot instead of reaching into
// package-specific stats structs.
//
// There is one metric kind: a component keeps its own uint64 stats
// fields and registers a func that reads one (RegisterFunc). Nothing is
// pushed on a hot path; a func is called only when Snapshot is taken.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. A nil *Registry is valid: RegisterFunc
//     and Scoped are no-ops on it and Snapshot returns nil, so wiring
//     code needs no guards and an unobserved run pays nothing.
//  2. Determinism. All values are uint64 and Snapshot/Merge aggregate
//     by summation, which is associative and commutative — merging
//     per-worker snapshots in any completion order yields byte-identical
//     results, preserving the parallel runner's serial-equivalence
//     guarantee. Float-valued metrics are stored fixed-point (e.g.
//     occupancy in milli-units) for the same reason.
//  3. Single-goroutine confinement. A Registry and the stats it reads
//     belong to one simulation goroutine (each runner job owns its
//     machine and its registry); cross-goroutine aggregation goes
//     through Snapshot + Merge, never through a shared registry.
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
	funcs []funcMetric
}

// Registry is a hierarchical metric namespace. The zero-value pointer
// (nil) is a valid disabled registry: RegisterFunc is a no-op on it and
// Snapshot returns nil.
type Registry struct {
	core   *registryCore
	prefix string
}

// NewRegistry creates an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{core: &registryCore{}}
}

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

// RegisterFunc registers a pull-based counter evaluated at Snapshot
// time. This is how components expose their stats fields with zero
// hot-path changes. Registering the same name twice is deliberate, not
// an error: the values are summed at Snapshot, so several machines or
// instances can share one namespace. No-op on a nil registry.
func (r *Registry) RegisterFunc(name string, fn func() uint64) {
	if r == nil || fn == nil {
		return
	}
	r.core.funcs = append(r.core.funcs, funcMetric{name: r.join(name), fn: fn})
}

// Sample is one named value in a Snapshot.
type Sample struct {
	Name  string
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
	s := make(Snapshot, 0, len(r.core.funcs))
	for _, f := range r.core.funcs {
		s = append(s, Sample{Name: f.name, Value: f.fn()})
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
