// Package metrics is the simulator-wide metrics registry: a hierarchical
// namespace of pull-based counters that every simulated component
// (cores, caches, TLBs, NoC, memory, the QEI accelerator) publishes its
// activity into, so experiments can ask
// "where did the cycles go" with one snapshot instead of reaching into
// package-specific stats structs.
//
// A component keeps its own uint64 stats fields and registers a func
// that reads one (RegisterFunc). Nothing is pushed on a hot path; a
// func is called only when Snapshot is taken. A registry can also hold
// the samples of an earlier snapshot as constants (AddSnapshot) and
// read another registry's metrics as its own (Include), so a registry
// kept with the components it reads is registered once and read by
// every run.
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
	"slices"
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
	// snaps are the constant counters AddSnapshot added.
	snaps []Snapshot
	// subs are the registries Include made this one read.
	subs []*registryCore
	// index is Snapshot's layout, built by the first Snapshot and again
	// by the first one after a metric was added.
	index *snapIndex
}

// snapIndex lays out a snapshot: the distinct names in order, and the
// slot among them of each metric in the order read visits them. size is
// the metric count it was built for; metrics are only ever added, so an
// equal count means the same metrics.
type snapIndex struct {
	names []string
	slots []int32
	size  int
}

// size counts the metrics Snapshot reads: the core's own and those of
// the registries it includes.
func (c *registryCore) size() int {
	n := len(c.funcs)
	for _, s := range c.snaps {
		n += len(s)
	}
	for _, sub := range c.subs {
		n += sub.size()
	}
	return n
}

// appendNames appends the name of every metric Snapshot reads, in the
// order read visits them.
func (c *registryCore) appendNames(dst []string) []string {
	for _, f := range c.funcs {
		dst = append(dst, f.name)
	}
	for _, s := range c.snaps {
		for _, sm := range s {
			dst = append(dst, sm.Name)
		}
	}
	for _, sub := range c.subs {
		dst = sub.appendNames(dst)
	}
	return dst
}

// read adds every metric's value to out at its slot, taking slots in
// the order appendNames lists the metrics, and returns the slots left.
func (c *registryCore) read(out Snapshot, slots []int32) []int32 {
	for i, f := range c.funcs {
		out[slots[i]].Value += f.fn()
	}
	slots = slots[len(c.funcs):]
	for _, s := range c.snaps {
		for i, sm := range s {
			out[slots[i]].Value += sm.Value
		}
		slots = slots[len(s):]
	}
	for _, sub := range c.subs {
		slots = sub.read(out, slots)
	}
	return slots
}

// layout returns the core's snapshot index, rebuilding it if metrics
// were added since it was built.
func (c *registryCore) layout() *snapIndex {
	if n := c.size(); c.index == nil || c.index.size != n {
		all := c.appendNames(make([]string, 0, n))
		names := append([]string(nil), all...)
		sort.Strings(names)
		names = slices.Compact(names)
		slots := make([]int32, len(all))
		for i, name := range all {
			j, _ := slices.BinarySearch(names, name)
			slots[i] = int32(j)
		}
		c.index = &snapIndex{names: names, slots: slots, size: n}
	}
	return c.index
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

// AddSnapshot adds the samples of s as constant counters, each under
// its name prefixed as RegisterFunc would, summed with same-named
// metrics at Snapshot. Unscoped, r keeps s itself, so s must not be
// modified afterwards. No-op on a nil registry.
func (r *Registry) AddSnapshot(s Snapshot) {
	if r == nil || len(s) == 0 {
		return
	}
	if r.prefix != "" {
		named := make(Snapshot, len(s))
		for i, sm := range s {
			named[i] = Sample{Name: r.join(sm.Name), Value: sm.Value}
		}
		s = named
	}
	r.core.snaps = append(r.core.snaps, s)
}

// Include makes r's Snapshot read every metric registered in sub, now
// or later, under the name it has in sub. Registries may share one
// included registry, so a component registered once can appear in
// several; sub must not include r. No-op if either is nil.
func (r *Registry) Include(sub *Registry) {
	if r == nil || sub == nil {
		return
	}
	r.core.subs = append(r.core.subs, sub.core)
}

// Sample is one named value in a Snapshot.
type Sample struct {
	Name  string
	Value uint64
}

// Snapshot is a point-in-time reading of a registry, sorted by name.
type Snapshot []Sample

// Snapshot reads every registered metric, summing same-named entries,
// and returns the samples sorted by name. The registry keeps the
// order of names and where each metric sums into from one Snapshot to
// the next, so a snapshot allocates only its samples. A nil registry
// snapshots to nil.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	idx := r.core.layout()
	s := make(Snapshot, len(idx.names))
	for i, name := range idx.names {
		s[i].Name = name
	}
	r.core.read(s, idx.slots)
	return s
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

// Value returns the value of the named sample (0 if absent).
func (s Snapshot) Value(name string) uint64 {
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i < len(s) && s[i].Name == name {
		return s[i].Value
	}
	return 0
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
