package metrics

import (
	"fmt"
	"reflect"
	"testing"
)

// constant returns a pull func reading a fixed value.
func constant(v uint64) func() uint64 { return func() uint64 { return v } }

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	// Neither may panic.
	r.RegisterFunc("f", constant(1))
	r.Scoped("sub").RegisterFunc("g", constant(2))
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", snap)
	}
	if r.Scoped("sub") != nil {
		t.Fatal("scoping a nil registry must stay nil")
	}
}

func TestScopedPrefixes(t *testing.T) {
	r := NewRegistry()
	core := r.Scoped("core0").Scoped("rob")
	core.RegisterFunc("stall_cycles", constant(7))
	s := r.Snapshot()
	if got := s.Value("core0/rob/stall_cycles"); got != 7 {
		t.Fatalf("scoped counter = %d, want 7\nsnapshot:\n%s", got, s)
	}
}

func TestRegisterFuncPulledAtSnapshot(t *testing.T) {
	r := NewRegistry()
	var n uint64
	r.RegisterFunc("llc/misses", func() uint64 { return n })
	n = 42
	if got := r.Snapshot().Value("llc/misses"); got != 42 {
		t.Fatalf("pull counter = %d, want 42", got)
	}
	n = 99
	if got := r.Snapshot().Value("llc/misses"); got != 99 {
		t.Fatalf("pull counter after update = %d, want 99", got)
	}
}

func TestDuplicateNamesSumAtSnapshot(t *testing.T) {
	r := NewRegistry()
	r.RegisterFunc("mem/lines", constant(3))
	r.RegisterFunc("mem/lines", constant(4))
	r.RegisterFunc("mem/lines", constant(5))
	if got := r.Snapshot().Value("mem/lines"); got != 12 {
		t.Fatalf("duplicate-name sum = %d, want 12", got)
	}
}

func TestMergeOrderIndependent(t *testing.T) {
	a := Snapshot{
		{Name: "a", Value: 1},
		{Name: "g", Value: 2},
	}
	b := Snapshot{
		{Name: "a", Value: 10},
		{Name: "b", Value: 5},
		{Name: "g", Value: 1},
	}
	ab := Merge(a, b).String()
	ba := Merge(b, a).String()
	if ab != ba {
		t.Fatalf("merge is order-dependent:\n--- a,b:\n%s--- b,a:\n%s", ab, ba)
	}
	m := Merge(a, b)
	if got := m.Value("a"); got != 11 {
		t.Fatalf("merged a = %d, want 11", got)
	}
	if got := m.Value("g"); got != 3 {
		t.Fatalf("merged g = %d, want 3", got)
	}
	// Merge must not mutate its inputs.
	if a[0].Value != 1 || b[0].Value != 10 {
		t.Fatal("Merge mutated its inputs")
	}
}

func TestSnapshotSortedAndStable(t *testing.T) {
	r := NewRegistry()
	r.RegisterFunc("z", constant(1))
	r.RegisterFunc("a", constant(1))
	r.RegisterFunc("m", constant(1))
	s := r.Snapshot()
	for i := 1; i < len(s); i++ {
		if s[i-1].Name >= s[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", s[i-1].Name, s[i].Name)
		}
	}
	if s.String() != r.Snapshot().String() {
		t.Fatal("repeated snapshots of an unchanged registry differ")
	}
}

func TestNonZero(t *testing.T) {
	r := NewRegistry()
	r.RegisterFunc("used", constant(1))
	r.RegisterFunc("unused", constant(0))
	nz := r.Snapshot().NonZero()
	if len(nz) != 1 || nz[0].Name != "used" {
		t.Fatalf("NonZero = %v, want just 'used'", nz)
	}
}

// TestSnapshotMatchesMerge registers duplicate names, constant counters
// and an included registry, in that order and across snapshots, and
// requires each snapshot to equal the Merge of every metric read one by
// one, so the kept layout follows every addition.
func TestSnapshotMatchesMerge(t *testing.T) {
	var n uint64 = 3
	sub := NewRegistry()
	sub.Scoped("core0").RegisterFunc("loads", func() uint64 { return n })
	sub.RegisterFunc("a", constant(2))
	r := NewRegistry()
	r.RegisterFunc("b", constant(1))
	r.RegisterFunc("a", constant(4))
	want := func(extra ...Sample) Snapshot {
		s := Snapshot{{"b", 1}, {"a", 4}}
		return Merge(append(s, extra...))
	}
	if got := r.Snapshot(); !reflect.DeepEqual(got, want()) {
		t.Fatalf("own metrics: %v", got)
	}
	r.Include(sub)
	if got := r.Snapshot(); !reflect.DeepEqual(got, want(Sample{"core0/loads", 3}, Sample{"a", 2})) {
		t.Fatalf("after Include: %v", got)
	}
	n = 5
	sub.RegisterFunc("z", constant(9))
	r.Scoped("run").AddSnapshot(Snapshot{{"a", 10}})
	r.AddSnapshot(Snapshot{{"a", 100}, {"c", 7}})
	got := r.Snapshot()
	if w := want(Sample{"core0/loads", 5}, Sample{"a", 2}, Sample{"z", 9}, Sample{"run/a", 10}, Sample{"a", 100}, Sample{"c", 7}); !reflect.DeepEqual(got, w) {
		t.Fatalf("after later additions: %v, want %v", got, w)
	}
	if s := sub.Snapshot(); !reflect.DeepEqual(s, Snapshot{{"a", 2}, {"core0/loads", 5}, {"z", 9}}) {
		t.Fatalf("the included registry reads %v on its own", s)
	}
	if empty := NewRegistry().Snapshot(); empty == nil || len(empty) != 0 {
		t.Fatalf("an empty registry snapshots to %#v, want an empty non-nil snapshot", empty)
	}
}

// TestSnapshotAllocatesOnlySamples requires a snapshot of an unchanged
// registry to allocate its samples and nothing else.
func TestSnapshotAllocatesOnlySamples(t *testing.T) {
	r := NewRegistry()
	for core := 0; core < 4; core++ {
		r.Scoped(fmt.Sprintf("core%d", core)).RegisterFunc("hits", constant(1))
	}
	r.RegisterFunc("core0/hits", constant(1))
	r.Snapshot()
	if n := testing.AllocsPerRun(10, func() { sinkSnapshot = r.Snapshot() }); n != 1 {
		t.Errorf("a snapshot made %v allocations, want 1", n)
	}
}

// BenchmarkSnapshot measures the only cost a registry adds to a run:
// reading every registered func once, at Snapshot time.
func BenchmarkSnapshot(b *testing.B) {
	r := NewRegistry()
	for core := 0; core < 24; core++ {
		c := r.Scoped(fmt.Sprintf("core%d", core))
		for _, name := range []string{"hits", "misses", "evictions", "writebacks"} {
			c.RegisterFunc(name, constant(uint64(core)))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSnapshot = r.Snapshot()
	}
}

var sinkSnapshot Snapshot
