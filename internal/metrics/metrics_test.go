package metrics

import (
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("core0/rob/stall_cycles")
	c.Add(10)
	c.Inc()
	if got := c.Value(); got != 11 {
		t.Fatalf("counter value = %d, want 11", got)
	}
	g := r.Gauge("qst/occupancy_milli")
	g.Set(375)
	if got := g.Value(); got != 375 {
		t.Fatalf("gauge value = %d, want 375", got)
	}
	sm, ok := r.Snapshot().Get("qst/occupancy_milli")
	if !ok || sm.Kind != KindGauge || sm.Value != 375 {
		t.Fatalf("gauge sample = %+v, %v", sm, ok)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	c := r.Counter("x")
	g := r.Gauge("y")
	if c != nil || g != nil {
		t.Fatal("nil registry returned non-nil handles")
	}
	// None of these may panic.
	c.Add(1)
	c.Inc()
	g.Set(2)
	r.RegisterFunc("f", func() uint64 { return 1 })
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil handles returned non-zero values")
	}
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
	core.Counter("stall_cycles").Add(7)
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
	r.Counter("mem/lines").Add(3)
	r.Counter("mem/lines").Add(4)
	r.RegisterFunc("mem/lines", func() uint64 { return 5 })
	if got := r.Snapshot().Value("mem/lines"); got != 12 {
		t.Fatalf("duplicate-name sum = %d, want 12", got)
	}
}

func TestMergeOrderIndependent(t *testing.T) {
	a := Snapshot{
		{Name: "a", Kind: KindCounter, Value: 1},
		{Name: "g", Kind: KindGauge, Value: 2},
	}
	b := Snapshot{
		{Name: "a", Kind: KindCounter, Value: 10},
		{Name: "b", Kind: KindCounter, Value: 5},
		{Name: "g", Kind: KindGauge, Value: 1},
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
	if gm, _ := m.Get("g"); gm.Value != 3 || gm.Kind != KindGauge {
		t.Fatalf("merged gauge = %+v", gm)
	}
	// Merge must not mutate its inputs.
	if a[0].Value != 1 || b[0].Value != 10 {
		t.Fatal("Merge mutated its inputs")
	}
}

func TestSnapshotSortedAndStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("z").Inc()
	r.Counter("a").Inc()
	r.Gauge("m").Set(1)
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
	r.Counter("used").Add(1)
	r.Counter("unused")
	nz := r.Snapshot().NonZero()
	if len(nz) != 1 || nz[0].Name != "used" {
		t.Fatalf("NonZero = %v, want just 'used'", nz)
	}
}

// The zero-overhead contract: incrementing a nil handle must cost no
// more than the branch. These benchmarks let a human eyeball nil-handle
// vs raw-uint64 cost; the CI-enforced guard is the deterministic
// cycle-count assertion in the root package (TestObservabilityZeroCycleImpact).
var sinkU64 uint64

func BenchmarkCounterAddNilHandle(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddLive(b *testing.B) {
	c := NewRegistry().Counter("bench")
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
	sinkU64 = c.Value()
}

func BenchmarkRawUint64Baseline(b *testing.B) {
	var v uint64
	for i := 0; i < b.N; i++ {
		v++
	}
	sinkU64 = v
}
