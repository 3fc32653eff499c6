package cache

import (
	"testing"
	"testing/quick"

	"qei/internal/mem"
	"qei/internal/noc"
)

// l1dConfig is Tab. II's 8-way 32 KB L1 data cache, 4-cycle hit.
func l1dConfig() Config {
	return Config{SizeBytes: 32 << 10, Ways: 8, LineSize: mem.LineSize, HitLatency: 4}
}

// l2Config is Tab. II's 16-way 1 MB private L2, 14-cycle hit.
func l2Config() Config {
	return Config{SizeBytes: 1 << 20, Ways: 16, LineSize: mem.LineSize, HitLatency: 14}
}

// llcSliceConfig is one of 24 slices of Tab. II's 33 MB 11-way shared
// LLC: 1.375 MB per slice, ~20-cycle array access (NoC hops are
// separate).
func llcSliceConfig() Config {
	return Config{SizeBytes: (33 << 20) / 24, Ways: 11, LineSize: mem.LineSize, HitLatency: 20}
}

func lineAddr(i uint64) mem.PAddr { return mem.PAddr(i * mem.LineSize) }

func TestCacheMissThenHit(t *testing.T) {
	c := New(Config{SizeBytes: 1024, Ways: 2, LineSize: 64, HitLatency: 3})
	a := lineAddr(7)
	if c.Lookup(a) {
		t.Fatal("cold cache should miss")
	}
	c.Insert(a, false)
	if !c.Lookup(a) {
		t.Fatal("inserted line should hit")
	}
	hits, misses, _, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats: %d hits %d misses", hits, misses)
	}
}

// TestCacheUnfilled pins a cache before its first fill: it holds no
// arrays, probes find nothing and only Lookup counts (a miss).
func TestCacheUnfilled(t *testing.T) {
	c := New(l2Config())
	a := lineAddr(5)
	if c.Contains(a) {
		t.Fatal("unfilled cache contains a line")
	}
	c.MarkDirty(a)
	if present, dirty := c.Invalidate(a); present || dirty {
		t.Fatalf("Invalidate on an unfilled cache = %v, %v", present, dirty)
	}
	if h, m, e, w := c.Stats(); h+m+e+w != 0 {
		t.Fatalf("stats = %d/%d/%d/%d, want all zero", h, m, e, w)
	}
	if c.Lookup(a) {
		t.Fatal("unfilled cache hit")
	}
	if h, m, _, _ := c.Stats(); h != 0 || m != 1 {
		t.Fatalf("stats after Lookup: %d hits %d misses, want one miss", h, m)
	}
	if c.tags != nil {
		t.Fatal("a probe built the arrays")
	}
	c.Insert(a, false)
	c.MarkDirty(a)
	if present, dirty := c.Invalidate(a); !present || !dirty {
		t.Fatalf("Invalidate after a fill = %v, %v, want a dirty line", present, dirty)
	}
}

// TestHierarchyBuildsPrivateCachesOnFirstFill pins which arrays a chip
// builds up front: every LLC slice, and no private cache until a core
// fills it.
func TestHierarchyBuildsPrivateCachesOnFirstFill(t *testing.T) {
	h := newTestHierarchy(t)
	for i := 0; i < h.LLC().Slices(); i++ {
		if h.LLC().Slice(i).tags == nil {
			t.Fatalf("LLC slice %d has no arrays", i)
		}
	}
	h.L2Access(3, 0x1000, Read)
	for core := range h.L1D {
		if h.L1D[core].tags != nil || (h.L2[core].tags != nil) != (core == 3) {
			t.Fatalf("core %d: L1D built %v, L2 built %v; only core 3's L2 was filled",
				core, h.L1D[core].tags != nil, h.L2[core].tags != nil)
		}
	}
}

func TestCacheSameSetDifferentLines(t *testing.T) {
	// 8 sets, 2 ways: lines 0, 8, 16 map to set 0.
	c := New(Config{SizeBytes: 1024, Ways: 2, LineSize: 64, HitLatency: 1})
	c.Insert(lineAddr(0), false)
	c.Insert(lineAddr(8), false)
	if !c.Contains(lineAddr(0)) || !c.Contains(lineAddr(8)) {
		t.Fatal("both ways should hold lines")
	}
	// Third conflicting line evicts LRU (line 0).
	evicted, wb := c.Insert(lineAddr(16), false)
	if evicted != uint64(lineAddr(0)) {
		t.Fatalf("evicted %#x, want line 0", evicted)
	}
	if wb {
		t.Fatal("clean line should not write back")
	}
	if c.Contains(lineAddr(0)) {
		t.Fatal("line 0 should be gone")
	}
}

func TestLRUUpdatedByLookup(t *testing.T) {
	c := New(Config{SizeBytes: 1024, Ways: 2, LineSize: 64, HitLatency: 1})
	c.Insert(lineAddr(0), false)
	c.Insert(lineAddr(8), false)
	c.Lookup(lineAddr(0)) // 8 becomes LRU
	c.Insert(lineAddr(16), false)
	if !c.Contains(lineAddr(0)) {
		t.Fatal("recently used line 0 was evicted")
	}
	if c.Contains(lineAddr(8)) {
		t.Fatal("LRU line 8 survived")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := New(Config{SizeBytes: 128, Ways: 1, LineSize: 64, HitLatency: 1})
	c.Insert(lineAddr(0), true) // dirty fill into set 0
	evicted, wb := c.Insert(lineAddr(2), false)
	if evicted != uint64(lineAddr(0)) || !wb {
		t.Fatalf("dirty eviction: evicted=%#x wb=%v", evicted, wb)
	}
	_, _, ev, wbs := c.Stats()
	if ev != 1 || wbs != 1 {
		t.Fatalf("evictions=%d writebacks=%d", ev, wbs)
	}
}

func TestMarkDirtyThenEvict(t *testing.T) {
	c := New(Config{SizeBytes: 128, Ways: 1, LineSize: 64, HitLatency: 1})
	c.Insert(lineAddr(0), false)
	c.MarkDirty(lineAddr(0))
	_, wb := c.Insert(lineAddr(2), false)
	if !wb {
		t.Fatal("marked-dirty line should write back")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(Config{SizeBytes: 1024, Ways: 2, LineSize: 64, HitLatency: 1})
	c.Insert(lineAddr(3), true)
	present, dirty := c.Invalidate(lineAddr(3))
	if !present || !dirty {
		t.Fatalf("Invalidate = %v, %v", present, dirty)
	}
	if c.Contains(lineAddr(3)) {
		t.Fatal("line survived invalidation")
	}
	present, _ = c.Invalidate(lineAddr(3))
	if present {
		t.Fatal("double invalidate reported present")
	}
}

func TestConfigSets(t *testing.T) {
	if got := l1dConfig().Sets(); got != 64 {
		t.Fatalf("L1D sets = %d, want 64", got)
	}
	if got := l2Config().Sets(); got != 1024 {
		t.Fatalf("L2 sets = %d, want 1024", got)
	}
}

// Property: cache never holds more than Ways lines of one set, and a line
// inserted is present until Ways distinct same-set lines displace it.
func TestPropertySetBounded(t *testing.T) {
	f := func(lines []uint8) bool {
		c := New(Config{SizeBytes: 512, Ways: 2, LineSize: 64, HitLatency: 1})
		for _, l := range lines {
			a := lineAddr(uint64(l))
			c.Insert(a, false)
			if !c.Contains(a) {
				return false
			}
		}
		// Count resident lines per set by probing the universe.
		perSet := map[uint64]int{}
		for l := uint64(0); l < 256; l++ {
			a := lineAddr(l)
			if c.Contains(a) {
				perSet[(uint64(a)/64)%4]++
			}
		}
		for _, n := range perSet {
			if n > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func newTestHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	mesh := noc.New(noc.Config{Cols: 6, Rows: 4, HopLatency: 1, RouterLatency: 1, LinkBytesPerCycle: 32})
	memStops := []noc.Stop{0, 5, 18, 23, 2, 21}
	return NewHierarchy(24, mesh, memStops, l1dConfig(), l2Config(), llcSliceConfig())
}

func TestHierarchyColdAccessGoesToDRAM(t *testing.T) {
	h := newTestHierarchy(t)
	a := mem.PAddr(0x100000)
	r := h.CoreAccess(0, a, Read)
	if r.Hit != LevelDRAM {
		t.Fatalf("cold access satisfied at %v, want DRAM", r.Hit)
	}
	if r.Latency <= DefaultDRAMConfig().AccessLatency {
		t.Fatalf("latency %d should exceed bare DRAM latency", r.Latency)
	}
	if h.DRAM().Accesses() != 1 {
		t.Fatalf("DRAM accesses = %d, want 1", h.DRAM().Accesses())
	}
}

func TestHierarchyFillPath(t *testing.T) {
	h := newTestHierarchy(t)
	a := mem.PAddr(0x200000)
	h.CoreAccess(3, a, Read)
	r := h.CoreAccess(3, a, Read)
	if r.Hit != LevelL1 {
		t.Fatalf("second access hit %v, want L1", r.Hit)
	}
	if r.Latency != l1dConfig().HitLatency {
		t.Fatalf("L1 hit latency = %d, want %d", r.Latency, l1dConfig().HitLatency)
	}
	// Another core misses privately but hits in the shared LLC.
	r2 := h.CoreAccess(7, a, Read)
	if r2.Hit != LevelLLC {
		t.Fatalf("other-core access hit %v, want LLC", r2.Hit)
	}
	if h.DRAM().Accesses() != 1 {
		t.Fatalf("DRAM accesses = %d, want 1 (LLC should filter)", h.DRAM().Accesses())
	}
}

func TestL2AccessSkipsL1(t *testing.T) {
	h := newTestHierarchy(t)
	a := mem.PAddr(0x300000)
	h.L2Access(0, a, Read)
	if h.L1D[0].Contains(a) {
		t.Fatal("L2Access polluted the L1")
	}
	if !h.L2[0].Contains(a) {
		t.Fatal("L2Access did not fill the L2")
	}
	r := h.L2Access(0, a, Read)
	if r.Hit != LevelL2 || r.Latency != l2Config().HitLatency {
		t.Fatalf("warm L2 access: %+v", r)
	}
}

func TestLLCAccessFromDoesNotFillPrivate(t *testing.T) {
	h := newTestHierarchy(t)
	a := mem.PAddr(0x400000)
	r := h.LLCAccessFrom(noc.Stop(10), a, Read)
	if r.Hit != LevelDRAM {
		t.Fatalf("cold LLC access hit %v", r.Hit)
	}
	for core := 0; core < 24; core++ {
		if h.L1D[core].Contains(a) || h.L2[core].Contains(a) {
			t.Fatalf("LLCAccessFrom polluted private cache of core %d", core)
		}
	}
	r2 := h.LLCAccessFrom(noc.Stop(10), a, Read)
	if r2.Hit != LevelLLC {
		t.Fatalf("warm LLC access hit %v", r2.Hit)
	}
	if r2.Latency >= r.Latency {
		t.Fatal("LLC hit should be cheaper than DRAM fill")
	}
}

func TestLLCAccessLocalCheaperThanRemote(t *testing.T) {
	h := newTestHierarchy(t)
	a := mem.PAddr(0x500000)
	owner := h.LLC().StopFor(a)
	h.LLCAccessFrom(owner, a, Read) // warm the slice
	local := h.LLCAccessLocal(owner, a, Read)
	var far noc.Stop
	for s := noc.Stop(0); int(s) < h.Mesh().Stops(); s++ {
		if h.Mesh().Hops(s, owner) > h.Mesh().Hops(far, owner) {
			far = s
		}
	}
	remote := h.LLCAccessFrom(far, a, Read)
	if local.Latency >= remote.Latency {
		t.Fatalf("local CHA access (%d) should beat remote (%d)", local.Latency, remote.Latency)
	}
	if local.Latency != llcSliceConfig().HitLatency {
		t.Fatalf("local hit latency = %d, want %d", local.Latency, llcSliceConfig().HitLatency)
	}
}

func TestSliceHashSpreads(t *testing.T) {
	h := newTestHierarchy(t)
	counts := make([]int, h.LLC().Slices())
	for i := uint64(0); i < 24000; i++ {
		counts[h.LLC().SliceFor(mem.PAddr(i*mem.LineSize))]++
	}
	for s, n := range counts {
		if n < 500 || n > 1500 {
			t.Fatalf("slice %d got %d of 24000 lines — NUCA hash is skewed", s, n)
		}
	}
}

func TestDRAMChannelInterleave(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	for i := uint64(0); i < 600; i++ {
		d.Access(mem.PAddr(i * mem.LineSize))
	}
	for ch, n := range d.accesses {
		if n != 100 {
			t.Fatalf("channel %d got %d accesses, want 100", ch, n)
		}
	}
}

func TestPrivateFootprint(t *testing.T) {
	h := newTestHierarchy(t)
	lines := []mem.PAddr{0x1000, 0x2000, 0x3000}
	h.CoreAccess(0, lines[0], Read)
	h.CoreAccess(0, lines[1], Read)
	inL1, inL2 := privateFootprint(h, 0, lines)
	if inL1 != 2 || inL2 != 2 {
		t.Fatalf("footprint = %d/%d, want 2/2", inL1, inL2)
	}
}

// privateFootprint reports how many lines of the given address set are
// resident in core's private caches.
func privateFootprint(h *Hierarchy, core int, lines []mem.PAddr) (inL1, inL2 int) {
	for _, a := range lines {
		if h.L1D[core].Contains(a) {
			inL1++
		}
		if h.L2[core].Contains(a) {
			inL2++
		}
	}
	return inL1, inL2
}

// BenchmarkCacheAccess probes an L2-geometry cache with three hits to
// one miss: 768 hot lines stay resident (true LRU keeps them) while
// every fourth probe brings in a new line, filled on the miss and
// evicting once its set is full. One pass warms the cache first.
func BenchmarkCacheAccess(b *testing.B) {
	c := New(l2Config())
	cold := uint64(1 << 20)
	pass := func() {
		for i := uint64(0); i < 1024; i++ {
			a := lineAddr(i)
			if i%4 == 3 {
				a = lineAddr(cold)
				cold++
			}
			if !c.Lookup(a) {
				c.Insert(a, i%8 == 7)
			}
		}
	}
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		pass()
	}
}
