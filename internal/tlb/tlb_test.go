package tlb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"qei/internal/mem"
	"qei/internal/trace"
)

// l1TLBConfig is Tab. II's 64-entry first-level data TLB.
func l1TLBConfig() Config { return Config{Entries: 64, Ways: 4, HitLatency: 1} }

// l2TLBConfig is Tab. II's 1024-entry second-level TLB.
func l2TLBConfig() Config { return Config{Entries: 1024, Ways: 8, HitLatency: 7} }

func vaddr(page uint64) mem.VAddr { return mem.VAddr(page << mem.PageShift) }

func TestMissThenHit(t *testing.T) {
	tl := New(Config{Entries: 16, Ways: 4, HitLatency: 2})
	a := vaddr(5)
	if hit, _ := tl.Lookup(a); hit {
		t.Fatal("fresh TLB should miss")
	}
	tl.Insert(a)
	hit, lat := tl.Lookup(a)
	if !hit || lat != 2 {
		t.Fatalf("after Insert: hit=%v lat=%d", hit, lat)
	}
	hits, misses, _ := tl.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits %d misses", hits, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	// Single set of 2 ways: pages with same set index collide.
	tl := New(Config{Entries: 2, Ways: 2, HitLatency: 1})
	tl.Insert(vaddr(0))
	tl.Insert(vaddr(1))
	// Touch page 0 so page 1 becomes LRU.
	tl.Lookup(vaddr(0))
	tl.Insert(vaddr(2)) // evicts page 1
	if hit, _ := tl.Lookup(vaddr(1)); hit {
		t.Fatal("page 1 should have been evicted (LRU)")
	}
	if hit, _ := tl.Lookup(vaddr(0)); !hit {
		t.Fatal("page 0 should survive")
	}
	if hit, _ := tl.Lookup(vaddr(2)); !hit {
		t.Fatal("page 2 should be present")
	}
}

func TestFlushClearsAll(t *testing.T) {
	tl := New(l1TLBConfig())
	for p := uint64(0); p < 32; p++ {
		tl.Insert(vaddr(p))
	}
	tl.Flush()
	for p := uint64(0); p < 32; p++ {
		if hit, _ := tl.Lookup(vaddr(p)); hit {
			t.Fatalf("page %d survived flush", p)
		}
	}
	_, _, flushes := tl.Stats()
	if flushes != 1 {
		t.Fatalf("flushes = %d, want 1", flushes)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry did not panic")
		}
	}()
	New(Config{Entries: 10, Ways: 3, HitLatency: 1})
}

func TestWalkerLatencyAndFaults(t *testing.T) {
	as := mem.NewAddressSpace(mem.NewPhysical())
	a := as.Alloc(mem.PageSize, mem.PageSize)
	w := NewWalker(as, 30)
	pa, lat, err := w.Walk(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lat != uint64(as.WalkLevels())*30 {
		t.Fatalf("walk latency = %d", lat)
	}
	want, _ := as.Translate(a)
	if pa != want {
		t.Fatalf("walk result %#x, want %#x", uint64(pa), uint64(want))
	}
	if _, _, err := w.Walk(mem.VAddr(0xffff0000), 0); err == nil {
		t.Fatal("walk of unmapped page should fault")
	}
	walks, faults, total := w.Stats()
	if walks != 2 || faults != 1 || total != 2*uint64(as.WalkLevels())*30 {
		t.Fatalf("walker stats = %d %d %d", walks, faults, total)
	}
}

func TestHierarchyFillsUpward(t *testing.T) {
	as := mem.NewAddressSpace(mem.NewPhysical())
	a := as.Alloc(mem.PageSize, mem.PageSize)
	h := NewHierarchy(as, 30, l1TLBConfig(), l2TLBConfig())

	// First access: L1 miss + L2 miss + full walk.
	_, lat1, err := h.Translate(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantWalk := h.L1.Config().HitLatency + h.L2.Config().HitLatency + uint64(as.WalkLevels())*30
	if lat1 != wantWalk {
		t.Fatalf("cold translate latency = %d, want %d", lat1, wantWalk)
	}
	// Second access: L1 hit.
	_, lat2, err := h.Translate(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lat2 != h.L1.Config().HitLatency {
		t.Fatalf("warm translate latency = %d, want %d", lat2, h.L1.Config().HitLatency)
	}
}

func TestTranslateL2SkipsL1(t *testing.T) {
	as := mem.NewAddressSpace(mem.NewPhysical())
	a := as.Alloc(mem.PageSize, mem.PageSize)
	h := NewHierarchy(as, 30, l1TLBConfig(), l2TLBConfig())
	if _, _, err := h.TranslateL2(a, 0); err != nil {
		t.Fatal(err)
	}
	// L2 now warm; accelerator-path translation is an L2 hit.
	_, lat, err := h.TranslateL2(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lat != h.L2.Config().HitLatency {
		t.Fatalf("L2 path latency = %d, want %d", lat, h.L2.Config().HitLatency)
	}
	// The L1 must not have been polluted by accelerator translations.
	if hit, _ := h.L1.Lookup(a); hit {
		t.Fatal("TranslateL2 polluted the L1 TLB")
	}
}

func TestHierarchyFaultPropagates(t *testing.T) {
	as := mem.NewAddressSpace(mem.NewPhysical())
	h := NewHierarchy(as, 30, l1TLBConfig(), l2TLBConfig())
	if _, _, err := h.Translate(mem.VAddr(0xdeadbeef000), 0); err == nil {
		t.Fatal("expected fault")
	}
	if _, _, err := h.TranslateL2(mem.VAddr(0xdeadbeef000), 0); err == nil {
		t.Fatal("expected fault on L2 path")
	}
}

// TestTranslateTracedMatchesUntraced drives both translation paths
// through an L1 hit, an L2 hit, a walk and an unmapped page, once with a
// tracer attached and once without. The tracer must not change what a
// translation returns, a walk must appear as exactly one span that
// starts once the TLB probes have missed and ends at the completion
// cycle, and a hit must appear as none.
func TestTranslateTracedMatchesUntraced(t *testing.T) {
	const at = 1000
	as := mem.NewAddressSpace(mem.NewPhysical())
	mapped := as.Alloc(mem.PageSize, mem.PageSize)
	unmapped := mem.VAddr(0xdeadbeef000)
	type path struct {
		name   string
		run    func(h *Hierarchy, a mem.VAddr) (mem.PAddr, uint64, error)
		probes func(h *Hierarchy) uint64 // TLB probe cycles before a walk
	}
	paths := []path{
		{"Translate", func(h *Hierarchy, a mem.VAddr) (mem.PAddr, uint64, error) { return h.Translate(a, at) },
			func(h *Hierarchy) uint64 { return h.L1.Config().HitLatency + h.L2.Config().HitLatency }},
		{"TranslateL2", func(h *Hierarchy, a mem.VAddr) (mem.PAddr, uint64, error) { return h.TranslateL2(a, at) },
			func(h *Hierarchy) uint64 { return h.L2.Config().HitLatency }},
	}
	cases := []struct {
		name string
		addr mem.VAddr
		warm func(h *Hierarchy) // TLB contents before the translation
		span string             // expected walk span, "" for none
	}{
		{"l1 hit", mapped, func(h *Hierarchy) { h.L1.Insert(mapped); h.L2.Insert(mapped) }, ""},
		{"l2 hit", mapped, func(h *Hierarchy) { h.L2.Insert(mapped) }, ""},
		{"walk", mapped, func(*Hierarchy) {}, "page_walk"},
		{"unmapped", unmapped, func(*Hierarchy) {}, "page_fault"},
	}
	for _, p := range paths {
		for _, c := range cases {
			t.Run(p.name+"/"+c.name, func(t *testing.T) {
				plain := NewHierarchy(as, 30, l1TLBConfig(), l2TLBConfig())
				traced := NewHierarchy(as, 30, l1TLBConfig(), l2TLBConfig())
				tr := trace.New(16)
				traced.SetTracer(tr, 0, 0)
				c.warm(plain)
				c.warm(traced)
				pa, lat, err := p.run(plain, c.addr)
				tpa, tlat, terr := p.run(traced, c.addr)
				if pa != tpa || lat != tlat || fmt.Sprint(err) != fmt.Sprint(terr) {
					t.Fatalf("traced (%#x, %d, %v) != untraced (%#x, %d, %v)", uint64(tpa), tlat, terr, uint64(pa), lat, err)
				}
				if (err != nil) != (c.span == "page_fault") {
					t.Fatalf("err = %v on %s", err, c.name)
				}
				evs := tr.Events()
				if c.span == "" {
					if len(evs) != 0 {
						t.Fatalf("a hit emitted %d spans: %+v", len(evs), evs)
					}
					return
				}
				if len(evs) != 1 || evs[0].Name != c.span {
					t.Fatalf("events = %+v, want one %s span", evs, c.span)
				}
				if start := uint64(at) + p.probes(traced); evs[0].TS != start || evs[0].TS+evs[0].Dur != at+lat {
					t.Fatalf("%s span [%d, %d), want [%d, %d)", c.span, evs[0].TS, evs[0].TS+evs[0].Dur, start, at+lat)
				}
			})
		}
	}
}

// driveTLB applies n seeded operations to tl on pages drawn from the
// first span pages: fills, lookups, runs of hits applied with StampHit
// and AddHits, and about one Flush in 128 operations. It returns the flushes made.
func driveTLB(tl *TLB, seed int64, n int, span uint64) (flushes uint64) {
	r := rand.New(rand.NewSource(seed))
	page := func() mem.VAddr { return vaddr(uint64(r.Int63n(int64(span)))) }
	for i := 0; i < n; i++ {
		if r.Intn(128) == 0 {
			tl.Flush()
			flushes++
		}
		switch a := page(); r.Intn(8) {
		case 0, 1, 2:
			tl.Insert(a)
		case 3, 4:
			tl.Lookup(a)
		default:
			var run uint64
			for k := 0; k < 4; k++ {
				if b := page(); tl.Contains(b) {
					tl.StampHit(b, run)
					run++
				}
			}
			tl.AddHits(run)
		}
	}
	return flushes
}

// TestTLBFlushAndResetMatchNew drives a TLB, then flushes or resets it,
// and requires it to equal a fresh TLB of its geometry: right after a
// flush with the counters carried over and one more flush counted,
// right after a reset outright, and after the same later sequence. The
// cases take both down both of their paths: the listed sets only, and
// the whole array once the list of filled sets is full.
func TestTLBFlushAndResetMatchNew(t *testing.T) {
	odd := Config{Entries: 96, Ways: 4, HitLatency: 1} // 24 sets
	cases := []struct {
		name string
		cfg  Config
		span uint64 // pages the operations before the flush draw from
		ops  int
		full bool // whether the list of filled sets ends full
	}{
		{"l2 few sets", l2TLBConfig(), 16, 300, false},
		{"l2 overflow", l2TLBConfig(), 2048, 2000, true},
		{"l1 few sets", l1TLBConfig(), 3, 50, false},
		{"l1 overflow", l1TLBConfig(), 256, 500, true},
		{"odd sets few", odd, 4, 100, false},
		{"odd sets overflow", odd, 400, 800, true},
	}
	for _, tc := range cases {
		for _, reset := range []bool{false, true} {
			name := tc.name + "/flush"
			if reset {
				name = tc.name + "/reset"
			}
			t.Run(name, func(t *testing.T) {
				tl := New(tc.cfg)
				flushes := driveTLB(tl, 1, tc.ops, tc.span)
				if (len(tl.filled) == cap(tl.filled)) != tc.full {
					t.Fatalf("%d of %d filled sets listed; want a full list: %v", len(tl.filled), cap(tl.filled), tc.full)
				}
				want := New(tc.cfg)
				if reset {
					tl.Reset()
				} else {
					tl.Flush()
					want.stamp, want.hits, want.misses, want.flushes = tl.stamp, tl.hits, tl.misses, flushes+1
				}
				if !reflect.DeepEqual(tl, want) {
					t.Fatal("a flushed or reset TLB differs from a fresh one")
				}
				if _, _, n := tl.Stats(); n != want.flushes {
					t.Fatalf("flushes = %d, want %d", n, want.flushes)
				}
				driveTLB(tl, 2, 400, 2*tc.span+1)
				driveTLB(want, 2, 400, 2*tc.span+1)
				if !reflect.DeepEqual(tl, want) {
					t.Fatal("a flushed or reset TLB diverges from a fresh one under the same operations")
				}
			})
		}
	}
}

// TestTLBResetToMatchesNew drives a TLB, then resets it to a
// configuration of the same geometry and another hit latency, and
// requires it to equal a fresh TLB of that configuration, before and
// after the same later operations; a configuration of another geometry
// must leave the TLB as it was.
func TestTLBResetToMatchesNew(t *testing.T) {
	cfg := l2TLBConfig()
	tl := New(cfg)
	driveTLB(tl, 1, 2000, 2048)
	before := *tl
	other := cfg
	other.Ways *= 2
	if tl.ResetTo(other) || !reflect.DeepEqual(*tl, before) {
		t.Fatal("ResetTo another geometry changed the TLB")
	}
	retimed := cfg
	retimed.HitLatency += 5
	want := New(retimed)
	if !tl.ResetTo(retimed) || !reflect.DeepEqual(tl, want) {
		t.Fatal("a TLB reset to a new hit latency differs from a fresh one")
	}
	driveTLB(tl, 2, 400, 64)
	driveTLB(want, 2, 400, 64)
	if !reflect.DeepEqual(tl, want) {
		t.Fatal("a TLB reset to a new hit latency diverges from a fresh one under the same operations")
	}
}

// Property: after Insert(p), Lookup(p) hits until ways distinct conflicting
// pages are inserted.
func TestPropertyInsertThenHit(t *testing.T) {
	f := func(pages []uint16) bool {
		tl := New(Config{Entries: 64, Ways: 4, HitLatency: 1})
		for _, p := range pages {
			a := vaddr(uint64(p))
			tl.Insert(a)
			if hit, _ := tl.Lookup(a); !hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: hit rate of repeated sequential sweeps over a working set that
// fits is 100% after the first sweep.
func TestPropertyCapacityBehaviour(t *testing.T) {
	tl := New(Config{Entries: 64, Ways: 4, HitLatency: 1})
	for p := uint64(0); p < 64; p++ {
		tl.Insert(vaddr(p))
	}
	for sweep := 0; sweep < 3; sweep++ {
		for p := uint64(0); p < 64; p++ {
			if hit, _ := tl.Lookup(vaddr(p)); !hit {
				t.Fatalf("sweep %d: page %d missed although working set fits", sweep, p)
			}
		}
	}
}

// BenchmarkTranslate times Hierarchy.Translate on Tab. II's TLBs.
// l1_hit translates one page over and over; walk cycles over four times
// as many pages as the L2 TLB holds, so LRU misses both levels on every
// call and each call walks and fills.
func BenchmarkTranslate(b *testing.B) {
	const pages = 4 * 1024
	as := mem.NewAddressSpace(mem.NewPhysical())
	base := as.Alloc(pages*mem.PageSize, mem.PageSize)
	for _, bc := range []struct {
		name  string
		pages uint64
	}{{"l1_hit", 1}, {"walk", pages}} {
		b.Run(bc.name, func(b *testing.B) {
			h := NewHierarchy(as, 30, l1TLBConfig(), l2TLBConfig())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := base + mem.VAddr(uint64(i)%bc.pages<<mem.PageShift)
				if _, _, err := h.Translate(a, 0); err != nil {
					b.Fatal(err)
				}
			}
			walks, _, _ := h.Walker.Stats()
			b.ReportMetric(float64(walks)/float64(b.N), "walks/op")
		})
	}
}
