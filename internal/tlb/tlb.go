// Package tlb models translation lookaside buffers and the page-walk cost
// paid on a miss.
//
// Address translation is central to the paper's argument (Sec. II-B,
// Challenge 3, and Sec. V): an accelerator needs *some* translation path,
// and the choice — dedicated TLB per CHA, round trips to the core's MMU,
// or sharing the core's L2-TLB — drives both performance (Fig. 7/8) and
// area (Tab. III). This package provides the set-associative TLB used in
// all of those configurations.
package tlb

import (
	"fmt"

	"qei/internal/faultinject"
	"qei/internal/mem"
	"qei/internal/trace"
)

// Config describes a TLB's geometry and timing.
type Config struct {
	Entries    int    // total entries
	Ways       int    // associativity
	HitLatency uint64 // cycles for a hit
}

// TLB is a set-associative translation cache with true-LRU replacement.
//
// Tag and LRU state are flat arrays indexed set*ways+way, and the set
// index is an AND when the set count is a power of two (every
// configuration here) — same layout rationale as cache.Cache.
type TLB struct {
	cfg      Config
	sets     int
	ways     int
	setMask  uint64
	setsPow2 bool
	tags     []uint64 // virtual page numbers; ^0 = invalid
	lru      []uint64 // higher = more recent
	stamp    uint64
	hits     uint64
	misses   uint64
	flushes  uint64
	// fi may force a shootdown-flush ahead of a lookup (see
	// SetFaultInjector); nil disables injection.
	fi *faultinject.Injector
}

// New builds a TLB from cfg. Entries must be divisible by Ways.
func New(cfg Config) *TLB {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("tlb: bad geometry %d entries / %d ways", cfg.Entries, cfg.Ways))
	}
	sets := cfg.Entries / cfg.Ways
	t := &TLB{cfg: cfg, sets: sets, ways: cfg.Ways}
	if sets&(sets-1) == 0 {
		t.setsPow2 = true
		t.setMask = uint64(sets - 1)
	}
	t.tags = make([]uint64, cfg.Entries)
	t.lru = make([]uint64, cfg.Entries)
	for i := range t.tags {
		t.tags[i] = ^uint64(0)
	}
	return t
}

func (t *TLB) setIndex(vp uint64) uint64 {
	if t.setsPow2 {
		return vp & t.setMask
	}
	return vp % uint64(t.sets)
}

// Config returns the TLB geometry.
func (t *TLB) Config() Config { return t.cfg }

// SetFaultInjector attaches the fault-injection harness; while fi is
// armed, a lookup may be preceded by an injected shootdown flush. A nil
// injector keeps lookups exact and free.
func (t *TLB) SetFaultInjector(fi *faultinject.Injector) { t.fi = fi }

// Lookup checks whether the page containing a is cached, updating LRU and
// statistics. It returns hit=true and the hit latency on a hit.
func (t *TLB) Lookup(a mem.VAddr) (hit bool, latency uint64) {
	// An injected shootdown (remote munmap IPI) lands just before the
	// probe: the whole TLB is invalidated and this lookup must miss.
	if t.fi.TLBShootdown() {
		t.Flush()
	}
	vp := a.Page()
	base := int(t.setIndex(vp)) * t.ways
	for i, tag := range t.tags[base : base+t.ways] {
		if tag == vp {
			t.stamp++
			t.lru[base+i] = t.stamp
			t.hits++
			return true, t.cfg.HitLatency
		}
	}
	t.misses++
	return false, t.cfg.HitLatency
}

// Contains reports whether the page containing a is cached, without
// touching LRU or statistics.
func (t *TLB) Contains(a mem.VAddr) bool {
	vp := a.Page()
	base := int(t.setIndex(vp)) * t.ways
	for _, tag := range t.tags[base : base+t.ways] {
		if tag == vp {
			return true
		}
	}
	return false
}

// StampHit sets the LRU stamp of the cached page containing a to the
// one Lookup would leave it if the i-th (from 0) of a run of hits
// starting now were the page's last. A run of hits whose pages Contains
// found is applied this way, each page stamped at its last access in
// the run, and ended with AddHits. It changes nothing if the page is
// not cached.
func (t *TLB) StampHit(a mem.VAddr, i uint64) {
	vp := a.Page()
	base := int(t.setIndex(vp)) * t.ways
	for w, tag := range t.tags[base : base+t.ways] {
		if tag == vp {
			t.lru[base+w] = t.stamp + 1 + i
			return
		}
	}
}

// AddHits ends a run of n hits whose pages StampHit stamped: the LRU
// counter and the hit count advance as n Lookup hits advance them.
func (t *TLB) AddHits(n uint64) {
	t.stamp += n
	t.hits += n
}

// Insert caches the translation for the page containing a, evicting the
// least-recently-used way of its set if needed.
func (t *TLB) Insert(a mem.VAddr) {
	vp := a.Page()
	base := int(t.setIndex(vp)) * t.ways
	victim := 0
	oldest := ^uint64(0)
	for i, tag := range t.tags[base : base+t.ways] {
		if tag == vp {
			t.stamp++
			t.lru[base+i] = t.stamp
			return
		}
		if t.lru[base+i] < oldest {
			oldest = t.lru[base+i]
			victim = i
		}
	}
	t.stamp++
	t.tags[base+victim] = vp
	t.lru[base+victim] = t.stamp
}

// Flush invalidates every entry (context switch / interrupt handling).
func (t *TLB) Flush() {
	for i := range t.tags {
		t.tags[i] = ^uint64(0)
		t.lru[i] = 0
	}
	t.flushes++
}

// Reset puts the TLB back in the state New builds: every entry
// invalid, stamps and counters zeroed, no fault injector.
func (t *TLB) Reset() {
	t.Flush()
	t.stamp, t.hits, t.misses, t.flushes = 0, 0, 0, 0
	t.fi = nil
}

// Stats reports accumulated hit/miss counts.
func (t *TLB) Stats() (hits, misses, flushes uint64) {
	return t.hits, t.misses, t.flushes
}

// Walker models a hardware page-table walker. A walk costs one memory
// access per level; the per-access latency is a parameter because walks
// hit in different places (page-walk caches, LLC) in real machines.
type Walker struct {
	as           *mem.AddressSpace
	perLevel     uint64
	walks        uint64
	faults       uint64
	totalLatency uint64

	// tr (with pid/tid, see SetTracer) receives page-walk spans; nil
	// keeps walks trace-free.
	tr  *trace.Tracer
	pid int
	tid int
}

// NewWalker creates a walker over as with the given per-level access cost.
func NewWalker(as *mem.AddressSpace, perLevelLatency uint64) *Walker {
	return &Walker{as: as, perLevel: perLevelLatency}
}

// Walk translates a issued at cycle at, returning the physical
// address, the walk latency, and a fault if the page is unmapped (a
// faulting walk still traverses all levels before discovering the
// hole). The walk appears in the trace as a "page_walk" span covering
// its full latency, marked "page_fault" instead when the page is
// unmapped.
func (w *Walker) Walk(a mem.VAddr, at uint64) (mem.PAddr, uint64, error) {
	w.walks++
	lat := uint64(w.as.WalkLevels()) * w.perLevel
	w.totalLatency += lat
	pa, err := w.as.Translate(a)
	name := "page_walk"
	if err != nil {
		w.faults++
		pa, name = 0, "page_fault"
	}
	w.tr.Span("tlb", name, at, at+lat, w.pid, w.tid, nil)
	return pa, lat, err
}

// Reset puts the walker back in the state NewWalker builds over as:
// counters zeroed and no tracer.
func (w *Walker) Reset(as *mem.AddressSpace) {
	*w = Walker{as: as, perLevel: w.perLevel}
}

// Stats reports walk counts, faults, and cumulative walk cycles.
func (w *Walker) Stats() (walks, faults, totalLatency uint64) {
	return w.walks, w.faults, w.totalLatency
}

// Hierarchy is a two-level TLB (L1 + shared L2) in front of a walker —
// the translation path of a core, which QEI's Core-integrated scheme taps
// at the L2-TLB (Sec. V-A).
type Hierarchy struct {
	L1     *TLB
	L2     *TLB
	Walker *Walker
}

// NewHierarchy builds a core's translation path: an L1 and an L2 TLB of
// the given geometry in front of a walker charging perLevelWalk cycles
// per page-table level. machine.New calls it with a hwdesc.Description's
// sizes.
func NewHierarchy(as *mem.AddressSpace, perLevelWalk uint64, l1, l2 Config) *Hierarchy {
	return &Hierarchy{
		L1:     New(l1),
		L2:     New(l2),
		Walker: NewWalker(as, perLevelWalk),
	}
}

// Reset puts the hierarchy back in the state NewHierarchy builds over
// as: both TLBs empty and the walker re-bound to as (see TLB.Reset and
// Walker.Reset).
func (h *Hierarchy) Reset(as *mem.AddressSpace) {
	h.L1.Reset()
	h.L2.Reset()
	h.Walker.Reset(as)
}

// Translate resolves a issued at cycle at through L1 → L2 → walker,
// filling upper levels on the way back. It returns the physical address
// and total latency; a miss's page walk starts after both TLB probes.
func (h *Hierarchy) Translate(a mem.VAddr, at uint64) (mem.PAddr, uint64, error) {
	if hit, lat := h.L1.Lookup(a); hit {
		pa, err := h.Walker.as.Translate(a)
		return pa, lat, err
	}
	lat := h.L1.Config().HitLatency // L1 probe cost on miss
	if hit, l2lat := h.L2.Lookup(a); hit {
		h.L1.Insert(a)
		pa, err := h.Walker.as.Translate(a)
		return pa, lat + l2lat, err
	}
	lat += h.L2.Config().HitLatency
	pa, wlat, err := h.Walker.Walk(a, at+lat)
	lat += wlat
	if err != nil {
		return 0, lat, err
	}
	h.L2.Insert(a)
	h.L1.Insert(a)
	return pa, lat, nil
}

// TranslateL2 resolves a issued at cycle at through the L2 TLB only
// (the accelerator's path in the Core-integrated scheme — it shares the
// L2-TLB but not the L1).
func (h *Hierarchy) TranslateL2(a mem.VAddr, at uint64) (mem.PAddr, uint64, error) {
	if hit, lat := h.L2.Lookup(a); hit {
		pa, err := h.Walker.as.Translate(a)
		return pa, lat, err
	}
	lat := h.L2.Config().HitLatency
	pa, wlat, err := h.Walker.Walk(a, at+lat)
	lat += wlat
	if err != nil {
		return 0, lat, err
	}
	h.L2.Insert(a)
	return pa, lat, nil
}

// SetFaultInjector attaches the fault-injection harness to both TLB
// levels (the walker is exact: a page walk reads architected page
// tables, which the fault model leaves intact).
func (h *Hierarchy) SetFaultInjector(fi *faultinject.Injector) {
	h.L1.SetFaultInjector(fi)
	h.L2.SetFaultInjector(fi)
}
