package cache

import (
	"fmt"

	"qei/internal/faultinject"
	"qei/internal/mem"
	"qei/internal/noc"
	"qei/internal/trace"
)

// DRAMConfig models the memory subsystem: six DDR4-2666 channels per
// Tab. II. Latency is the device access time; channel selection is by
// address interleave at cacheline granularity.
type DRAMConfig struct {
	Channels      int
	AccessLatency uint64 // device cycles per access (CPU-clock cycles)
}

// DefaultDRAMConfig gives ~170 CPU cycles of device latency, six channels.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{Channels: 6, AccessLatency: 170}
}

// DRAM is the memory backend.
type DRAM struct {
	cfg      DRAMConfig
	accesses []uint64 // per channel
}

// NewDRAM builds the DRAM model.
func NewDRAM(cfg DRAMConfig) *DRAM {
	if cfg.Channels <= 0 {
		panic("cache: DRAM needs at least one channel")
	}
	return &DRAM{cfg: cfg, accesses: make([]uint64, cfg.Channels)}
}

// Access records an access to the channel owning a and returns its latency.
func (d *DRAM) Access(a mem.PAddr) uint64 {
	ch := (uint64(a) >> mem.LineShift) % uint64(d.cfg.Channels)
	d.accesses[ch]++
	return d.cfg.AccessLatency
}

// Accesses reports the total number of DRAM accesses.
func (d *DRAM) Accesses() uint64 {
	var t uint64
	for _, n := range d.accesses {
		t += n
	}
	return t
}

// LLC is the shared NUCA last-level cache: one slice per CHA, each slice
// pinned to a mesh stop. The slice owning a line is chosen by a hash of
// the physical line address, as in real Xeon NUCA designs.
type LLC struct {
	slices []*Cache
	stops  []noc.Stop
}

// newLLC builds n slices with cfg each, mapped to the given mesh stops.
// Unlike a private cache, a slice builds its arrays here, with the
// machine: any run spreads its lines over every slice, so building them
// on first fill would only move the allocation into the run.
func newLLC(n int, cfg Config, stops []noc.Stop) *LLC {
	if len(stops) != n {
		panic(fmt.Sprintf("cache: %d slices need %d stops, got %d", n, n, len(stops)))
	}
	l := &LLC{stops: stops}
	for i := 0; i < n; i++ {
		s := New(cfg)
		s.build()
		l.slices = append(l.slices, s)
	}
	return l
}

// Slices returns the number of LLC slices.
func (l *LLC) Slices() int { return len(l.slices) }

// SliceFor returns the slice index owning physical address a. The hash
// mixes upper address bits so consecutive lines spread across slices.
func (l *LLC) SliceFor(a mem.PAddr) int {
	line := uint64(a) >> mem.LineShift
	// Fibonacci hashing for a deterministic, well-spread NUCA hash.
	h := line * 0x9E3779B97F4A7C15
	return int(h % uint64(len(l.slices)))
}

// StopFor returns the mesh stop of the slice owning a.
func (l *LLC) StopFor(a mem.PAddr) noc.Stop {
	return l.stops[l.SliceFor(a)]
}

// Slice returns slice i's cache array.
func (l *LLC) Slice(i int) *Cache { return l.slices[i] }

// Stats sums hit/miss counters over all slices.
func (l *LLC) Stats() (hits, misses uint64) {
	for _, s := range l.slices {
		h, m, _, _ := s.Stats()
		hits += h
		misses += m
	}
	return hits, misses
}

// AccessKind distinguishes reads from writes for dirty-bit handling.
type AccessKind int

const (
	Read AccessKind = iota
	Write
)

// Result describes a completed hierarchy access.
type Result struct {
	Latency  uint64
	Hit      Level // level that satisfied the access
	NoCBytes uint64
}

// Hierarchy wires the per-core private caches to the shared LLC, mesh,
// and DRAM. One Hierarchy instance serves the whole chip; per-core
// private arrays are indexed by core.
type Hierarchy struct {
	L1D  []*Cache
	L2   []*Cache
	llc  *LLC
	mesh *noc.Mesh
	dram *DRAM
	// coreStops maps core index to its mesh stop.
	coreStops []noc.Stop
	// memStops are the mesh stops of the memory controllers.
	memStops []noc.Stop

	// reqBytes / lineBytes are the message sizes used for NoC accounting.
	reqBytes  uint64
	lineBytes uint64

	// tr receives one span per CoreAccess, L2Access, LLCAccessFrom and
	// LLCAccessLocal; nil (the default) records nothing.
	tr *trace.Tracer
	// fi may evict the accessed LLC line ahead of a lookup (see
	// SetFaultInjector); nil disables injection.
	fi *faultinject.Injector
}

// NewHierarchy builds the chip: nCores private L1D/L2 pairs of the
// given geometry, an LLC slice of llcSlice's geometry at every core stop
// (tile = core + CHA/slice, as on Skylake-SP), and memory controllers at
// the given stops. machine.New calls it with a hwdesc.Description's
// sizes.
func NewHierarchy(nCores int, mesh *noc.Mesh, memStops []noc.Stop, l1d, l2, llcSlice Config) *Hierarchy {
	if nCores > mesh.Stops() {
		panic("cache: more cores than mesh stops")
	}
	coreStops := make([]noc.Stop, nCores)
	for i := range coreStops {
		coreStops[i] = noc.Stop(i)
	}
	h := &Hierarchy{
		mesh:      mesh,
		dram:      NewDRAM(DefaultDRAMConfig()),
		coreStops: coreStops,
		memStops:  append([]noc.Stop(nil), memStops...),
		reqBytes:  16,
		lineBytes: mem.LineSize + 16,
	}
	for i := 0; i < nCores; i++ {
		h.L1D = append(h.L1D, New(l1d))
		h.L2 = append(h.L2, New(l2))
	}
	h.llc = newLLC(nCores, llcSlice, coreStops)
	return h
}

// LLC exposes the shared last-level cache.
func (h *Hierarchy) LLC() *LLC { return h.llc }

// DRAM exposes the memory backend.
func (h *Hierarchy) DRAM() *DRAM { return h.dram }

// Mesh exposes the NoC.
func (h *Hierarchy) Mesh() *noc.Mesh { return h.mesh }

// CoreStop returns the mesh stop of core i.
func (h *Hierarchy) CoreStop(i int) noc.Stop { return h.coreStops[i] }

// MemStopFor returns the memory controller stop serving address a.
func (h *Hierarchy) MemStopFor(a mem.PAddr) noc.Stop {
	idx := (uint64(a) >> mem.LineShift) % uint64(len(h.memStops))
	return h.memStops[idx]
}

// llcAccess satisfies a request at the LLC slice owning a, fetching from
// DRAM on a slice miss, and returns (latency beyond the requester's hop
// to the slice, level satisfied).
func (h *Hierarchy) llcAccess(a mem.PAddr, kind AccessKind) (uint64, Level) {
	slice := h.llc.Slice(h.llc.SliceFor(a))
	sliceStop := h.llc.StopFor(a)
	// Injected capacity pressure (another tenant's working set) evicts
	// the line just before the probe, turning this access into a miss.
	if h.fi.EvictLine() {
		slice.Invalidate(a)
	}
	if slice.Lookup(a) {
		if kind == Write {
			slice.MarkDirty(a)
		}
		return slice.Config().HitLatency, LevelLLC
	}
	// Miss: CHA forwards to the memory controller, DRAM access, fill.
	memStop := h.MemStopFor(a)
	lat := slice.Config().HitLatency // tag probe before miss detected
	lat += h.mesh.Send(sliceStop, memStop, h.reqBytes)
	lat += h.dram.Access(a)
	lat += h.mesh.Send(memStop, sliceStop, h.lineBytes)
	slice.Insert(a, kind == Write)
	return lat, LevelDRAM
}

// CoreAccess performs a load or store issued at cycle at from core's
// pipeline at physical address a through L1D → L2 → LLC → DRAM, filling
// on the way back. The access lands on the core's memory track.
func (h *Hierarchy) CoreAccess(core int, a mem.PAddr, kind AccessKind, at uint64) Result {
	r := h.coreAccess(core, a, kind)
	h.tr.Span("cache", levelEventName(r.Hit), at, at+r.Latency, core, trace.TidCoreMem, nil)
	return r
}

func (h *Hierarchy) coreAccess(core int, a mem.PAddr, kind AccessKind) Result {
	l1 := h.L1D[core]
	l2 := h.L2[core]
	if l1.Lookup(a) {
		if kind == Write {
			l1.MarkDirty(a)
		}
		return Result{Latency: l1.Config().HitLatency, Hit: LevelL1}
	}
	lat := l1.Config().HitLatency
	if l2.Lookup(a) {
		lat += l2.Config().HitLatency
		l1.Insert(a, kind == Write)
		return Result{Latency: lat, Hit: LevelL2}
	}
	lat += l2.Config().HitLatency
	// Go over the mesh to the owning CHA.
	sliceStop := h.llc.StopFor(a)
	coreStop := h.coreStops[core]
	lat += h.mesh.Send(coreStop, sliceStop, h.reqBytes)
	llcLat, level := h.llcAccess(a, kind)
	lat += llcLat
	lat += h.mesh.Send(sliceStop, coreStop, h.lineBytes)
	l2.Insert(a, kind == Write)
	l1.Insert(a, kind == Write)
	return Result{Latency: lat, Hit: level}
}

// L2Access performs an access issued at cycle at that starts at a
// core's L2 (QEI's Core-integrated scheme sits beside the L2 and does
// not touch the L1, avoiding private-cache pollution of the L1). The
// access lands on the core's memory track.
func (h *Hierarchy) L2Access(core int, a mem.PAddr, kind AccessKind, at uint64) Result {
	r := h.l2Access(core, a, kind)
	h.tr.Span("cache", levelEventName(r.Hit), at, at+r.Latency, core, trace.TidCoreMem, nil)
	return r
}

func (h *Hierarchy) l2Access(core int, a mem.PAddr, kind AccessKind) Result {
	l2 := h.L2[core]
	if l2.Lookup(a) {
		if kind == Write {
			l2.MarkDirty(a)
		}
		return Result{Latency: l2.Config().HitLatency, Hit: LevelL2}
	}
	lat := l2.Config().HitLatency
	sliceStop := h.llc.StopFor(a)
	coreStop := h.coreStops[core]
	lat += h.mesh.Send(coreStop, sliceStop, h.reqBytes)
	llcLat, level := h.llcAccess(a, kind)
	lat += llcLat
	lat += h.mesh.Send(sliceStop, coreStop, h.lineBytes)
	l2.Insert(a, kind == Write)
	return Result{Latency: lat, Hit: level}
}

// LLCAccessFrom performs an access issued at cycle at from an arbitrary
// mesh stop directly against the LLC (no private-cache fill). This is
// the path of a CHA-resident accelerator or a device-attached
// accelerator: request travels from the issuing stop to the owning
// slice and the line comes back. The access lands on the owning CHA
// slice's track.
func (h *Hierarchy) LLCAccessFrom(from noc.Stop, a mem.PAddr, kind AccessKind, at uint64) Result {
	sliceStop := h.llc.StopFor(a)
	lat := h.mesh.Send(from, sliceStop, h.reqBytes)
	llcLat, level := h.llcAccess(a, kind)
	lat += llcLat
	lat += h.mesh.Send(sliceStop, from, h.lineBytes)
	h.tr.Span("cache", levelEventName(level), at, at+lat, trace.PidCHA(h.llc.SliceFor(a)), 0, nil)
	return Result{Latency: lat, Hit: level}
}

// LLCAccessLocal performs an access issued at cycle at at the slice
// owning a, as issued by a comparator that lives in the CHA at site
// (QEI remote comparison): no request/response traversal is charged
// beyond the slice access itself. If the line belongs to a different
// slice, the inter-CHA hop is charged. The access lands on the owning
// CHA slice's track.
func (h *Hierarchy) LLCAccessLocal(site noc.Stop, a mem.PAddr, kind AccessKind, at uint64) Result {
	sliceStop := h.llc.StopFor(a)
	var lat uint64
	if sliceStop != site {
		lat += h.mesh.Send(site, sliceStop, h.reqBytes)
	}
	llcLat, level := h.llcAccess(a, kind)
	lat += llcLat
	if sliceStop != site {
		lat += h.mesh.Send(sliceStop, site, h.lineBytes)
	}
	h.tr.Span("cache", levelEventName(level), at, at+lat, trace.PidCHA(h.llc.SliceFor(a)), 0, nil)
	return Result{Latency: lat, Hit: level}
}
