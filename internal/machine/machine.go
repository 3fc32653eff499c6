// Package machine assembles the simulated chip: physical memory and a
// process address space, the mesh NoC, the cache hierarchy with its NUCA
// LLC, and per-core TLB hierarchies. Both the software baseline (via
// CoreMemPort) and the QEI accelerator (via the scheme-specific ports in
// package qei) run against one Machine instance, so they contend for and
// warm the same caches — the property the paper's speedups depend on.
package machine

import (
	"fmt"

	"qei/internal/cache"
	"qei/internal/cpu"
	"qei/internal/faultinject"
	"qei/internal/hwdesc"
	"qei/internal/mem"
	"qei/internal/metrics"
	"qei/internal/noc"
	"qei/internal/tlb"
	"qei/internal/trace"
)

// Machine is one simulated chip plus the process under test.
type Machine struct {
	// Desc is the machine's own copy of the description it was built
	// from.
	Desc hwdesc.Description
	Phys *mem.Physical
	AS   *mem.AddressSpace
	Mesh *noc.Mesh
	Hier *cache.Hierarchy
	// TLB holds one translation hierarchy per core.
	TLB []*tlb.Hierarchy

	// reg/tr are the observability sinks attached by
	// AttachObservability; both may be nil (the default), in which case
	// every instrumentation site degrades to a no-op.
	reg *metrics.Registry
	tr  *trace.Tracer
	// fi is the injector AttachFaultInjection wired in, nil if none.
	fi *faultinject.Injector
}

// New builds the chip that d describes; d must be valid
// (hwdesc.Description.Validate). The machine keeps its own copy of d,
// MemStops included, so callers may reuse or mutate their Description
// without affecting a built machine.
func New(d hwdesc.Description) *Machine {
	d.MemStops = append([]int(nil), d.MemStops...)
	mesh := noc.New(d.Mesh.Config())
	memStops := make([]noc.Stop, len(d.MemStops))
	for i, s := range d.MemStops {
		memStops[i] = noc.Stop(s)
	}
	m := &Machine{
		Desc: d,
		Mesh: mesh,
		Hier: cache.NewHierarchy(d.Cores, mesh, memStops, d.L1D.Config(), d.L2.Config(), d.LLCSlice.Config()),
	}
	m.newProcess()
	for i := 0; i < d.Cores; i++ {
		m.TLB = append(m.TLB, tlb.NewHierarchy(m.AS, d.PageWalkLatency, d.L1TLB.Config(), d.L2TLB.Config()))
	}
	return m
}

// newProcess gives the machine fresh physical memory and an empty
// address space over it.
func (m *Machine) newProcess() {
	m.Phys = mem.NewPhysical()
	if m.Desc.ContiguousFrames {
		m.AS = mem.NewAddressSpace(m.Phys, mem.WithContiguousFrames())
	} else {
		m.AS = mem.NewAddressSpace(m.Phys)
	}
}

// Reset puts the machine back in the state New(m.Desc) builds, reusing
// its cache, TLB and mesh arrays: fresh physical memory and address
// space with every walker re-bound to it, every cache and TLB empty with
// zeroed counters, no mesh traffic, and no registry, tracer or fault
// injector attached. Closures that components registered into a
// metrics registry read the reset counters afterwards, so a registry
// should not outlive the run it observed.
func (m *Machine) Reset() {
	m.newProcess()
	m.Mesh.Reset()
	m.Hier.Reset()
	for _, t := range m.TLB {
		t.Reset(m.AS)
	}
	m.reg, m.tr, m.fi = nil, nil, nil
}

// AttachObservability wires every component of the machine into the
// given metrics registry and event tracer. Either (or both) may be nil:
// component registration is nil-safe and instrumented hot paths fall
// back to their free no-op branches. Cores built afterwards via NewCore
// are wired automatically; call this before running simulation.
func (m *Machine) AttachObservability(reg *metrics.Registry, tr *trace.Tracer) {
	m.reg = reg
	m.tr = tr
	m.Hier.RegisterMetrics(reg)
	m.Hier.SetTracer(tr)
	m.Mesh.RegisterMetrics(reg.Scoped("noc"))
	m.Mesh.SetTracer(tr)
	m.Phys.RegisterMetrics(reg.Scoped("mem"))
	m.AS.RegisterMetrics(reg.Scoped("mem"))
	m.AS.SetTracer(tr)
	for i, t := range m.TLB {
		t.RegisterMetrics(reg.Scoped(fmt.Sprintf("core%d/tlb", i)))
		t.SetTracer(tr, i, trace.TidCoreTLB)
	}
}

// AttachFaultInjection wires the fault-injection harness into every
// component of the machine: guest-memory reads (bit-flips), the mesh
// (delays/drops), the LLC (evictions), and every core TLB hierarchy
// (shootdowns). A nil injector is valid and leaves every hook a no-op.
// The injector only fires while armed, which the accelerator does
// around query execution — so host-side builders stay exact.
func (m *Machine) AttachFaultInjection(fi *faultinject.Injector) {
	m.fi = fi
	m.AS.SetFaultInjector(fi)
	m.Mesh.SetFaultInjector(fi)
	m.Hier.SetFaultInjector(fi)
	for _, t := range m.TLB {
		t.SetFaultInjector(fi)
	}
}

// corePort adapts a core's TLB + cache path to cpu.MemPort.
type corePort struct {
	m    *Machine
	core int
}

// Access translates a through the core's L1/L2 TLBs and performs the
// cache access; latency composes translation and hierarchy costs.
func (p corePort) Access(a mem.VAddr, write bool, issue uint64) (uint64, error) {
	pa, tlat, err := p.m.TLB[p.core].Translate(a, issue)
	if err != nil {
		return 0, err
	}
	kind := cache.Read
	if write {
		kind = cache.Write
	}
	r := p.m.Hier.CoreAccess(p.core, pa, kind, issue+tlat)
	return tlat + r.Latency, nil
}

// ReadRing applies the n reads of a ring walk at once when each would
// hit the core's L1 TLB and L1D at latency lat: it leaves every touched
// TLB entry and L1D way with the LRU stamp of its last read, and
// advances both arrays' stamp counters and hit counts by n, as n Access
// calls would. Only the last lap of the walk, the reads after which no
// offset recurs, is visited: it holds each line's and page's last read.
// A probe of that lap changes no simulated state and declines (see
// cpu.MemPort) when a tracer or fault injector is attached, when a page
// or line is not resident or a page does not translate, or when lat is
// not the two arrays' hit latencies. The lap's translations leave the
// address space's one-entry memo where the per-read calls would.
func (p corePort) ReadRing(base mem.VAddr, off, step, size, n, lat uint64) bool {
	m := p.m
	t, l1 := m.TLB[p.core].L1, m.Hier.L1D[p.core]
	if m.tr != nil || m.fi != nil || t.Config().HitLatency+l1.Config().HitLatency != lat {
		return false
	}
	// The walk's offsets repeat every size/gcd(step, size) reads.
	step %= size
	g := size
	for s := step; s != 0; {
		g, s = s, g%s
	}
	repeat := size / g
	lap := min(n, repeat)
	first := (off + (n-lap)%repeat*step) % size
	o := first
	for i := uint64(0); i < lap; i++ {
		a := base + mem.VAddr(o)
		if !t.Contains(a) {
			return false
		}
		pa, err := m.AS.Translate(a)
		if err != nil || !l1.Contains(pa) {
			return false
		}
		if o += step; o >= size {
			o -= size
		}
	}
	o = first
	for i := n - lap; i < n; i++ {
		a := base + mem.VAddr(o)
		pa, _ := m.AS.Translate(a)
		t.StampHit(a, i)
		l1.StampHit(pa, i)
		if o += step; o >= size {
			o -= size
		}
	}
	t.AddHits(n)
	l1.AddHits(n)
	return true
}

// CoreMemPort returns the cpu.MemPort for the given core.
func (m *Machine) CoreMemPort(core int) cpu.MemPort {
	return corePort{m: m, core: core}
}

// NewCore builds a cpu.Core wired to this machine's memory system, with
// the given accelerator port (nil for pure software runs). If
// observability is attached, the core registers its pipeline counters
// under core<i>/ and emits events on the core's trace track.
func (m *Machine) NewCore(core int, q cpu.QueryPort) *cpu.Core {
	c := cpu.New(cpu.DefaultConfig(), m.CoreMemPort(core), q)
	if m.reg != nil {
		c.RegisterMetrics(m.reg.Scoped(fmt.Sprintf("core%d", core)))
	}
	if m.tr != nil {
		c.SetTracer(m.tr, core)
	}
	return c
}

// WarmLLC brings every mapped cacheline in [start, end) into the shared
// LLC, modelling the steady state of a long-running service whose data
// structures are LLC-resident (the regime the paper evaluates). Private
// caches are not touched. Unmapped pages in the range are skipped.
func (m *Machine) WarmLLC(start, end mem.VAddr) {
	llc := m.Hier.LLC()
	for line := start.Line(); line < end; line += mem.LineSize {
		pa, err := m.AS.Translate(line)
		if err != nil {
			// Skip the rest of this unmapped page.
			line = mem.VAddr((line.Page()+1)<<mem.PageShift) - mem.LineSize
			continue
		}
		llc.Slice(llc.SliceFor(pa)).Insert(pa, false)
	}
}
