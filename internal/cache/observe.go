package cache

import (
	"fmt"

	"qei/internal/faultinject"
	"qei/internal/metrics"
	"qei/internal/trace"
)

// RegisterMetrics publishes the hierarchy's counters into r, pull-based
// so the access hot paths are untouched: per-core private-cache
// hit/miss/eviction counts, per-slice LLC counts, and DRAM traffic
// per channel. Names follow the component-path scheme:
// core3/l1d/misses, cha5/llc/hits, dram/ch2/accesses.
func (h *Hierarchy) RegisterMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	for core := range h.L1D {
		registerCache(r.Scoped(fmt.Sprintf("core%d/l1d", core)), h.L1D[core])
		registerCache(r.Scoped(fmt.Sprintf("core%d/l2", core)), h.L2[core])
	}
	for slice := 0; slice < h.llc.Slices(); slice++ {
		registerCache(r.Scoped(fmt.Sprintf("cha%d/llc", slice)), h.llc.Slice(slice))
	}
	dram := r.Scoped("dram")
	dram.RegisterFunc("accesses", h.dram.Accesses)
	for ch := range h.dram.accesses {
		ch := ch
		dram.RegisterFunc(fmt.Sprintf("ch%d/accesses", ch), func() uint64 { return h.dram.accesses[ch] })
	}
}

// registerCache publishes one cache array's stats under r.
func registerCache(r *metrics.Registry, c *Cache) {
	r.RegisterFunc("hits", func() uint64 { return c.hits })
	r.RegisterFunc("misses", func() uint64 { return c.misses })
	r.RegisterFunc("evictions", func() uint64 { return c.evictions })
	r.RegisterFunc("writebacks", func() uint64 { return c.writebacks })
}

// SetTracer attaches the unified event tracer; every CoreAccess,
// L2Access, LLCAccessFrom and LLCAccessLocal emits one span on it. A nil
// tracer records nothing.
func (h *Hierarchy) SetTracer(tr *trace.Tracer) { h.tr = tr }

// SetFaultInjector attaches the fault-injection harness; while fi is
// armed, an LLC access may find its line freshly evicted. A nil
// injector keeps accesses exact and free.
func (h *Hierarchy) SetFaultInjector(fi *faultinject.Injector) { h.fi = fi }

// levelEventName maps the satisfying level to a static event name (no
// per-event allocation).
func levelEventName(l Level) string {
	switch l {
	case LevelL1:
		return "l1_hit"
	case LevelL2:
		return "l2_hit"
	case LevelLLC:
		return "llc_hit"
	default:
		return "dram_fill"
	}
}
