package tlb

import (
	"qei/internal/metrics"
	"qei/internal/trace"
)

// RegisterMetrics publishes one TLB array's counters under r
// (pull-based; hot lookup paths untouched).
func (t *TLB) RegisterMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	r.RegisterFunc("hits", func() uint64 { return t.hits })
	r.RegisterFunc("misses", func() uint64 { return t.misses })
	r.RegisterFunc("flushes", func() uint64 { return t.flushes })
}

// RegisterMetrics publishes the walker's counters under r.
func (w *Walker) RegisterMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	r.RegisterFunc("walks", func() uint64 { return w.walks })
	r.RegisterFunc("faults", func() uint64 { return w.faults })
	r.RegisterFunc("walk_cycles", func() uint64 { return w.totalLatency })
}

// RegisterMetrics publishes the full two-level hierarchy: l1/…, l2/…,
// walker/….
func (h *Hierarchy) RegisterMetrics(r *metrics.Registry) {
	h.L1.RegisterMetrics(r.Scoped("l1"))
	h.L2.RegisterMetrics(r.Scoped("l2"))
	h.Walker.RegisterMetrics(r.Scoped("walker"))
}

// SetTracer routes the walker's page-walk spans onto the given trace
// track (pid/tid identify the component that owns this walker — a
// core's TLB lane or a CHA's dedicated walker).
func (w *Walker) SetTracer(tr *trace.Tracer, pid, tid int) {
	w.tr = tr
	w.pid = pid
	w.tid = tid
}

// SetTracer attaches the tracer to the hierarchy's walker.
func (h *Hierarchy) SetTracer(tr *trace.Tracer, pid, tid int) {
	h.Walker.SetTracer(tr, pid, tid)
}
