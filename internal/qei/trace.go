package qei

import (
	"qei/internal/scheme"
	"qei/internal/trace"
)

// Query-timeline tracing. The accelerator's per-query spans ride on the
// simulator-wide tracer (internal/trace): when one is attached via
// SetTracer, every query emits a span on its QST instance's track, CHA
// remote comparisons emit spans on the owning slice's track, and
// dedicated-TLB page walks emit spans from the tlb package — all on one
// interleaved timeline.

// SetTracer attaches the unified event tracer: query spans, CHA
// remote-compare spans, and dedicated-TLB page walks are emitted on it.
// A nil tracer detaches.
func (a *Accelerator) SetTracer(tr *trace.Tracer) {
	a.tr = tr
	if a.p.Translation != scheme.TransDedicated {
		return
	}
	for i, ins := range a.inst {
		ins.walker.SetTracer(tr, trace.PidQST(i), 1)
	}
}

// querySpan emits one query's issue→completion span on its QST slot's
// row; a faulting query carries an !EXCEPTION suffix.
func (a *Accelerator) querySpan(start, end uint64, ins *instance, slot uint64, fault bool) {
	if a.tr == nil {
		return
	}
	name := "query"
	if fault {
		name = "query!EXCEPTION"
	}
	a.tr.Span("qst", name, start, end, trace.PidQST(ins.idx), int(slot), nil)
}
