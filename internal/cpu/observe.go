package cpu

import (
	"qei/internal/metrics"
	"qei/internal/trace"
)

// RegisterMetrics publishes the core's pipeline counters under r,
// pull-based from the Stats the model already keeps. Callers scope r to
// the core's path (e.g. core0), yielding names like
// core0/rob/stall_cycles and core0/branch/mispredicts.
func (c *Core) RegisterMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	r.RegisterFunc("instructions", func() uint64 { return c.stats.Instructions })
	r.RegisterFunc("cycles", func() uint64 { return c.lastRetire })
	r.RegisterFunc("loads", func() uint64 { return c.stats.Loads })
	r.RegisterFunc("stores", func() uint64 { return c.stats.Stores })
	r.RegisterFunc("queries", func() uint64 { return c.stats.Queries })
	r.RegisterFunc("rob/stall_cycles", func() uint64 { return c.stats.ROBStallCycles })
	r.RegisterFunc("lq/stall_cycles", func() uint64 { return c.stats.LQStallCycles })
	r.RegisterFunc("frontend/redirect_cycles", func() uint64 { return c.stats.FrontendCycles })
	r.RegisterFunc("branch/executed", func() uint64 { return c.stats.Branches })
	r.RegisterFunc("branch/mispredicts", func() uint64 { return c.stats.Mispredicts })
}

// SetTracer attaches the unified tracer; pid is the core's trace track.
// With a tracer attached, Run emits query spans (issue → writeback) and
// mispredict instants on the pipeline lane.
func (c *Core) SetTracer(tr *trace.Tracer, pid int) {
	c.tr = tr
	c.tracePid = pid
}
