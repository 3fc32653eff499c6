// Package cpu implements the trace-driven out-of-order core timing model.
//
// The model is interval-style, in the spirit of the Sniper simulator the
// paper evaluates with [11]: rather than simulating every pipeline stage,
// it computes, for each dynamic micro-op, the cycle at which it can issue
// (frontend slot, ROB/LQ/SQ availability, register dependences) and the
// cycle at which it completes (execution latency, memory latency from the
// cache hierarchy, accelerator latency for QUERY ops). This captures the
// first-order effects the paper's analysis rests on:
//
//   - memory-level parallelism: independent loads overlap;
//   - pointer chasing: dependent loads serialize at full memory latency;
//   - ROB pressure: a blocked load at the head stalls dispatch once the
//     reorder window fills (the QUERY_B saturation effect of Sec. VII-A);
//   - frontend pressure: issue width and branch mispredictions bound
//     throughput of instruction-heavy query loops (Fig. 11's motivation).
package cpu

import (
	"qei/internal/isa"
	"qei/internal/mem"
	"qei/internal/trace"
)

// Config sets the core's microarchitectural parameters (Tab. II).
type Config struct {
	ROBEntries        int
	LoadQueueEntries  int
	StoreQueueEntries int
	IssueWidth        int // micro-ops fetched/renamed per cycle
	RetireWidth       int
	MispredictPenalty uint64
	ALULatency        uint64
	MulLatency        uint64
	QueryIssueCost    uint64 // cycles to deliver a QUERY to the accelerator port
}

// DefaultConfig matches Tab. II: 224 ROB, 72 LQ, 56 SQ, 4-wide, Skylake-ish
// 16-cycle misprediction penalty.
func DefaultConfig() Config {
	return Config{
		ROBEntries:        224,
		LoadQueueEntries:  72,
		StoreQueueEntries: 56,
		IssueWidth:        4,
		RetireWidth:       4,
		MispredictPenalty: 16,
		ALULatency:        1,
		MulLatency:        3,
		QueryIssueCost:    1,
	}
}

// MemPort is the core's window onto the memory system. Implementations
// translate the virtual address and walk the cache hierarchy, returning
// the total access latency.
type MemPort interface {
	// Access performs a data access at the given issue cycle and returns
	// its latency in cycles. Faults are returned as errors (the core
	// model treats them as fatal for the trace).
	Access(a mem.VAddr, write bool, issue uint64) (latency uint64, err error)
}

// QueryPort is the accelerator interface seen by the core's Load-Store
// Unit (Sec. IV-C: blocking queries behave like loads, non-blocking like
// stores).
type QueryPort interface {
	// IssueBlocking hands the query to the accelerator at cycle issue and
	// returns the cycle at which the result register is written back.
	IssueBlocking(q *isa.QueryDesc, issue uint64) (complete uint64, err error)
	// IssueNonBlocking hands the query to the accelerator and returns the
	// cycle at which the accelerator accepted it (the store completes).
	IssueNonBlocking(q *isa.QueryDesc, issue uint64) (accepted uint64, err error)
}

// Stats accumulates execution statistics.
type Stats struct {
	Instructions uint64
	Cycles       uint64
	Loads        uint64
	Stores       uint64
	Branches     uint64
	Mispredicts  uint64
	Queries      uint64
	// ROBStallCycles counts cycles dispatch waited on a full ROB.
	ROBStallCycles uint64
	// LQStallCycles counts cycles a load waited for a load-queue slot.
	LQStallCycles uint64
	// FrontendCycles counts cycles lost to misprediction redirects.
	FrontendCycles uint64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// Sub returns the difference s - prev, for measuring a window between
// two snapshots (e.g. excluding a warmup pass).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Instructions:   s.Instructions - prev.Instructions,
		Cycles:         s.Cycles - prev.Cycles,
		Loads:          s.Loads - prev.Loads,
		Stores:         s.Stores - prev.Stores,
		Branches:       s.Branches - prev.Branches,
		Mispredicts:    s.Mispredicts - prev.Mispredicts,
		Queries:        s.Queries - prev.Queries,
		ROBStallCycles: s.ROBStallCycles - prev.ROBStallCycles,
		LQStallCycles:  s.LQStallCycles - prev.LQStallCycles,
		FrontendCycles: s.FrontendCycles - prev.FrontendCycles,
	}
}

// Core is the incremental OoO timing model. Feed ops in program order;
// state (register readiness, ROB occupancy, frontend position) persists
// across calls so independent work in consecutive requests overlaps, as
// it would in a real pipelined loop.
type Core struct {
	cfg   Config
	mem   MemPort
	query QueryPort

	regReady [isa.NumRegs]uint64

	// retire ring: retireCycle of the last ROBEntries instructions.
	retireRing []uint64
	// loadRing: retire cycles of the last LoadQueueEntries loads (LQ slot
	// frees at retire).
	loadRing []uint64
	// storeRing: ditto for stores.
	storeRing []uint64

	seq        uint64 // dynamic instruction index
	loadSeq    uint64
	storeSeq   uint64
	fetchCycle uint64 // cycle the next fetch group is available
	fetchSlots int    // ops already issued in fetchCycle
	lastRetire uint64
	retireInCy int
	// maxDispatch is the highest dispatch cycle reached so far.
	maxDispatch uint64

	stats Stats
	err   error

	// tr/tracePid route pipeline events (query spans, mispredict
	// instants) onto the core's trace track; nil tr disables them.
	tr       *trace.Tracer
	tracePid int
}

// New builds a core over the given memory and accelerator ports. The
// query port may be nil when the trace contains no QUERY ops (pure
// software baseline).
func New(cfg Config, memPort MemPort, queryPort QueryPort) *Core {
	return &Core{
		cfg:        cfg,
		mem:        memPort,
		query:      queryPort,
		retireRing: make([]uint64, cfg.ROBEntries),
		loadRing:   make([]uint64, cfg.LoadQueueEntries),
		storeRing:  make([]uint64, cfg.StoreQueueEntries),
	}
}

// Err returns the first fault encountered, if any.
func (c *Core) Err() error { return c.err }

// Stats returns a copy of the accumulated statistics. Cycles reflects the
// retire time of the last instruction fed so far.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Cycles = c.lastRetire
	return s
}

// Now returns the cycle at which the last fed instruction retired.
func (c *Core) Now() uint64 { return c.lastRetire }

// frontendSlot returns the cycle the next instruction can be dispatched
// by the frontend and consumes one issue slot.
func (c *Core) frontendSlot() uint64 {
	cy := c.fetchCycle
	c.fetchSlots++
	if c.fetchSlots >= c.cfg.IssueWidth {
		c.fetchCycle++
		c.fetchSlots = 0
	}
	return cy
}

// redirectFrontend models a pipeline redirect (branch misprediction): no
// instruction fetches until cycle target.
func (c *Core) redirectFrontend(target uint64) {
	if target > c.fetchCycle {
		c.stats.FrontendCycles += target - c.fetchCycle
		c.fetchCycle = target
		c.fetchSlots = 0
	}
}

func max2(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Feed executes one micro-op, returning its completion cycle.
func (c *Core) Feed(op *isa.Op) uint64 {
	if c.err != nil {
		return c.lastRetire
	}

	// Frontend: claim an issue slot.
	dispatch := c.frontendSlot()

	// ROB: the instruction ROBEntries older must have retired. A full ROB
	// delays dispatch but not the fetch clock, so later instructions see
	// the same lag again: charge only the cycles by which this stall
	// pushes dispatch past the furthest point already reached.
	robIdx := c.seq % uint64(len(c.retireRing))
	if free := c.retireRing[robIdx]; free > dispatch {
		if reached := max2(dispatch, c.maxDispatch); free > reached {
			c.stats.ROBStallCycles += free - reached
		}
		dispatch = free
	}
	c.maxDispatch = max2(c.maxDispatch, dispatch)

	// Register dependences.
	start := dispatch
	if op.Src1 != 0 {
		start = max2(start, c.regReady[op.Src1])
	}
	if op.Src2 != 0 {
		start = max2(start, c.regReady[op.Src2])
	}

	var complete uint64
	switch op.Kind {
	case isa.Nop:
		complete = start

	case isa.ALU:
		complete = start + c.cfg.ALULatency

	case isa.MulALU:
		complete = start + c.cfg.MulLatency

	case isa.Load:
		c.stats.Loads++
		lqIdx := c.loadSeq % uint64(len(c.loadRing))
		if free := c.loadRing[lqIdx]; free > start {
			c.stats.LQStallCycles += free - start
			start = free
		}
		lat, err := c.mem.Access(op.Addr, false, start)
		if err != nil {
			c.err = err
			return c.lastRetire
		}
		complete = start + lat

	case isa.Store:
		c.stats.Stores++
		sqIdx := c.storeSeq % uint64(len(c.storeRing))
		if free := c.storeRing[sqIdx]; free > start {
			start = free
		}
		// Stores complete at address+data ready; the writeback drains
		// post-retirement. Charge the access now for cache-state effects.
		if _, err := c.mem.Access(op.Addr, true, start); err != nil {
			c.err = err
			return c.lastRetire
		}
		complete = start + 1

	case isa.Branch:
		c.stats.Branches++
		complete = start + c.cfg.ALULatency
		if op.Mispredict {
			c.stats.Mispredicts++
			c.tr.Point("cpu", "mispredict", complete, c.tracePid, trace.TidCorePipe, nil)
			c.redirectFrontend(complete + c.cfg.MispredictPenalty)
		}

	case isa.QueryB:
		c.stats.Queries++
		// Blocking query: like a load — occupies an LQ slot and the ROB
		// until the accelerator returns the result (Sec. IV-C).
		lqIdx := c.loadSeq % uint64(len(c.loadRing))
		if free := c.loadRing[lqIdx]; free > start {
			c.stats.LQStallCycles += free - start
			start = free
		}
		issue := start + c.cfg.QueryIssueCost
		done, err := c.query.IssueBlocking(op.Query, issue)
		if err != nil {
			c.err = err
			return c.lastRetire
		}
		c.tr.Span("cpu", "query_b", issue, done, c.tracePid, trace.TidCorePipe, nil)
		complete = done

	case isa.QueryNB:
		c.stats.Queries++
		sqIdx := c.storeSeq % uint64(len(c.storeRing))
		if free := c.storeRing[sqIdx]; free > start {
			start = free
		}
		issue := start + c.cfg.QueryIssueCost
		accepted, err := c.query.IssueNonBlocking(op.Query, issue)
		if err != nil {
			c.err = err
			return c.lastRetire
		}
		c.tr.Span("cpu", "query_nb", issue, accepted, c.tracePid, trace.TidCorePipe, nil)
		complete = accepted
	}

	if op.Dst != 0 {
		c.regReady[op.Dst] = complete
	}

	// In-order retire, RetireWidth per cycle.
	retire := max2(complete, c.lastRetire)
	if retire == c.lastRetire {
		c.retireInCy++
		if c.retireInCy >= c.cfg.RetireWidth {
			retire++
			c.retireInCy = 0
		}
	} else {
		c.retireInCy = 1
	}
	c.lastRetire = retire
	c.retireRing[robIdx] = retire
	if op.Kind == isa.Load || op.Kind == isa.QueryB {
		c.loadRing[c.loadSeq%uint64(len(c.loadRing))] = retire
		c.loadSeq++
	}
	if op.Kind == isa.Store || op.Kind == isa.QueryNB {
		c.storeRing[c.storeSeq%uint64(len(c.storeRing))] = retire
		c.storeSeq++
	}
	c.seq++
	c.stats.Instructions++
	return complete
}

// Run feeds an entire trace and returns the cycle the last op retired.
func (c *Core) Run(t isa.Trace) uint64 {
	for i := range t {
		c.Feed(&t[i])
		if c.err != nil {
			break
		}
	}
	return c.lastRetire
}
