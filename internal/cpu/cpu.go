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
	// ReadRing performs the n reads of a ring walk, the i-th (from 0) at
	// base + (off + i·step) mod size, with size > 0, if each of them,
	// made by Access in order, would return latency lat and no fault
	// whatever its issue cycle, and reports true. Otherwise it changes
	// nothing and reports false, and the caller makes no skip: it times
	// the ops, the reads among them, one by one.
	ReadRing(base mem.VAddr, off, step, size, n, lat uint64) bool
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

// add adds k times d to s.
func (s *Stats) add(d Stats, k uint64) {
	s.Instructions += k * d.Instructions
	s.Cycles += k * d.Cycles
	s.Loads += k * d.Loads
	s.Stores += k * d.Stores
	s.Branches += k * d.Branches
	s.Mispredicts += k * d.Mispredicts
	s.Queries += k * d.Queries
	s.ROBStallCycles += k * d.ROBStallCycles
	s.LQStallCycles += k * d.LQStallCycles
	s.FrontendCycles += k * d.FrontendCycles
}

// Core is the incremental OoO timing model. Run executes ops in program
// order; state (register readiness, ROB occupancy, frontend position)
// persists across calls so independent work in consecutive requests
// overlaps, as it would in a real pipelined loop.
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
	// robPos, lqPos and sqPos index the ring slot the next instruction,
	// load and store take; each wraps at its ring's length.
	robPos, lqPos, sqPos int

	fetchCycle uint64 // cycle the next fetch group is available
	fetchSlots int    // ops already issued in fetchCycle
	lastRetire uint64
	retireInCy int
	// maxDispatch is the highest dispatch cycle reached so far.
	maxDispatch uint64

	stats Stats
	err   error

	// fill is runFiller's scratch, kept across blocks so a warmed core
	// times filler without a host allocation.
	fill fillScratch

	// tr/tracePid route pipeline events (query spans, mispredict
	// instants) onto the core's trace track; nil tr disables them.
	tr       *trace.Tracer
	tracePid int
}

// New builds a core over the given memory and accelerator ports. The
// query port may be nil when the trace contains no QUERY ops (pure
// software baseline).
func New(cfg Config, memPort MemPort, queryPort QueryPort) *Core {
	c := new(Core)
	c.Reset(cfg, memPort, queryPort)
	return c
}

// Reset puts c in the state New(cfg, memPort, queryPort) builds: empty,
// at cycle 0, with no tracer. It keeps the rings and the filler's
// scratch that fit cfg's sizes, so a core reset for each run of a
// recycled machine allocates nothing; metrics registered over c go on
// reading it.
func (c *Core) Reset(cfg Config, memPort MemPort, queryPort QueryPort) {
	c.cfg, c.mem, c.query = cfg, memPort, queryPort
	c.retireRing = resize(c.retireRing, cfg.ROBEntries)
	c.loadRing = resize(c.loadRing, cfg.LoadQueueEntries)
	c.storeRing = resize(c.storeRing, cfg.StoreQueueEntries)
	snap := c.fill.snap
	c.fill = fillScratch{}
	if len(snap.rob) == cfg.ROBEntries && len(snap.lq) == cfg.LoadQueueEntries {
		clear(snap.rob)
		clear(snap.lq)
		c.fill.snap.rob, c.fill.snap.lq = snap.rob, snap.lq
	}
	c.tr, c.tracePid = nil, 0
	c.Restart(0)
}

// resize returns ring with n entries, reusing its storage if it has n.
func resize(ring []uint64, n int) []uint64 {
	if len(ring) != n {
		return make([]uint64, n)
	}
	return ring
}

// Restart empties the core and moves its clocks to cycle at: the next
// Run times its trace exactly as on a fresh core, shifted to start at
// at, so its memory accesses carry the cycles they happen at. Stats and
// Err start over.
func (c *Core) Restart(at uint64) {
	clear(c.regReady[:])
	clear(c.retireRing)
	clear(c.loadRing)
	clear(c.storeRing)
	c.robPos, c.lqPos, c.sqPos = 0, 0, 0
	c.fetchCycle, c.fetchSlots = at, 0
	c.lastRetire, c.retireInCy = at, 0
	c.maxDispatch = at
	c.stats, c.err = Stats{}, nil
}

// Err returns the first fault encountered, if any.
func (c *Core) Err() error { return c.err }

// Stats returns a copy of the accumulated statistics. Cycles reflects the
// retire time of the last instruction run so far.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Cycles = c.lastRetire
	return s
}

// Now returns the cycle at which the last instruction run retired.
func (c *Core) Now() uint64 { return c.lastRetire }

// Run executes t in program order and returns the cycle the last op
// retired. The first fault stops the run: Err reports it, Instructions
// counts only the ops before the faulting one, and every later Run
// returns at once.
//
// run times every op kind but Filler, and runFiller times Filler
// blocks; each keeps the frontend, dispatch and retire clocks, the ring
// positions and Stats in locals for the length of its call and writes
// them back once on return, a fault included. That is sound because
// nothing reads the core while either is on the stack: the memory and
// query ports and the tracer never reach back into it, and metric
// closures are read only between calls.
func (c *Core) Run(t isa.Trace) uint64 {
	for len(t) > 0 && c.err == nil {
		n := c.run(t)
		if n < len(t) && c.err == nil {
			c.runFiller(&t[n])
			n++
		}
		t = t[n:]
	}
	return c.lastRetire
}

// run times t's ops up to the first Filler block or fault and returns
// how many it retired.
func (c *Core) run(t isa.Trace) int {
	cfg := &c.cfg
	issueWidth, retireWidth := cfg.IssueWidth, cfg.RetireWidth
	aluLat, mulLat := cfg.ALULatency, cfg.MulLatency
	regReady := &c.regReady
	retireRing, loadRing, storeRing := c.retireRing, c.loadRing, c.storeRing
	robPos, lqPos, sqPos := c.robPos, c.lqPos, c.sqPos
	fetchCycle, fetchSlots := c.fetchCycle, c.fetchSlots
	maxDispatch := c.maxDispatch
	lastRetire, retireInCy := c.lastRetire, c.retireInCy
	st := c.stats

	n := 0
loop:
	for ; n < len(t); n++ {
		op := &t[n]
		if op.Kind == isa.Filler {
			break
		}

		// Frontend: claim an issue slot.
		dispatch := fetchCycle
		fetchSlots++
		if fetchSlots >= issueWidth {
			fetchCycle++
			fetchSlots = 0
		}

		// ROB: the instruction ROBEntries older must have retired. A full
		// ROB delays dispatch but not the fetch clock, so later
		// instructions see the same lag again: charge only the cycles by
		// which this stall pushes dispatch past the furthest point
		// already reached.
		if free := retireRing[robPos]; free > dispatch {
			if reached := max(dispatch, maxDispatch); free > reached {
				st.ROBStallCycles += free - reached
			}
			dispatch = free
		}
		maxDispatch = max(maxDispatch, dispatch)

		// Register dependences.
		start := dispatch
		if op.Src1 != 0 {
			start = max(start, regReady[op.Src1])
		}
		if op.Src2 != 0 {
			start = max(start, regReady[op.Src2])
		}

		var complete uint64
		switch op.Kind {
		case isa.Nop:
			complete = start

		case isa.ALU:
			complete = start + aluLat

		case isa.MulALU:
			complete = start + mulLat

		case isa.Load:
			st.Loads++
			if free := loadRing[lqPos]; free > start {
				st.LQStallCycles += free - start
				start = free
			}
			lat, err := c.mem.Access(op.Addr, false, start)
			if err != nil {
				c.err = err
				break loop
			}
			complete = start + lat

		case isa.Store:
			st.Stores++
			if free := storeRing[sqPos]; free > start {
				start = free
			}
			// Stores complete at address+data ready; the writeback drains
			// post-retirement. Charge the access now for cache-state
			// effects.
			if _, err := c.mem.Access(op.Addr, true, start); err != nil {
				c.err = err
				break loop
			}
			complete = start + 1

		case isa.Branch:
			st.Branches++
			complete = start + aluLat
			if op.Mispredict {
				st.Mispredicts++
				c.tr.Point("cpu", "mispredict", complete, c.tracePid, trace.TidCorePipe, nil)
				// Redirect: no instruction fetches until the penalty
				// has passed.
				if target := complete + cfg.MispredictPenalty; target > fetchCycle {
					st.FrontendCycles += target - fetchCycle
					fetchCycle = target
					fetchSlots = 0
				}
			}

		case isa.QueryB:
			st.Queries++
			// Blocking query: like a load — occupies an LQ slot and the
			// ROB until the accelerator returns the result (Sec. IV-C).
			if free := loadRing[lqPos]; free > start {
				st.LQStallCycles += free - start
				start = free
			}
			issue := start + cfg.QueryIssueCost
			done, err := c.query.IssueBlocking(op.Query, issue)
			if err != nil {
				c.err = err
				break loop
			}
			c.tr.Span("cpu", "query_b", issue, done, c.tracePid, trace.TidCorePipe, nil)
			complete = done

		case isa.QueryNB:
			st.Queries++
			if free := storeRing[sqPos]; free > start {
				start = free
			}
			issue := start + cfg.QueryIssueCost
			accepted, err := c.query.IssueNonBlocking(op.Query, issue)
			if err != nil {
				c.err = err
				break loop
			}
			c.tr.Span("cpu", "query_nb", issue, accepted, c.tracePid, trace.TidCorePipe, nil)
			complete = accepted
		}

		if op.Dst != 0 {
			regReady[op.Dst] = complete
		}

		// In-order retire, RetireWidth per cycle.
		retire := max(complete, lastRetire)
		if retire == lastRetire {
			retireInCy++
			if retireInCy >= retireWidth {
				retire++
				retireInCy = 0
			}
		} else {
			retireInCy = 1
		}
		lastRetire = retire
		retireRing[robPos] = retire
		if robPos++; robPos == len(retireRing) {
			robPos = 0
		}
		switch op.Kind {
		case isa.Load, isa.QueryB:
			loadRing[lqPos] = retire
			if lqPos++; lqPos == len(loadRing) {
				lqPos = 0
			}
		case isa.Store, isa.QueryNB:
			storeRing[sqPos] = retire
			if sqPos++; sqPos == len(storeRing) {
				sqPos = 0
			}
		}
	}

	st.Instructions += uint64(n)
	c.stats = st
	c.robPos, c.lqPos, c.sqPos = robPos, lqPos, sqPos
	c.fetchCycle, c.fetchSlots = fetchCycle, fetchSlots
	c.maxDispatch = maxDispatch
	c.lastRetire, c.retireInCy = lastRetire, retireInCy
	return n
}
