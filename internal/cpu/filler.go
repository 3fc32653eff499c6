package cpu

import (
	"qei/internal/isa"
	"qei/internal/mem"
)

// A Filler block (isa.Filler) is periodic. Its op kinds repeat every
// lcm(3, 7, load period) ops, and since none of its branches
// mispredicts, its fetch clock advances by exactly one cycle per
// IssueWidth ops. So every period of lcm(IssueWidth, 3, 7, load period)
// ops (a multiple of it of at least 84 ops, so that a period writes
// every register) starts with the fetch slot and the op kind it did a
// period before. runFiller times the block op by op, as Run would time
// its expansion, and compares the pipeline state at each period
// boundary with the one a period earlier, both taken relative to the
// fetch clock. Once they are equal, and the next periods' scratch loads
// each take the one latency all of the last period's took, each next
// period is the last one moved by the fetch clock's advance Δ: each op
// dispatches, completes and retires Δ cycles later and adds the same to
// Stats. So runFiller skips whole periods, adding k·Δ to every clock
// and k times the last period to Stats, and rebuilds the rings and
// register readiness from the last period. This is the steady state of
// interval simulation (Genbrugge et al., HPCA 2010), taken only where
// it is exact. A block that the ROB or its own chain holds back drifts
// behind its fetch clock, never matches, and is timed op by op
// throughout.
//
// A skipped period's loads still reach the memory port, so the caches,
// TLBs and their counters see the same accesses: fillSkip hands the
// port every skipped load at once as a walk of the scratch ring
// (MemPort.ReadRing). A port that finds each load would return the
// template period's latency whatever its cycle, as the machine's does
// when every line and page is L1-resident and no tracer or fault
// injector is attached, applies them in one call. When the template's
// loads took mixed latencies, or the port declines, there is no skip
// and no port call: the block goes on op by op to its next steady
// boundary, so every load's outcome, trace span and fault is the one
// op-by-op timing gives.

// fillScratch is runFiller's state that outlives a period.
type fillScratch struct {
	// lat is the latency of the loads of the period last timed op by
	// op, the template a skip extends; mixed marks a template whose
	// loads took more than one.
	lat   uint64
	mixed bool
	snap  fillSnap
	// delta, dstats and dreg are what the template period advanced the
	// fetch clock, Stats and register numbering by.
	delta  uint64
	dstats Stats
	dreg   int
	// skipped counts the ops skips timed over the core's life; the
	// tests read it.
	skipped int
}

// fillSnap is the pipeline state at the last period boundary, each
// cycle relative to that boundary's fetch clock.
type fillSnap struct {
	fetch                          uint64 // absolute
	maxDispatch, lastRetire, chain uint64
	fetchSlots, retireInCy         int
	reg                            isa.Reg
	stats                          Stats
	// rob and lq hold the rings oldest first. An entry at or before the
	// fetch clock is stored as 0: it cannot delay an op dispatched
	// after the boundary, so its value does not matter to the timing.
	rob, lq []uint64
}

// fillBlock is a block's position: where its next load reads, its
// next fresh register and the cycle its chain register is ready.
type fillBlock struct {
	base             mem.VAddr
	off, step, size  uint64 // next load's offset, advance per load, wrap
	loads            bool
	reg              isa.Reg
	chain            uint64
	every            int // ops per load
	period, perLoads int // ops and loads per period
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

// nextTemp is the register isa.Builder.Temp allocates after r.
func nextTemp(r isa.Reg) isa.Reg {
	if r == isa.NumRegs-1 {
		return 1
	}
	return r + 1
}

// rotateReg is the register isa.Builder.Temp allocates k calls after r.
func rotateReg(r isa.Reg, k int) isa.Reg {
	return isa.Reg((int(r)-1+k)%(isa.NumRegs-1) + 1)
}

// runFiller times the Filler block op: period by period with fillOps,
// skipping whole periods once fillSteady finds the steady state.
func (c *Core) runFiller(op *isa.Op) {
	f := fillBlock{base: op.Addr, off: uint64(op.Off), reg: op.Dst, every: 1}
	if op.Size > 0 && op.Lines > 0 {
		f.every = int(op.Size)
		f.loads, f.step, f.size = true, 8*uint64(op.Size), uint64(op.Lines)*mem.LineSize
	}
	if op.Src1 != 0 {
		f.chain = c.regReady[op.Src1]
	}
	f.period = lcm(lcm(max(c.cfg.IssueWidth, 1), 21), f.every)
	f.period *= (84 + f.period - 1) / f.period
	if f.loads {
		f.perLoads = f.period / f.every
	}

	n := int(op.N)
	snapped := false
	for i := 0; i < n && c.err == nil; {
		m := min(n-i, f.period)
		c.fillOps(&f, m)
		i += m
		if c.err != nil || n-i < f.period {
			continue
		}
		if !c.fillSteady(&f, snapped) {
			snapped = true
			continue
		}
		k := c.fillSkip(&f, (n-i)/f.period)
		c.fillShift(&f, k)
		i += k * f.period
		c.fill.skipped += k * f.period
		snapped = false
	}
}

// fillOps times the block's next m ops, which start at a period
// boundary, with Run's arithmetic, and records their loads' latency as
// the template.
func (c *Core) fillOps(f *fillBlock, m int) {
	cfg := &c.cfg
	issueWidth, retireWidth, aluLat := cfg.IssueWidth, cfg.RetireWidth, cfg.ALULatency
	regReady := &c.regReady
	retireRing, loadRing := c.retireRing, c.loadRing
	robPos, lqPos := c.robPos, c.lqPos
	fetchCycle, fetchSlots := c.fetchCycle, c.fetchSlots
	maxDispatch := c.maxDispatch
	lastRetire, retireInCy := c.lastRetire, c.retireInCy
	st := c.stats
	base, step, size, loads, every := f.base, f.step, f.size, f.loads, f.every
	off, reg, chain := f.off, f.reg, f.chain

	ld, tlat, mixed := 0, uint64(0), false
	// toLoad, to3 and to7 count the ops until the next load, chain op
	// and branch slot, so choosing an op divides by nothing.
	toLoad, to3, to7 := 0, 0, 6
ops:
	for i := 0; i < m; i++ {
		dispatch := fetchCycle
		fetchSlots++
		if fetchSlots >= issueWidth {
			fetchCycle++
			fetchSlots = 0
		}
		if free := retireRing[robPos]; free > dispatch {
			if reached := max(dispatch, maxDispatch); free > reached {
				st.ROBStallCycles += free - reached
			}
			dispatch = free
		}
		maxDispatch = max(maxDispatch, dispatch)

		var complete uint64
		load := loads && toLoad == 0
		switch {
		case load:
			st.Loads++
			start := dispatch
			if free := loadRing[lqPos]; free > start {
				st.LQStallCycles += free - start
				start = free
			}
			lat, err := c.mem.Access(base+mem.VAddr(off), false, start)
			if err != nil {
				c.err = err
				break ops
			}
			if ld == 0 {
				tlat = lat
			}
			mixed = mixed || lat != tlat
			ld++
			for off += step; off >= size; {
				off -= size
			}
			complete = start + lat
			chain = complete
			regReady[reg], reg = complete, nextTemp(reg)
		case to3 == 0:
			complete = max(dispatch, chain) + aluLat
			chain = complete
			regReady[reg], reg = complete, nextTemp(reg)
		case to7 == 0:
			st.Branches++
			complete = max(dispatch, chain) + aluLat
		default:
			complete = dispatch + aluLat
			regReady[reg], reg = complete, nextTemp(reg)
		}

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
		if load {
			loadRing[lqPos] = retire
			if lqPos++; lqPos == len(loadRing) {
				lqPos = 0
			}
		}
		st.Instructions++

		if toLoad--; toLoad < 0 {
			toLoad = every - 1
		}
		if to3--; to3 < 0 {
			to3 = 2
		}
		if to7--; to7 < 0 {
			to7 = 6
		}
	}

	c.stats = st
	c.robPos, c.lqPos = robPos, lqPos
	c.fetchCycle, c.fetchSlots = fetchCycle, fetchSlots
	c.maxDispatch = maxDispatch
	c.lastRetire, c.retireInCy = lastRetire, retireInCy
	f.off, f.reg, f.chain = off, reg, chain
	c.fill.lat, c.fill.mixed = tlat, mixed
}

// fillSteady reports whether the pipeline state at this period
// boundary equals the snapshot taken at the last one (if snapped), both
// relative to their fetch clocks, and replaces the snapshot with it. On
// a match it records what the last period advanced the fetch clock,
// Stats and register numbering by.
func (c *Core) fillSteady(f *fillBlock, snapped bool) bool {
	s := &c.fill
	p := &s.snap
	if p.rob == nil {
		p.rob, p.lq = make([]uint64, len(c.retireRing)), make([]uint64, len(c.loadRing))
	}
	at := c.fetchCycle
	same := snapped && c.fetchSlots == p.fetchSlots && c.retireInCy == p.retireInCy &&
		c.maxDispatch-at == p.maxDispatch && c.lastRetire-at == p.lastRetire && f.chain-at == p.chain
	same = snapRing(p.rob, c.retireRing, c.robPos, at) && same
	same = snapRing(p.lq, c.loadRing, c.lqPos, at) && same
	if same {
		s.delta = at - p.fetch
		s.dstats = c.stats.Sub(p.stats)
		s.dreg = (int(f.reg) - int(p.reg) + isa.NumRegs - 1) % (isa.NumRegs - 1)
	}
	p.fetch, p.fetchSlots, p.retireInCy = at, c.fetchSlots, c.retireInCy
	p.maxDispatch, p.lastRetire, p.chain = c.maxDispatch-at, c.lastRetire-at, f.chain-at
	p.reg, p.stats = f.reg, c.stats
	return same
}

// snapRing stores ring's entries into snap oldest first, from pos,
// relative to at (an entry at or before at as 0), and reports whether
// snap held the same values.
func snapRing(snap, ring []uint64, pos int, at uint64) bool {
	same := true
	j := 0
	for _, part := range [2][]uint64{ring[pos:], ring[:pos]} {
		for _, v := range part {
			var rel uint64
			if v > at {
				rel = v - at
			}
			same = same && snap[j] == rel
			snap[j] = rel
			j++
		}
	}
	return same
}

// fillSkip applies the loads of the k periods after the template
// period and returns how many periods the block skips: k when they
// have no loads or the port takes them all as one ReadRing walk at the
// template's latency, and 0 with no port call when the template's
// loads took mixed latencies or the port declines.
func (c *Core) fillSkip(f *fillBlock, k int) int {
	if f.perLoads == 0 {
		return k
	}
	n := uint64(k * f.perLoads)
	if c.fill.mixed || !c.mem.ReadRing(f.base, f.off, f.step, f.size, n, c.fill.lat) {
		return 0
	}
	f.off = (f.off + n*f.step%f.size) % f.size
	return k
}

// fillShift moves the core and the block k periods on, to the state
// fillOps would reach by timing them: each of them the template period
// moved by delta once more.
func (c *Core) fillShift(f *fillBlock, k int) {
	if k == 0 {
		return
	}
	s := &c.fill
	d := uint64(k) * s.delta
	// The snapshot rings are spent: they hold the rings' history while
	// the rings are rewritten.
	c.robPos = shiftRing(c.retireRing, s.snap.rob, c.robPos, f.period, k, s.delta)
	c.lqPos = shiftRing(c.loadRing, s.snap.lq, c.lqPos, f.perLoads, k, s.delta)
	// The template period wrote every register, so each one's last
	// write k periods on is the same op's, k·dreg temps later.
	old := c.regReady
	rot := k * s.dreg % (isa.NumRegs - 1)
	for r := isa.Reg(1); r < isa.NumRegs; r++ {
		c.regReady[rotateReg(r, rot)] = old[r] + d
	}
	f.reg = rotateReg(f.reg, rot)
	f.chain += d
	c.fetchCycle += d
	c.maxDispatch += d
	c.lastRetire += d
	c.stats.add(s.dstats, uint64(k))
}

// shiftRing appends k periods of adv entries each to ring, whose next
// slot is pos, and returns the new next slot. A period's entries are
// the ring's newest adv (the template period's) plus delta per period
// since. hist is scratch of the ring's length.
func shiftRing(ring, hist []uint64, pos, adv, k int, delta uint64) int {
	n := len(ring)
	if adv == 0 {
		return pos
	}
	copy(hist, ring[pos:])
	copy(hist[n-pos:], ring[:pos])
	next := (pos + k*adv) % n
	// The new ring, oldest first, is the history's newest entries that
	// k·adv appends do not push out, then the newest of the appended.
	at, x := next, 0
	for ; x < n-k*adv; x++ {
		ring[at] = hist[k*adv+x]
		if at++; at == n {
			at = 0
		}
	}
	// g indexes the appended entries; period j's entry o (from 0) is
	// the template's entry o plus j·delta.
	g := k*adv + x - n
	o, j := g%adv, uint64(g/adv+1)
	for ; x < n; x++ {
		ring[at] = hist[n-adv+o] + j*delta
		if at++; at == n {
			at = 0
		}
		if o++; o == adv {
			o, j = 0, j+1
		}
	}
	return next
}
