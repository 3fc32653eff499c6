// Package qei implements the QEI accelerator microarchitecture of
// Sec. IV: the Query State Table (QST) holding in-flight queries, the
// CFA Execution Engine (CEE) interpreting per-type firmware from package
// cfa, and the Data Processing Unit (DPU) with its ALUs, hashing unit,
// and comparators — including the remote comparators distributed into
// the CHAs by the Core-integrated and CHA-based schemes (Sec. V-A).
//
// Timing is compositional, matching the cpu package: IssueBlocking and
// IssueNonBlocking take the cycle at which the core hands over the query
// and return the cycle at which the result comes back (or is accepted).
// Internally the accelerator books shared resources — QST slots, the
// one-transition-per-cycle CEE, comparator sites — through monotonic
// next-free timelines, which models the paper's "pipelined CFAs in an
// out-of-order fashion": while one query waits on memory, the CEE works
// on another whose data is ready (Sec. IV-B).
package qei

import (
	"encoding/binary"
	"errors"
	"fmt"

	"qei/internal/cache"
	"qei/internal/cfa"
	"qei/internal/dstruct"
	"qei/internal/faultinject"
	"qei/internal/isa"
	"qei/internal/machine"
	"qei/internal/mem"
	"qei/internal/noc"
	"qei/internal/scheme"
	"qei/internal/tlb"
	"qei/internal/trace"
)

// Sentinel errors for the architectural failure modes software is
// expected to handle (List 2's poll loop reissues on both).
var (
	// ErrQSTFull reports that every QST entry is occupied at issue time;
	// software should drain a completion and retry (Sec. IV-B).
	ErrQSTFull = errors.New("qei: QST full")
	// ErrAborted reports a non-blocking query flushed by an interrupt
	// before completing; software should reissue it (Sec. IV-D).
	ErrAborted = errors.New("qei: query aborted by interrupt flush")
	// ErrQueryTimeout reports a query aborted by the per-query cycle
	// budget watchdog (or the transition-count backstop): the CFA walk
	// was stuck or looping. Software should treat the structure as
	// suspect and fall back to the software path.
	ErrQueryTimeout = errors.New("qei: query exceeded its cycle budget")
	// ErrStructCorrupt reports that the guest data structure was
	// inconsistent — a pointer into unmapped memory, a pointer cycle, or
	// bytes the firmware could not interpret. The accelerator surfaces it
	// architecturally instead of wandering or crashing (Sec. IV-D).
	ErrStructCorrupt = errors.New("qei: guest data structure corrupt")
)

// errSpurious is the accelerator-internal soft error raised by fault
// injection on a CFA transition; it is transient by construction and the
// retry path clears it.
var errSpurious = errors.New("qei: spurious CFA exception")

// retryLimit bounds how many times a faulting query is retried from the
// root before the fault is surfaced architecturally (Sec. IV-D allows
// replay; unbounded replay would hide persistent corruption).
const retryLimit = 2

// retryBackoffBase is the cycle backoff before the first retry; it
// doubles per attempt, giving transient conditions time to clear.
const retryBackoffBase = 64

// Stats accumulates accelerator activity for performance and power
// analysis.
type Stats struct {
	Queries        uint64
	NonBlocking    uint64
	Transitions    uint64 // CEE state-handler invocations
	MemOps         uint64 // memory micro-ops
	MemLines       uint64 // cachelines fetched
	LocalCompares  uint64
	RemoteCompares uint64
	CompareBytes   uint64
	HashOps        uint64
	ALUOps         uint64
	Exceptions     uint64
	Flushes        uint64
	AbortedNB      uint64
	// Retries counts retry-from-root re-executions after transient
	// (injected) faults; Timeouts counts watchdog expirations.
	Retries  uint64
	Timeouts uint64
	// QSTStallCycles accumulates cycles queries waited for a free entry.
	QSTStallCycles uint64
	// BusyEntryCycles sums per-query residency; divided by makespan it
	// gives average QST occupancy.
	BusyEntryCycles uint64
	FirstIssue      uint64
	LastFinish      uint64
	// TranslationCycles sums address-translation latency charged.
	TranslationCycles uint64
	// DataAccessCycles sums data-path latency charged.
	DataAccessCycles uint64
	// Level-wise batch engine counters (ExecuteBatch).
	BatchBatches uint64 // batched instructions executed
	BatchQueries uint64 // queries resolved inside a batch
	BatchLevels  uint64 // level-wise rounds executed
	// BatchTranslationsSaved counts per-query page touches that reused a
	// translation another query in the batch already paid for.
	BatchTranslationsSaved uint64
	// BatchLinesDeduped counts node-line fetches coalesced because
	// another query needed the same line in the same round.
	BatchLinesDeduped uint64
	// BatchCoalescedProbes counts duplicate keys folded onto a
	// representative walk instead of probing on their own.
	BatchCoalescedProbes uint64
	// BatchDeferred counts queries the batch engine handed back to the
	// per-query path (faults, watchdog, structural anomalies).
	BatchDeferred uint64
}

// Occupancy returns the average number of busy QST entries over the
// accelerator's active window.
func (s Stats) Occupancy() float64 {
	if s.LastFinish <= s.FirstIssue {
		return 0
	}
	return float64(s.BusyEntryCycles) / float64(s.LastFinish-s.FirstIssue)
}

// Sub returns the counter difference s - prev for windowed measurement.
// The FirstIssue/LastFinish window is left at the later snapshot's span
// beyond the earlier one.
func (s Stats) Sub(prev Stats) Stats {
	d := Stats{
		Queries:           s.Queries - prev.Queries,
		NonBlocking:       s.NonBlocking - prev.NonBlocking,
		Transitions:       s.Transitions - prev.Transitions,
		MemOps:            s.MemOps - prev.MemOps,
		MemLines:          s.MemLines - prev.MemLines,
		LocalCompares:     s.LocalCompares - prev.LocalCompares,
		RemoteCompares:    s.RemoteCompares - prev.RemoteCompares,
		CompareBytes:      s.CompareBytes - prev.CompareBytes,
		HashOps:           s.HashOps - prev.HashOps,
		ALUOps:            s.ALUOps - prev.ALUOps,
		Exceptions:        s.Exceptions - prev.Exceptions,
		Flushes:           s.Flushes - prev.Flushes,
		AbortedNB:         s.AbortedNB - prev.AbortedNB,
		Retries:           s.Retries - prev.Retries,
		Timeouts:          s.Timeouts - prev.Timeouts,
		QSTStallCycles:    s.QSTStallCycles - prev.QSTStallCycles,
		BusyEntryCycles:   s.BusyEntryCycles - prev.BusyEntryCycles,
		TranslationCycles: s.TranslationCycles - prev.TranslationCycles,
		DataAccessCycles:  s.DataAccessCycles - prev.DataAccessCycles,
		FirstIssue:        prev.LastFinish,
		LastFinish:        s.LastFinish,

		BatchBatches:           s.BatchBatches - prev.BatchBatches,
		BatchQueries:           s.BatchQueries - prev.BatchQueries,
		BatchLevels:            s.BatchLevels - prev.BatchLevels,
		BatchTranslationsSaved: s.BatchTranslationsSaved - prev.BatchTranslationsSaved,
		BatchLinesDeduped:      s.BatchLinesDeduped - prev.BatchLinesDeduped,
		BatchCoalescedProbes:   s.BatchCoalescedProbes - prev.BatchCoalescedProbes,
		BatchDeferred:          s.BatchDeferred - prev.BatchDeferred,
	}
	return d
}

// Result is the architectural outcome of one query, delivered through
// the Result Queue (blocking) or the result memory address
// (non-blocking).
type Result struct {
	Found bool
	Value uint64
	// Matches holds trie-scan outputs.
	Matches []uint64
	// Fault carries the exception reported to software (Sec. IV-D).
	Fault error
	// Done is the completion cycle.
	Done uint64
	// Aborted marks non-blocking queries flushed by an interrupt.
	Aborted bool
}

// instance is one accelerator instance (one per CHA for the CHA-based
// schemes, one per core for Core-integrated, one chip-wide for devices).
type instance struct {
	idx     int // position in Accelerator.inst (shared by views)
	stop    noc.Stop
	qstRing []uint64 // completion cycle of entry (seq % size)
	qstSeq  uint64
	// lastCEECycle is the most recent cycle a transition was issued, used
	// to charge a conflict cycle when two entries contend for the CEE.
	lastCEECycle uint64
	tlb          *tlb.TLB    // dedicated TLB (TransDedicated), else nil
	walker       *tlb.Walker // page walker for the dedicated TLB
}

// Accelerator is a QEI accelerator complex configured for one
// integration scheme.
type Accelerator struct {
	m    *machine.Machine
	p    scheme.Params
	reg  *cfa.Registry
	core int // serving core (single-threaded evaluation, Sec. VI-B)

	inst []*instance
	// comparator next-free timelines: [site][unit]. Site = LLC slice for
	// remote comparators, instance index for local DPU comparators.
	remoteComp [][]uint64
	localComp  [][]uint64

	results map[uint64]Result
	// nbInFlight tracks non-blocking queries for interrupt flushes.
	// nbEarliest is a lower bound on every record's done cycle: an
	// issue raises nothing above it, and Forget and Flush only remove
	// records, which cannot break it. The zero value is a valid bound.
	nbInFlight map[uint64]nbRecord
	nbEarliest uint64

	// tr is the unified event tracer (SetTracer); nil disables emission.
	tr *trace.Tracer
	// remoteOps counts remote compares per LLC slice, published as
	// cha<i>/cmp/remote_ops (RegisterMetrics); views share it.
	remoteOps []uint64

	// fi is the fault-injection harness, armed only inside execute so
	// host-side code stays exact; nil disables injection entirely.
	fi *faultinject.Injector
	// cycleBudget is the per-attempt watchdog limit; 0 disables it.
	cycleBudget uint64

	// sc is the per-attempt working set (page cache, staged-line set,
	// key buffer), reused across queries — the accelerator computes one
	// attempt at a time. oneOffSc backs dataAccess calls that need an
	// empty page cache (result writes), so they keep the exact timing of
	// a cold translation. pickQ stages the key pickInstance hashes at
	// issue time. batch is the level-wise engine's working storage.
	sc       scratch
	oneOffSc scratch
	pickQ    cfa.Query
	batch    batchPool

	stats Stats
}

// noEntry is the one-entry-cache sentinel: no virtual page or line
// address reaches ^0 (pages are addr>>12, lines are 64-byte-aligned
// addresses below the allocator's brk).
const noEntry = ^uint64(0)

// scratch is the working set of one execution attempt, owned by the
// accelerator and reused from attempt to attempt. Its two sets are
// stampMaps, so starting an attempt costs O(1) however many lines the
// largest attempt staged, and one-entry caches in front of them catch
// the page/line locality of structure walks — consecutive accesses
// overwhelmingly hit the page and line just touched. Neither set is
// ever iterated, so reuse cannot perturb determinism.
type scratch struct {
	// pages caches completed translations: virtual page -> physical page
	// base (QEI keeps the current translation in the QST entry, so
	// consecutive lines on one page translate once).
	pages    stampMap
	lastPage uint64
	lastBase mem.PAddr
	// fetched records virtual lines staged into the QST data field.
	fetched  stampMap
	lastLine uint64
	// q and walk are the attempt's staged query and its guarded CFA
	// walk; q keeps its key, ops and compare buffers across attempts.
	q    cfa.Query
	walk cfa.Walk
}

// reset prepares the scratch for a new attempt.
func (s *scratch) reset() {
	s.pages.reset()
	s.fetched.reset()
	s.lastPage = noEntry
	s.lastLine = noEntry
}

// lookupPage consults the one-entry cache, then the set.
func (s *scratch) lookupPage(page uint64) (mem.PAddr, bool) {
	if page == s.lastPage {
		return s.lastBase, true
	}
	base, ok := s.pages.get(page)
	if ok {
		s.lastPage, s.lastBase = page, mem.PAddr(base)
	}
	return mem.PAddr(base), ok
}

// storePage records a completed translation.
func (s *scratch) storePage(page uint64, base mem.PAddr) {
	s.pages.put(page, uint64(base))
	s.lastPage, s.lastBase = page, base
}

// markFetched records a staged line.
func (s *scratch) markFetched(line uint64) {
	s.fetched.add(line)
	s.lastLine = line
}

// wasFetched reports whether a line is staged.
func (s *scratch) wasFetched(line uint64) bool {
	return line == s.lastLine || s.fetched.has(line)
}

// New builds an accelerator for the given machine, scheme, firmware
// registry, and serving core.
func New(m *machine.Machine, p scheme.Params, reg *cfa.Registry, core int) *Accelerator {
	a := &Accelerator{
		m: m, p: p, reg: reg, core: core,
		results:    make(map[uint64]Result),
		nbInFlight: make(map[uint64]nbRecord),
	}
	for i := 0; i < p.Instances; i++ {
		ins := &instance{
			idx:     i,
			qstRing: make([]uint64, p.QSTEntriesPerInstance),
		}
		switch p.Placement {
		case scheme.PlaceCore:
			ins.stop = m.Hier.CoreStop(core)
		case scheme.PlaceTile:
			ins.stop = noc.Stop(i)
		case scheme.PlaceDevice:
			ins.stop = noc.Stop(m.Mesh.Stops() - 1)
		}
		if p.Translation == scheme.TransDedicated {
			ins.tlb = tlb.New(p.DedicatedTLB)
			ins.walker = tlb.NewWalker(m.AS, m.Desc.PageWalkLatency)
		}
		a.inst = append(a.inst, ins)
	}
	a.remoteComp = make([][]uint64, m.Hier.LLC().Slices())
	a.remoteOps = make([]uint64, len(a.remoteComp))
	for i := range a.remoteComp {
		a.remoteComp[i] = make([]uint64, p.ComparatorsPerSite)
	}
	a.localComp = make([][]uint64, p.Instances)
	for i := range a.localComp {
		a.localComp[i] = make([]uint64, p.ComparatorsPerSite)
	}
	return a
}

// ViewForCore returns an accelerator view bound to another issuing core.
// The view SHARES the underlying hardware — QST instances, CEE
// timelines, dedicated TLBs, and comparators — so queries from multiple
// cores contend for the same resources, but it keeps its own result
// bookkeeping and statistics. This models the CHA-based and Device-based
// schemes, whose accelerators are chip-shared (Sec. V); the
// Core-integrated scheme instead instantiates a private accelerator per
// core (use New per core).
func (a *Accelerator) ViewForCore(core int) *Accelerator {
	return &Accelerator{
		m: a.m, p: a.p, reg: a.reg, core: core,
		inst:        a.inst,
		remoteComp:  a.remoteComp,
		localComp:   a.localComp,
		tr:          a.tr,
		remoteOps:   a.remoteOps,
		fi:          a.fi,
		cycleBudget: a.cycleBudget,
		results:     make(map[uint64]Result),
		nbInFlight:  make(map[uint64]nbRecord),
	}
}

// SetFaultInjector attaches the fault-injection harness. The engine arms
// it for the duration of execute — covering QST/CEE work and every
// memory, NoC, TLB, and cache access the query makes — and disarms it
// around host-visible bookkeeping. Dedicated per-instance TLBs
// (CHA-TLB scheme) are wired here; the shared machine components are
// wired by machine.AttachFaultInjection.
func (a *Accelerator) SetFaultInjector(fi *faultinject.Injector) {
	a.fi = fi
	for _, ins := range a.inst {
		if ins.tlb != nil {
			ins.tlb.SetFaultInjector(fi)
		}
	}
}

// SetCycleBudget sets the per-attempt watchdog limit in cycles; once an
// execution attempt has burned that many cycles it aborts with
// ErrQueryTimeout. 0 (the default) disables the watchdog.
func (a *Accelerator) SetCycleBudget(budget uint64) { a.cycleBudget = budget }

// Params returns the scheme configuration.
func (a *Accelerator) Params() scheme.Params { return a.p }

// Stats returns accumulated statistics.
func (a *Accelerator) Stats() Stats { return a.stats }

// Result returns the architectural result recorded for tag.
func (a *Accelerator) Result(tag uint64) (Result, bool) {
	r, ok := a.results[tag]
	return r, ok
}

// Forget drops everything the accelerator still records for tag, its
// result and its non-blocking flush record. Software calls it once it
// has consumed the result, so the records of a long-running accelerator
// stay bounded by the queries in flight.
func (a *Accelerator) Forget(tag uint64) {
	delete(a.results, tag)
	delete(a.nbInFlight, tag)
}

// pickInstance distributes queries across instances. Following HALO's
// NUCA-aware dispatch, CHA schemes route each query to the instance in
// the CHA that owns the query's first data access — the primary bucket
// for hash structures, the root node otherwise — so that access is
// slice-local. The issuing core can compute this cheaply: for hash
// structures it is the same hash the query needs anyway. Single-instance
// schemes always use instance 0.
func (a *Accelerator) pickInstance(q *isa.QueryDesc) *instance {
	if len(a.inst) == 1 {
		return a.inst[0]
	}
	target := a.firstDataAddr(q)
	pa, err := a.m.AS.Translate(target)
	if err != nil {
		return a.inst[0]
	}
	return a.inst[a.m.Hier.LLC().SliceFor(pa)%len(a.inst)]
}

// firstDataAddr computes the first structure address a query touches.
func (a *Accelerator) firstDataAddr(qd *isa.QueryDesc) mem.VAddr {
	q := &a.pickQ
	_, err := cfa.Stage(a.reg, a.m.AS, qd.HeaderAddr, qd.KeyAddr, int(qd.KeyLen), q)
	if err != nil {
		return qd.KeyAddr
	}
	switch hdr := q.Header; hdr.Type {
	case dstruct.TypeCuckoo:
		h1, _ := dstruct.CuckooHashes(q.Key, hdr.Aux2, hdr.Aux)
		return dstruct.EntryAddr(hdr, h1, 0)
	case dstruct.TypeHashTable:
		return dstruct.HashBucketSlot(hdr, q.Key)
	default:
		if hdr.Root != 0 {
			return hdr.Root
		}
		return qd.KeyAddr
	}
}

// IssueBlocking implements cpu.QueryPort: QUERY_B behaves like a
// long-latency load (Sec. IV-C).
func (a *Accelerator) IssueBlocking(q *isa.QueryDesc, issue uint64) (uint64, error) {
	ins := a.pickInstance(q)
	arrive := issue + a.p.PortOverhead + a.requestHop(ins, 16, issue+a.p.PortOverhead)
	finish := a.execute(ins, q, arrive)
	ret := finish + a.p.ReplyOverhead + a.responseHop(ins, 16, finish+a.p.ReplyOverhead)
	if r, ok := a.results[q.Tag]; ok {
		r.Done = ret
		a.results[q.Tag] = r
	}
	return ret, nil
}

// IssueNonBlocking implements cpu.QueryPort: QUERY_NB behaves like a
// store and retires once the accelerator accepts it; the result is
// written to q.ResultAddr when the query completes (Sec. IV-A).
func (a *Accelerator) IssueNonBlocking(q *isa.QueryDesc, issue uint64) (uint64, error) {
	if q.ResultAddr == 0 {
		return 0, fmt.Errorf("qei: non-blocking query %d without result address", q.Tag)
	}
	ins := a.pickInstance(q)
	arrive := issue + a.p.PortOverhead + a.requestHop(ins, 24, issue+a.p.PortOverhead)
	accepted := arrive + 1
	a.stats.NonBlocking++
	finish := a.execute(ins, q, arrive)
	// Write the result (flag+value, one line) to the designated address.
	r := a.results[q.Tag]
	wlat, err := a.dataAccess(ins, q.ResultAddr, cache.Write, finish, nil)
	if err == nil {
		a.writeResult(q.ResultAddr, r)
	}
	r.Done = finish + wlat
	a.results[q.Tag] = r
	a.nbInFlight[q.Tag] = nbRecord{done: r.Done, resultAddr: q.ResultAddr}
	if r.Done < a.nbEarliest {
		a.nbEarliest = r.Done
	}
	return accepted, nil
}

// nbRecord tracks one in-flight non-blocking query for interrupt flushes.
type nbRecord struct {
	done       uint64
	resultAddr mem.VAddr
}

// Capacity returns the total number of QST entries across instances —
// the architectural bound on outstanding non-blocking queries.
func (a *Accelerator) Capacity() int {
	return a.p.QSTEntriesPerInstance * a.p.Instances
}

// inFlightNB counts non-blocking queries still executing at cycle at.
// While at is below nbEarliest every record is still executing, so the
// count is the map's size; otherwise it walks the map once, pruning the
// records of completed queries and making nbEarliest exact again, so at
// non-decreasing cycles the next walk waits until at reaches the
// earliest completion still recorded.
func (a *Accelerator) inFlightNB(at uint64) int {
	if at < a.nbEarliest {
		return len(a.nbInFlight)
	}
	a.nbEarliest = ^uint64(0)
	for tag, rec := range a.nbInFlight {
		if rec.done <= at {
			delete(a.nbInFlight, tag)
		} else if rec.done < a.nbEarliest {
			a.nbEarliest = rec.done
		}
	}
	return len(a.nbInFlight)
}

// TryIssueNonBlocking is IssueNonBlocking with the architectural QST
// bound enforced at issue time: when every entry is still occupied it
// fails fast with ErrQSTFull instead of modelling back-pressure as
// waiting, so software can run the List-2 drain-and-retry loop. Fewer
// records than entries admit without counting, so the check costs O(1)
// unless the QST may be full.
func (a *Accelerator) TryIssueNonBlocking(q *isa.QueryDesc, issue uint64) (uint64, error) {
	if len(a.nbInFlight) >= a.Capacity() && a.inFlightNB(issue) >= a.Capacity() {
		return 0, fmt.Errorf("%w: %d queries outstanding at cycle %d", ErrQSTFull, a.Capacity(), issue)
	}
	return a.IssueNonBlocking(q, issue)
}

// writeResult stores the 16-byte flag+value record polling software
// reads at addr: flag 1 on completion, 3 on a hit, 0xEE on a fault.
func (a *Accelerator) writeResult(addr mem.VAddr, r Result) {
	flag := uint64(1)
	if r.Fault != nil {
		flag = 0xEE
	} else if r.Found {
		flag = 3
	}
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:8], flag)
	binary.LittleEndian.PutUint64(buf[8:16], r.Value)
	a.m.AS.MustWrite(addr, buf[:])
}

// requestHop charges the NoC transfer from the serving core to the
// instance at cycle at (zero-distance for a core-placed QST, which sits
// by the L2).
func (a *Accelerator) requestHop(ins *instance, bytes, at uint64) uint64 {
	if a.p.Placement == scheme.PlaceCore {
		return 0
	}
	return a.m.Mesh.SendAt(a.m.Hier.CoreStop(a.core), ins.stop, bytes, at)
}

func (a *Accelerator) responseHop(ins *instance, bytes, at uint64) uint64 {
	if a.p.Placement == scheme.PlaceCore {
		return 0
	}
	return a.m.Mesh.SendAt(ins.stop, a.m.Hier.CoreStop(a.core), bytes, at)
}

// translate resolves a virtual address on the scheme's translation path
// starting at cycle at, using the attempt's page cache (QEI keeps the
// current translation in the QST entry, so consecutive lines on one page
// translate once).
func (a *Accelerator) translate(ins *instance, addr mem.VAddr, at uint64, sc *scratch) (mem.PAddr, uint64, error) {
	page := addr.Page()
	if base, ok := sc.lookupPage(page); ok {
		return base | mem.PAddr(addr.Offset()), 0, nil
	}
	var pa mem.PAddr
	var lat uint64
	var err error
	switch a.p.Translation {
	case scheme.TransL2TLB:
		pa, lat, err = a.m.TLB[a.core].TranslateL2(addr, at)
	case scheme.TransDedicated:
		if hit, hl := ins.tlb.Lookup(addr); hit {
			pa, err = a.m.AS.Translate(addr)
			lat = hl
		} else {
			var wl uint64
			probe := ins.tlb.Config().HitLatency
			pa, wl, err = ins.walker.Walk(addr, at+probe)
			lat = probe + wl
			if err == nil {
				ins.tlb.Insert(addr)
			}
		}
	case scheme.TransCoreMMU:
		// Round trip to the core's MMU across the mesh plus the MMU's
		// request-port handling, then its L2-TLB path (Sec. V: "adds
		// extra round-trip latency to each access and eats into the
		// performance benefits").
		const mmuPortCost = 12
		rt := a.m.Mesh.RoundTrip(ins.stop, a.m.Hier.CoreStop(a.core)) + mmuPortCost
		pa, lat, err = a.m.TLB[a.core].TranslateL2(addr, at+rt)
		lat += rt
	}
	if err != nil {
		return 0, lat, err
	}
	sc.storePage(page, pa&^(mem.PageSize-1))
	a.stats.TranslationCycles += lat
	return pa, lat, nil
}

// dataAccess performs one cacheline access on the scheme's data path and
// returns its latency. sc may be nil for one-off accesses, which then
// run against an empty page cache (cold-translation timing).
func (a *Accelerator) dataAccess(ins *instance, addr mem.VAddr, kind cache.AccessKind, at uint64, sc *scratch) (uint64, error) {
	if sc == nil {
		a.oneOffSc.reset()
		sc = &a.oneOffSc
	}
	pa, tlat, err := a.translate(ins, addr, at, sc)
	if err != nil {
		return tlat, err
	}
	var r cache.Result
	switch a.p.Data {
	case scheme.DataViaL2:
		r = a.m.Hier.L2Access(a.core, pa, kind, at+tlat)
	case scheme.DataViaLLC:
		r = a.m.Hier.LLCAccessFrom(ins.stop, pa, kind, at+tlat)
	}
	lat := tlat + r.Latency + a.p.ExtraDataLatency
	a.stats.DataAccessCycles += r.Latency + a.p.ExtraDataLatency
	return lat, nil
}

// bookComparator reserves a comparator unit at site, returning when the
// compare may start given its operands are ready at t.
//
// The simulator computes overlapping queries one at a time, so a strict
// monotonic next-free timeline would let an early-computed query reserve
// slots far in the future and falsely serialize everything behind it.
// Contention is instead modelled locally: if every unit at the site is
// busy in the window around t, the compare queues for one busy period —
// a bounded penalty that matches the sparse per-query comparator usage.
func bookComparator(units []uint64, t, busy uint64) uint64 {
	best := -1
	for i := range units {
		if units[i] <= t {
			if best == -1 || units[i] < units[best] {
				best = i
			}
		}
	}
	if best >= 0 {
		units[best] = t + busy
		return t
	}
	// All units busy at t: wait one busy period on the unit that frees
	// soonest within the window.
	best = 0
	for i := 1; i < len(units); i++ {
		if units[i] < units[best] {
			best = i
		}
	}
	start := t + busy
	units[best] = start + busy
	return start
}

// compareCycles is the comparator cost: 64-bit comparisons per cycle
// (Sec. IV-B).
func compareCycles(bytes uint64) uint64 {
	c := (bytes + 7) / 8
	if c == 0 {
		c = 1
	}
	return c
}

// execute runs one query through the QST/CEE/DPU starting at arrival
// cycle t0, returning the completion cycle at the accelerator. It owns
// the architectural recovery loop: an attempt that faults while fault
// injection fired is transient, and the QST entry retries the walk from
// the root with exponential cycle backoff (Sec. IV-D replayability);
// persistent faults surface architecturally after retryLimit attempts.
func (a *Accelerator) execute(ins *instance, qd *isa.QueryDesc, t0 uint64) uint64 {
	a.stats.Queries++
	if a.stats.FirstIssue == 0 || t0 < a.stats.FirstIssue {
		a.stats.FirstIssue = t0
	}

	// QST allocation: wait for the oldest entry to free (Sec. IV-B —
	// software must not overflow the QST; the engine models back-pressure
	// as waiting).
	slot := ins.qstSeq % uint64(len(ins.qstRing))
	start := t0
	if free := ins.qstRing[slot]; free > start {
		a.stats.QSTStallCycles += free - start
		start = free
	}
	ins.qstSeq++

	// Fault injection fires only while the accelerator itself runs, so
	// structure builders, software walks, and result polling stay
	// exact.
	a.fi.Arm()
	defer a.fi.Disarm()

	t := start
	var res Result
	for attempt := 0; ; attempt++ {
		injBefore := a.fi.Injected()
		res, t = a.attempt(ins, qd, t)
		if res.Fault == nil {
			break
		}
		// A fault with injections during the attempt is transient; retry
		// from the root after a backoff. Faults with no injection are
		// persistent (bad pointer, bad firmware) — retrying cannot help.
		if a.fi.Injected() == injBefore || attempt >= retryLimit {
			a.stats.Exceptions++
			if errors.Is(res.Fault, ErrQueryTimeout) {
				a.stats.Timeouts++
			}
			break
		}
		a.stats.Retries++
		t += retryBackoffBase << uint(attempt)
	}

	res.Done = t
	a.results[qd.Tag] = res
	ins.qstRing[slot] = t
	a.noteFinish(start, t)
	a.querySpan(start, t, ins, slot, res.Fault != nil)
	return t
}

// corrupt wraps a guest-access error as an architectural structure
// fault: the pointer or bytes the accelerator followed did not describe
// a valid structure.
func corrupt(err error) error {
	return fmt.Errorf("%w: %w", ErrStructCorrupt, err)
}

// walkFault maps a walk guard's error onto the architectural faults: a
// runaway walk is a timeout, a pointer cycle a corrupt structure.
// Firmware rejections and the firmware's own exceptions pass through.
func walkFault(err error) error {
	switch {
	case errors.Is(err, cfa.ErrRunaway):
		return fmt.Errorf("%w: %w", ErrQueryTimeout, err)
	case errors.Is(err, cfa.ErrPointerCycle):
		return corrupt(err)
	}
	return err
}

// attempt runs one execution attempt of a query starting at cycle
// start, returning the architectural result (res.Fault != nil on an
// exception) and the cycle the attempt ended. Done is left for the
// caller to stamp.
func (a *Accelerator) attempt(ins *instance, qd *isa.QueryDesc, start uint64) (Result, uint64) {
	t := start
	fail := func(err error) (Result, uint64) {
		return Result{Fault: err}, t
	}

	sc := &a.sc
	sc.reset()

	// Step 1: fetch the metadata header (one line, Sec. IV-C).
	hlat, err := a.dataAccess(ins, qd.HeaderAddr, cache.Read, t, sc)
	a.stats.MemOps++
	a.stats.MemLines++
	t += hlat
	if err != nil {
		return fail(corrupt(err))
	}
	sc.markFetched(uint64(qd.HeaderAddr.Line()))
	prog, err := cfa.Stage(a.reg, a.m.AS, qd.HeaderAddr, qd.KeyAddr, int(qd.KeyLen), &sc.q)
	if err != nil {
		if !errors.Is(err, cfa.ErrNoProgram) {
			err = corrupt(err)
		}
		return fail(err)
	}

	w := &sc.walk
	*w = cfa.NewWalk(prog, &sc.q, false)
	for {
		// Watchdog: a stuck or wandering walk must not hold its QST slot
		// forever; past the per-attempt cycle budget it aborts
		// architecturally (Sec. IV-D).
		if a.cycleBudget != 0 && t-start >= a.cycleBudget {
			return fail(fmt.Errorf("%w: %d cycles into firmware %s",
				ErrQueryTimeout, t-start, prog.Name()))
		}
		// CEE: each transition occupies the engine for one cycle. The
		// engine is shared by the instance's in-flight queries, but
		// transitions are sparse relative to memory latencies (one per
		// dependent access), so cross-query CEE conflicts contribute at
		// most a cycle or two; we charge the pipeline cycle and a
		// conflict cycle whenever another query booked this same cycle.
		if ins.lastCEECycle == t {
			t++ // conflict: another entry was selected this cycle
		}
		ins.lastCEECycle = t
		t++ // the transition's own CEE cycle
		a.stats.Transitions++

		if a.fi.SpuriousFault() {
			return fail(errSpurious)
		}

		req, err := w.Next()

		// Charge the transition's micro-ops.
		var serial uint64
		var parallel uint64
		for _, op := range req.Ops {
			lat, err := a.chargeOp(ins, op, t, sc, uint64(len(sc.q.Key)))
			if err != nil {
				return fail(corrupt(err))
			}
			serial += lat
			if lat > parallel {
				parallel = lat
			}
		}
		if req.Parallel {
			t += parallel
		} else {
			t += serial
		}

		if err != nil {
			return fail(walkFault(err))
		}
		if req.Next == cfa.StateDone {
			return Result{Found: req.Found, Value: req.Value, Matches: sc.q.Matches}, t
		}
	}
}

func (a *Accelerator) noteFinish(start, finish uint64) {
	if finish > a.stats.LastFinish {
		a.stats.LastFinish = finish
	}
	a.stats.BusyEntryCycles += finish - start
}

// chargeOp computes the latency of one DPU/memory micro-op starting at
// t. keyBytes is the staged key size (remote-compare request payload).
func (a *Accelerator) chargeOp(ins *instance, op cfa.Op, t uint64, sc *scratch, keyBytes uint64) (uint64, error) {
	switch op.Kind {
	case cfa.OpMemRead:
		a.stats.MemOps++
		first, last := opLines(op)
		var maxLat uint64
		for line := first; line <= last; line += mem.LineSize {
			a.stats.MemLines++
			lat, err := a.dataAccess(ins, mem.VAddr(line), cache.Read, t, sc)
			if err != nil {
				return lat, err
			}
			sc.markFetched(line)
			if lat > maxLat {
				maxLat = lat // lines of one micro-op burst in parallel
			}
		}
		return maxLat, nil

	case cfa.OpCompare:
		a.stats.CompareBytes += op.Bytes
		cycles := compareCycles(op.Bytes)
		// Covered by staged data? Then a local DPU comparator suffices
		// ("a small key comparison can be done in one of the DPU if the
		// key is part of the fetched cacheline", Sec. V-A).
		if a.coveredByStaged(op, sc) {
			a.stats.LocalCompares++
			startC := bookComparator(a.localComp[ins.idx], t, cycles)
			return startC + cycles - t, nil
		}
		if a.p.RemoteCompare {
			return a.remoteCompare(ins, op, t, sc, keyBytes, cycles)
		}
		// No remote comparators (device schemes): fetch the operand lines
		// to the accelerator and compare locally.
		fetchLat, err := a.chargeOp(ins, cfa.MemRead(op.Addr, op.Bytes), t, sc, keyBytes)
		if err != nil {
			return fetchLat, err
		}
		a.stats.LocalCompares++
		startC := bookComparator(a.localComp[ins.idx], t+fetchLat, cycles)
		return startC + cycles - t, nil

	case cfa.OpALU:
		a.stats.ALUOps++
		return (op.Bytes + 7) / 8, nil

	case cfa.OpHash:
		a.stats.HashOps++
		return 2 + (op.Bytes+7)/8, nil
	}
	return 0, fmt.Errorf("qei: unknown micro-op kind %d", int(op.Kind))
}

// opLines returns the first and last cacheline an op covers; an op of
// zero bytes still names the line at its address.
func opLines(op cfa.Op) (first, last uint64) {
	first = uint64(op.Addr.Line())
	if op.Bytes == 0 {
		return first, first
	}
	return first, uint64((op.Addr + mem.VAddr(op.Bytes) - 1).Line())
}

// coveredByStaged reports whether every line of the compare operand has
// already been fetched into the QST's intermediate-data field.
func (a *Accelerator) coveredByStaged(op cfa.Op, sc *scratch) bool {
	if op.Bytes == 0 {
		return true
	}
	first, last := opLines(op)
	for line := first; line <= last; line += mem.LineSize {
		if !sc.wasFetched(line) {
			return false
		}
	}
	return true
}

// remoteCompare dispatches the comparison to the CHA owning the operand:
// the key chunk travels to the slice, the comparator reads the data
// in-place from the LLC, and only the outcome returns (Sec. V-A).
// keyBytes is the size of the key payload carried by the request.
func (a *Accelerator) remoteCompare(ins *instance, op cfa.Op, t uint64, sc *scratch, keyBytes uint64, cycles uint64) (uint64, error) {
	pa, tlat, err := a.translate(ins, op.Addr, t, sc)
	if err != nil {
		return tlat, err
	}
	a.stats.RemoteCompares++
	slice := a.m.Hier.LLC().SliceFor(pa)
	sliceStop := a.m.Hier.LLC().StopFor(pa)
	a.remoteOps[slice]++
	// Request carries the remote micro-op + the key chunk to compare.
	reqLat := a.m.Mesh.SendAt(ins.stop, sliceStop, 16+keyBytes, t+tlat)
	arrive := t + tlat + reqLat
	// The CHA comparator pulls the operand lines from its own slice.
	var dataLat uint64
	first, last := opLines(op)
	for line := first; line <= last; line += mem.LineSize {
		lpa, _, err := a.translate(ins, mem.VAddr(line), arrive, sc)
		if err != nil {
			return 0, err
		}
		r := a.m.Hier.LLCAccessLocal(sliceStop, lpa, cache.Read, arrive)
		if r.Latency > dataLat {
			dataLat = r.Latency
		}
	}
	startC := bookComparator(a.remoteComp[slice], arrive+dataLat, cycles)
	// The CHA-resident comparison itself, on the owning slice's track.
	a.tr.Span("cha", "remote_cmp", startC, startC+cycles, trace.PidCHA(slice), 0, nil)
	// Only the 16 B outcome returns — the data stays in the LLC.
	respLat := a.m.Mesh.SendAt(sliceStop, ins.stop, 16, startC+cycles)
	done := startC + cycles + respLat
	return done - t, nil
}

// Flush aborts in-flight non-blocking queries at an interrupt
// (Sec. IV-D): abort codes are written to their result addresses with
// non-temporal stores, and the core may not run handler code until the
// flush completes. It returns the flush latency in cycles.
func (a *Accelerator) Flush(at uint64) uint64 {
	a.stats.Flushes++
	var pending int
	for tag, rec := range a.nbInFlight {
		if rec.done > at {
			pending++
			r := a.results[tag]
			r.Aborted = true
			r.Fault = fmt.Errorf("qei: query %d: %w", tag, ErrAborted)
			a.results[tag] = r
			a.stats.AbortedNB++
			// Abort code at the result address so polling software can
			// restart the query after the interrupt.
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], 0xAB)
			a.m.AS.MustWrite(rec.resultAddr, buf[:])
		}
		delete(a.nbInFlight, tag)
	}
	// Address translation for the pending stores is the critical path;
	// stores coalesce per line (Sec. IV-D).
	lat := uint64(pending) * 2
	if pending > 0 {
		lat += a.m.TLB[a.core].L2.Config().HitLatency
	}
	return lat
}
