package qei

import (
	"encoding/binary"
	"fmt"

	"qei/internal/baseline"
	"qei/internal/cfa"
	"qei/internal/cpu"
	"qei/internal/epoch"
	"qei/internal/faultinject"
	"qei/internal/hwdesc"
	"qei/internal/isa"
	"qei/internal/machine"
	"qei/internal/mem"
	"qei/internal/metrics"
	"qei/internal/qei"
	"qei/internal/scheme"
	"qei/internal/trace"
)

// Scheme selects how the accelerator is integrated into the CPU
// (Sec. V / Sec. VI-A of the paper). String gives the paper's name,
// Name the CLI/JSON name.
type Scheme = scheme.Kind

// The five evaluated integration schemes.
const (
	// CoreIntegrated is the paper's proposal: QST/CEE beside each core's
	// L2 and L2-TLB, comparators distributed into the CHAs.
	CoreIntegrated = scheme.CoreIntegrated
	// CHATLB places an accelerator with a dedicated TLB in every CHA.
	CHATLB = scheme.CHATLB
	// CHANoTLB places accelerators in the CHAs but translates through
	// the core's MMU.
	CHANoTLB = scheme.CHANoTLB
	// DeviceDirect attaches one accelerator to the NoC as a special core.
	DeviceDirect = scheme.DeviceDirect
	// DeviceIndirect attaches the accelerator behind a standard device
	// interface, paying interface latency on every access.
	DeviceIndirect = scheme.DeviceIndirect
)

// Schemes lists all integration schemes in the paper's order.
func Schemes() []Scheme { return scheme.Kinds() }

// Table is a handle to a data structure laid out in the simulated
// machine's memory and described by a Fig. 4 metadata header.
type Table struct {
	header mem.VAddr
	// Kind is the structure's type (KindCuckoo, KindSkipList, ...).
	Kind StructKind
	// Label names a KindCustom table (the diagnostics label passed to
	// WriteTableHeader); empty for built-in kinds.
	Label string
	// KeyLen is the fixed key length stored in the header.
	KeyLen int
}

// Name returns the table's display name: the kind name for built-in
// structures, the registration label for custom firmware tables.
func (t Table) Name() string {
	if t.Kind == KindCustom && t.Label != "" {
		return t.Label
	}
	return t.Kind.String()
}

// HeaderAddr returns the simulated virtual address of the structure's
// metadata header (what software passes to the QUERY instructions).
func (t Table) HeaderAddr() uint64 { return uint64(t.header) }

// Result is the outcome of one accelerated query.
type Result struct {
	// Found reports whether the key matched.
	Found bool
	// Value is the matched 64-bit value (in real applications, a pointer
	// to the data).
	Value uint64
	// Matches holds all match values of a trie scan, in match order.
	Matches []uint64
	// Latency is the query's end-to-end cycle count as observed by the
	// issuing core (issue to result writeback); for QuerySoftware it is
	// the software walker's execution time.
	Latency uint64
	// Err carries the architectural exception, if the query faulted.
	Err error
}

// System is one simulated machine with a QEI accelerator attached to
// core 0 under a chosen integration scheme.
type System struct {
	m     *machine.Machine
	reg   *cfa.Registry
	accel *qei.Accelerator
	sch   Scheme
	seed  int64
	now   uint64
	tag   uint64
	// sw is the software walker arena behind QuerySoftware, and swCore
	// the core that times its walks (made by the first walk).
	sw     baseline.Querier
	swCore *cpu.Core
	// batchDescs backs the level-wise batch's descriptors, and
	// batchDescPtrs the pointers ExecuteBatch takes, reused across
	// batches.
	batchDescs    []isa.QueryDesc
	batchDescPtrs []*isa.QueryDesc
	// keys stages the key of Query and QueryAsync, and batchKeys the
	// keys of QueryBatch: the accelerator reads a key into its QST entry
	// at issue, so each area is rewritten by the next query or batch.
	keys, batchKeys stagingArea
	// freeLines holds the result lines no query owns, reused last
	// freed first (takeLine).
	freeLines []mem.VAddr
	// mreg/tracer are the observability sinks created by
	// WithMetrics/WithTimeline; nil when the respective option is off.
	mreg   *metrics.Registry
	tracer *trace.Tracer
	// fi is the fault-injection harness (WithFaultInjection); nil keeps
	// every hook a free no-op.
	fi *faultinject.Injector
	// gc is the epoch-based reclamation domain coordinating writers with
	// in-flight queries; created lazily by the first mutable build (see
	// ensureGC), nil for read-only systems so no query path pays for it.
	gc *epoch.GC
	// pinnedTags maps in-flight async query tags to the epoch they
	// pinned at admission; Wait/Poll unpin on completion or abort.
	pinnedTags map[uint64]uint64
}

// Option configures a System at construction.
type Option func(*sysConfig)

type sysConfig struct {
	metrics     bool
	trace       bool
	seed        int64
	faults      *FaultSpec
	cycleBudget uint64
	spec        *MachineSpec
}

// WithSeed sets the seed for the system's randomized software routines
// (skip-list level coins in mutable tables). Default 7.
func WithSeed(seed int64) Option {
	return func(c *sysConfig) { c.seed = seed }
}

// WithMetrics attaches a simulator-wide metrics registry: every
// component (cores, caches, TLBs, NoC, memory, accelerator) registers
// its counters under component-path names, and Metrics() reads them.
// Off by default; the disabled path costs nothing.
func WithMetrics() Option {
	return func(c *sysConfig) { c.metrics = true }
}

// WithTimeline attaches the unified cycle-stamped event tracer: all
// components emit events (query spans, cache fills, page walks, NoC
// transfers, remote compares) onto one timeline, and ExportTrace renders
// it as Chrome trace-event JSON. Off by default.
func WithTimeline() Option {
	return func(c *sysConfig) { c.trace = true }
}

// WithFaultInjection arms the deterministic fault-injection harness
// with the given replayable plan. Faults fire only while the
// accelerator executes a query — builders and the software walker
// stay exact — and every injection decision is a pure function of the
// spec's seed, so reruns reproduce failures bit for bit. A spec with
// all rates zero wires the harness but never fires, changing nothing.
func WithFaultInjection(f FaultSpec) Option {
	return func(c *sysConfig) { c.faults = &f }
}

// WithQueryCycleBudget arms the per-query watchdog: an accelerator
// execution attempt that burns more than the given number of cycles
// aborts with ErrQueryTimeout instead of holding its QST slot forever
// (stuck walks over corrupt structures, runaway firmware). 0 — the
// default — disables the watchdog.
func WithQueryCycleBudget(cycles uint64) Option {
	return func(c *sysConfig) { c.cycleBudget = cycles }
}

// NewSystem builds a 24-core machine (Tab. II configuration) with a QEI
// accelerator in the given integration scheme.
func NewSystem(s Scheme, opts ...Option) *System {
	cfg := sysConfig{seed: 7}
	for _, o := range opts {
		o(&cfg)
	}
	d := hwdesc.ForScheme(s)
	if cfg.spec != nil {
		// The spec contributes the chip and the accelerator sizing; the
		// integration scheme stays NewSystem's argument.
		d = cfg.spec.desc()
		d.Scheme = s.Name()
	}
	p, err := d.SchemeParams()
	if err != nil {
		panic(err) // unreachable: presets and every MachineSpec constructor validate
	}
	m := machine.New(d)
	var mreg *metrics.Registry
	if cfg.metrics {
		mreg = metrics.NewRegistry()
	}
	var tracer *trace.Tracer
	if cfg.trace {
		tracer = trace.New(0)
	}
	m.AttachObservability(mreg, tracer)
	reg := cfa.DefaultRegistry()
	sys := &System{
		m:      m,
		reg:    reg,
		accel:  qei.New(m, p, reg, 0),
		sch:    s,
		seed:   cfg.seed,
		mreg:   mreg,
		tracer: tracer,
	}
	sys.accel.RegisterMetrics(mreg)
	sys.accel.SetTracer(tracer)
	if cfg.faults != nil {
		sys.fi = faultinject.New(cfg.faults.sched)
		m.AttachFaultInjection(sys.fi)
		sys.accel.SetFaultInjector(sys.fi)
	}
	if cfg.cycleBudget > 0 {
		sys.accel.SetCycleBudget(cfg.cycleBudget)
	}
	if cfg.faults != nil {
		// Scoped and RegisterFunc are nil-safe, like all registry wiring.
		f := mreg.Scoped("faults")
		f.RegisterFunc("injected", func() uint64 { return sys.fi.Injected() })
		for k := 0; k < faultinject.NumKinds(); k++ {
			kind := faultinject.Kind(k)
			f.RegisterFunc(kind.String()+"/hits", func() uint64 { return sys.fi.Hits(kind) })
		}
	}
	return sys
}

// FaultsInjected reports how many faults the injection harness has
// fired so far (0 without WithFaultInjection).
func (s *System) FaultsInjected() uint64 { return s.fi.Injected() }

// QSTCapacity returns the total number of QST entries across the
// accelerator's instances — the bound on outstanding async queries.
func (s *System) QSTCapacity() int { return s.accel.Capacity() }

// Scheme reports the system's integration scheme.
func (s *System) Scheme() Scheme { return s.sch }

// Now returns the simulated cycle reached by the issue clock.
func (s *System) Now() uint64 { return s.now }

// Advance moves the issue clock forward by n cycles (idle time between
// query bursts).
func (s *System) Advance(n uint64) { s.now += n }

// Write stores raw bytes at a fresh cacheline-aligned location in the
// simulated address space and returns its address — how applications
// stage probe keys and payloads.
func (s *System) Write(data []byte) uint64 {
	a := s.m.AS.AllocLines(uint64(len(data)))
	s.m.AS.MustWrite(a, data)
	return uint64(a)
}

// Query performs a blocking QUERY_B lookup of key in t through the
// accelerator, returning the architectural result and its latency.
func (s *System) Query(t Table, key []byte) (Result, error) {
	keyAddr := s.keys.stage(s.m.AS, t, key)
	return s.QueryAt(t, uint64(keyAddr), len(key))
}

// QueryAt is Query for a key already staged in simulated memory: one
// blocking accelerator execution, advancing the issue clock to its
// completion. A query that still faults after the engine's internal
// retry-from-root returns the exception in Result.Err; the System never
// reroutes it. Callers that want a software answer on a fault run
// QuerySoftware themselves — resilient serving (serve.Resilience) does
// exactly that.
func (s *System) QueryAt(t Table, keyAddr uint64, keyLen int) (Result, error) {
	// A blocking query's in-flight window is the call itself: pin the
	// epoch at admission, release it once the result is architectural.
	if pinned, ok := s.pinQuery(); ok {
		defer s.gc.Unpin(pinned)
	}
	desc := s.queryDesc(t, keyAddr, keyLen, 0)
	done, err := s.accel.IssueBlocking(&desc, s.now)
	if err != nil {
		return Result{}, err
	}
	r, ok := s.accel.Result(desc.Tag)
	if !ok {
		return Result{}, fmt.Errorf("qei: result for tag %d missing", desc.Tag)
	}
	s.accel.Forget(desc.Tag)
	// IssueBlocking stamped the record's Done with the writeback cycle.
	res := result(r, s.now)
	s.now = done
	return res, nil
}

// Scan runs input through a trie table (the Snort literal-matching use
// case): one query whose "key" is the whole input buffer.
func (s *System) Scan(t Table, input []byte) (Result, error) {
	if t.Kind != KindTrie {
		return Result{}, fmt.Errorf("qei: Scan needs a trie table, got %s", t.Kind)
	}
	return s.Query(t, input)
}

// AsyncHandle identifies an in-flight non-blocking query.
type AsyncHandle struct {
	tag        uint64
	resultAddr mem.VAddr
	accepted   uint64
}

// QueryAsync issues a non-blocking QUERY_NB lookup. The issue clock
// advances only to the acceptance point; Wait retrieves the result.
// When every QST entry is occupied it returns ErrQSTFull — drain a
// completion with Wait and reissue, or use QueryBatch. The key and the
// result line live in guest memory the System reuses: the line goes
// back once Wait or Poll returns the result or first reports the abort,
// so guest memory grows only with the handles outstanding.
func (s *System) QueryAsync(t Table, key []byte) (AsyncHandle, error) {
	keyAddr := s.keys.stage(s.m.AS, t, key)
	desc := s.queryDesc(t, uint64(keyAddr), len(key), 0)
	desc.ResultAddr = s.takeLine(desc.Tag)
	pinned, havePin := s.pinQuery()
	accepted, err := s.accel.TryIssueNonBlocking(&desc, s.now)
	if err != nil {
		if havePin {
			s.gc.Unpin(pinned)
		}
		s.freeLine(desc.ResultAddr)
		return AsyncHandle{}, err
	}
	if havePin {
		// The pin lives in the QST with the query; Wait/Poll release it
		// when the completion (or abort) is observed.
		s.trackPin(desc.Tag, pinned)
	}
	s.now = accepted
	return AsyncHandle{tag: desc.Tag, resultAddr: desc.ResultAddr, accepted: accepted}, nil
}

// Wait retrieves an async query's result (the SNAPSHOT_READ loop of
// List 2), advancing the issue clock to its completion if needed. It
// returns ErrUnknownHandle for a foreign handle or one already retired
// (a second Wait or Poll after the result was returned), ErrAborted for
// a query flushed by Interrupt, and ErrResultPending when the
// completion flag has not been written.
func (s *System) Wait(h AsyncHandle) (Result, error) {
	if r, ok := s.accel.Result(h.tag); ok && !r.Aborted {
		if r.Done > s.now {
			s.now = r.Done
		}
		// The completion flag is visible at the result address.
		flag, err := s.m.AS.ReadU64(h.resultAddr)
		if err != nil {
			return Result{}, err
		}
		if flag == 0 {
			return Result{}, ErrResultPending
		}
	}
	// The clock is at the completion now: settle it as Poll does.
	return s.Poll(h)
}

// Poll is one non-advancing iteration of the List-2 loop: it checks an
// async query's result without moving the issue clock, returning
// ErrResultPending while the query is still executing at Now(),
// ErrAborted if it was flushed, and the result once complete; after
// that the handle is retired and reports ErrUnknownHandle.
func (s *System) Poll(h AsyncHandle) (Result, error) {
	r, ok := s.accel.Result(h.tag)
	if !ok {
		return Result{}, ErrUnknownHandle
	}
	if r.Aborted {
		s.unpinTag(h.tag)
		// The line still names this query until its abort is first
		// observed; later polls find it freed or owned by another.
		if owner, _ := s.m.AS.ReadU64(h.resultAddr + ownerOffset); owner == h.tag {
			s.freeLine(h.resultAddr)
		}
		return Result{}, fmt.Errorf("qei: query %d: %w", h.tag, ErrAborted)
	}
	if r.Done > s.now {
		return Result{}, ErrResultPending
	}
	s.retire(h.tag)
	s.freeLine(h.resultAddr)
	return result(r, h.accepted), nil
}

// ExportTrace returns the unified cycle-stamped timeline recorded under
// WithTimeline (every component's events) as a Chrome trace-event JSON
// document (chrome://tracing, Perfetto). Without WithTimeline the
// document has no events.
func (s *System) ExportTrace() string { return s.tracer.Export() }

// Metric is one named simulator counter, read by Metrics().
type Metric struct {
	// Name is the component-path metric name, e.g. "core0/l1d/misses" or
	// "qei/cmp/remote".
	Name string
	// Value is the counter's reading (fixed-point milli units for the few
	// *_milli metrics).
	Value uint64
}

// Metrics snapshots every registered counter, sorted by name. It
// returns nil unless the system was built WithMetrics.
func (s *System) Metrics() []Metric {
	if s.mreg == nil {
		return nil
	}
	snap := s.mreg.Snapshot()
	out := make([]Metric, 0, len(snap))
	for _, sm := range snap {
		out = append(out, Metric{Name: sm.Name, Value: sm.Value})
	}
	return out
}

// Interrupt models a context-switch interrupt hitting the core
// (Sec. IV-D): the accelerator is flushed, in-flight non-blocking
// queries are aborted with abort codes written to their result
// addresses so software can restart them, and the issue clock advances
// by the flush latency. It returns the number of cycles the flush cost.
func (s *System) Interrupt() uint64 {
	lat := s.accel.Flush(s.now)
	s.now += lat
	return lat
}

// Stats summarizes accelerator activity.
type Stats struct {
	Queries        uint64
	Transitions    uint64
	MemLines       uint64
	LocalCompares  uint64
	RemoteCompares uint64
	Exceptions     uint64
	// Retries counts retry-from-root recoveries of transient injected
	// faults; Timeouts counts queries killed by the cycle-budget
	// watchdog (WithQueryCycleBudget).
	Retries  uint64
	Timeouts uint64
	// Occupancy is the average number of busy QST entries over the
	// active window.
	Occupancy float64
}

// Stats returns the accelerator's accumulated activity.
func (s *System) Stats() Stats {
	st := s.accel.Stats()
	return Stats{
		Queries:        st.Queries,
		Transitions:    st.Transitions,
		MemLines:       st.MemLines,
		LocalCompares:  st.LocalCompares,
		RemoteCompares: st.RemoteCompares,
		Exceptions:     st.Exceptions,
		Retries:        st.Retries,
		Timeouts:       st.Timeouts,
		Occupancy:      st.Occupancy(),
	}
}

func (s *System) nextTag() uint64 {
	s.tag++
	return s.tag
}

// queryDesc builds the descriptor of one query against t under a fresh
// tag: the key is staged at keyAddr, and resultAddr is where a
// non-blocking or batched query writes its result (0 for QUERY_B). Only
// a trie scan carries its key length; every other kind reads the
// header's fixed KeyLen.
func (s *System) queryDesc(t Table, keyAddr uint64, keyLen int, resultAddr mem.VAddr) isa.QueryDesc {
	d := isa.QueryDesc{
		HeaderAddr: t.header,
		KeyAddr:    mem.VAddr(keyAddr),
		ResultAddr: resultAddr,
		Tag:        s.nextTag(),
	}
	if t.Kind == KindTrie {
		d.KeyLen = uint32(keyLen)
	}
	return d
}

// result converts the accelerator's record of a query issued (or
// accepted) at cycle issue into the architectural Result.
func result(r qei.Result, issue uint64) Result {
	return Result{
		Found:   r.Found,
		Value:   r.Value,
		Matches: r.Matches,
		Latency: r.Done - issue,
		Err:     r.Fault,
	}
}

// ownerOffset is where a result line records the tag of the query that
// owns it, past the 16-byte flag+value record the accelerator writes.
const ownerOffset = 16

// takeLine hands out a result line owned by the query tagged owner (0
// for a batch): the most recently freed line, its flag+value record
// zeroed as a fresh line's is, or a fresh line. The host writes cost no
// simulated cycles.
func (s *System) takeLine(owner uint64) mem.VAddr {
	var line mem.VAddr
	if n := len(s.freeLines); n > 0 {
		line, s.freeLines = s.freeLines[n-1], s.freeLines[:n-1]
	} else {
		line = s.m.AS.AllocLines(mem.LineSize)
	}
	var rec [ownerOffset + 8]byte
	binary.LittleEndian.PutUint64(rec[ownerOffset:], owner)
	s.m.AS.MustWrite(line, rec[:])
	return line
}

// freeLine returns a result line no query owns any more to the free
// list, clearing its owner.
func (s *System) freeLine(line mem.VAddr) {
	var none [8]byte
	s.m.AS.MustWrite(line+ownerOffset, none[:])
	s.freeLines = append(s.freeLines, line)
}

// stagingArea is guest memory the System reuses to stage query keys,
// each at a line-aligned offset. It grows to the largest staging asked
// of it. Each key is followed by zeros through the length the
// accelerator reads, so it reads as a key staged in fresh lines does.
type stagingArea struct {
	addr mem.VAddr
	size int
	buf  []byte // host copy of the last staging
}

// keySpan is the bytes a key staged for t takes: its length, or the
// length the accelerator reads if that is longer, rounded up to whole
// lines (one line for an empty key).
func keySpan(t Table, k []byte) int {
	n := len(k)
	if t.Kind != KindTrie {
		n = max(n, t.KeyLen) // a trie query carries its own length
	}
	return max(n+mem.LineSize-1, mem.LineSize) &^ (mem.LineSize - 1)
}

// stage writes keys for t into the area, key i at the sum of keySpan of
// the keys before it, and returns the area's address.
func (a *stagingArea) stage(as *mem.AddressSpace, t Table, keys ...[]byte) mem.VAddr {
	n := 0
	for _, k := range keys {
		n += keySpan(t, k)
	}
	if n > a.size {
		a.addr, a.size = as.AllocLines(uint64(n)), n
	}
	a.buf = append(a.buf[:0], make([]byte, n)...)
	off := 0
	for _, k := range keys {
		copy(a.buf[off:], k)
		off += keySpan(t, k)
	}
	as.MustWrite(a.addr, a.buf)
	return a.addr
}

// ensureGC lazily creates the system's epoch-based reclamation domain
// (internal/epoch). The first mutable build installs it; from then on
// every query pins the current epoch for its in-flight window, writers
// retire freed nodes into the epoch's limbo list, and memory is only
// reused once the QST has drained past the retiring epoch. Read-only
// systems never call this and keep every hook nil.
func (s *System) ensureGC() *epoch.GC {
	if s.gc != nil {
		return s.gc
	}
	s.gc = epoch.New(s.m.AS)
	s.pinnedTags = make(map[uint64]uint64)
	// Reclamation counters live beside the other component metrics
	// (Scoped/RegisterFunc are nil-safe when metrics are off).
	e := s.mreg.Scoped("epoch")
	gc := s.gc
	e.RegisterFunc("current", func() uint64 { return gc.Epoch() })
	e.RegisterFunc("retired", func() uint64 { return gc.Stats().Retired })
	e.RegisterFunc("reclaimed", func() uint64 { return gc.Stats().Reclaimed })
	e.RegisterFunc("reused", func() uint64 { return gc.Stats().Reused })
	e.RegisterFunc("pins_outstanding", func() uint64 { return gc.Stats().PinsOutstanding })
	e.RegisterFunc("read_after_retire", func() uint64 { return gc.Violations() })
	return s.gc
}

// EpochStats snapshots the epoch GC's reclamation counters. It returns
// a zero Stats for a system that never built a mutable table.
func (s *System) EpochStats() epoch.Stats {
	if s.gc == nil {
		return epoch.Stats{}
	}
	return s.gc.Stats()
}

// EpochViolations reports the epoch GC's read-after-retire violation
// count: queries that dereferenced a reclaimed extent. It is asserted
// zero everywhere; a system that never built a mutable table reports 0.
func (s *System) EpochViolations() uint64 {
	if s.gc == nil {
		return 0
	}
	return s.gc.Violations()
}

// pinQuery pins the current epoch on behalf of a query being admitted;
// it is a no-op (returning false) without an epoch domain.
func (s *System) pinQuery() (uint64, bool) {
	if s.gc == nil {
		return 0, false
	}
	return s.gc.Pin(), true
}

// trackPin records an admitted async query's pinned epoch under its tag.
func (s *System) trackPin(tag, pinned uint64) {
	s.pinnedTags[tag] = pinned
}

// retire settles an async query whose result Wait or Poll has just
// returned: its epoch pin is released and the accelerator forgets the
// tag, so a later Wait or Poll on the handle reports ErrUnknownHandle.
func (s *System) retire(tag uint64) {
	s.unpinTag(tag)
	s.accel.Forget(tag)
}

// unpinTag releases the epoch pinned by an async query, once, when its
// completion (or abort) is observed through Wait or Poll.
func (s *System) unpinTag(tag uint64) {
	if s.gc == nil {
		return
	}
	if e, ok := s.pinnedTags[tag]; ok {
		delete(s.pinnedTags, tag)
		s.gc.Unpin(e)
	}
}
