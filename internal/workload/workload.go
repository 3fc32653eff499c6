// Package workload implements the five data-center benchmarks of
// Sec. VI-B — DPDK L3-FIB (cuckoo hash), JVM garbage-collection object
// tree (BST), RocksDB memtable (skip list), Snort literal matching
// (Aho-Corasick trie), FLANN locality-sensitive hashing (hash-table
// group) — plus the tuple-space-search workload of Sec. VII-B, and a
// runner that executes each of them in three configurations: pure
// software on the OoO core, QEI-accelerated with blocking QUERY_B, and
// QEI-accelerated with non-blocking QUERY_NB batches.
//
// Each benchmark builds its data structures in a simulated machine in the
// state machine.New builds (deterministic layouts from fixed seeds), then
// plays a query stream. A run takes that machine from a free list of
// reset ones, and the first run of a benchmark on a chip keeps an image
// of the built guest memory that later runs restore instead of
// building it again (see Benchmark).
// Requests carry a calibrated amount of non-ROI work (parsing, memcpy,
// bookkeeping) so that the query share of total time lands in the
// 23–44% band the paper profiles in Fig. 1.
package workload

import (
	"qei/internal/baseline"
	"qei/internal/cfa"
	"qei/internal/cpu"
	"qei/internal/hwdesc"
	"qei/internal/isa"
	"qei/internal/machine"
	"qei/internal/mem"
	"qei/internal/metrics"
	"qei/internal/power"
	"qei/internal/qei"
	"qei/internal/scheme"
	"qei/internal/trace"
)

// Probe is one data-structure lookup within a request.
type Probe struct {
	Header mem.VAddr
	Key    mem.VAddr
	KeyLen uint32 // non-zero overrides the header's key length (trie)

	WantFound bool
	WantValue uint64
}

// Request is one application-level unit of work (a packet, a GC mark
// step, a DB get, a scanned payload, a similarity query): some non-ROI
// work plus one or more probes.
type Request struct {
	Probes []Probe
}

// Plan is a fully built benchmark instance: the request streams over
// the guest memory Build laid out. The runs that restore one image of
// that memory share its Plan, so a run only reads it.
type Plan struct {
	Name     string
	Requests []Request
	// WarmupRequests is a disjoint stream with the same distribution,
	// played by the warmup pass so the measured stream does not reuse
	// exactly the lines warmup pulled into the private caches.
	WarmupRequests []Request
	// NonROIOps is the per-request op count of surrounding work.
	NonROIOps int
	// NonROILoadEvery makes every Nth non-ROI op a load into Scratch
	// (cache-resident application state); 0 disables loads.
	NonROILoadEvery int
	Scratch         mem.VAddr
	scratchSize     uint64
}

// Benchmark builds a Plan into a machine. Build must be a pure
// function of its receiver and the machine's Desc: it lays the same
// bytes out at the same addresses and returns an equal Plan whenever
// both are equal. A run may therefore restore the guest memory and the
// Plan of an earlier run of an equal benchmark (by ==, when its type is
// comparable) on an equal Desc instead of calling Build, and the runs
// sharing that Plan must not modify it.
type Benchmark interface {
	Name() string
	Build(m *machine.Machine) (*Plan, error)
}

// Mode selects which part of each request runs.
type Mode int

const (
	// Full runs non-ROI work and queries (end-to-end, Fig. 9).
	Full Mode = iota
	// ROIOnly runs just the queries (lookup speedup, Fig. 7).
	ROIOnly
	// NonROIOnly runs just the surrounding work (Fig. 1 calibration).
	NonROIOnly
)

// Run captures one execution's metrics.
type Run struct {
	Name    string
	Mode    Mode
	Scheme  string
	Queries int
	// Cycles is the makespan: last core retirement or last accelerator
	// completion, whichever is later.
	Cycles uint64
	Core   cpu.Stats
	Accel  *qei.Stats
	// Memory-system activity (for the power model).
	L1Accesses, L2Accesses, LLCAccesses, DRAMAccesses uint64
	NoCBytes                                          uint64
	TLBLookups, PageWalks                             uint64
	// Mismatches counts probes whose result disagreed with the expected
	// value — must be zero in a correct run.
	Mismatches int
	// PeakLinkUtil / MeanUtil are the mesh utilization of the measured
	// window, filled when the run used WithNoCWindow.
	PeakLinkUtil float64
	MeanUtil     float64
	// Metrics is the registry snapshot taken at the end of the run when
	// WithMetrics attached one. It covers the whole run including any
	// warmup pass (component counters are cumulative).
	Metrics metrics.Snapshot
}

// Activity is the run's event count in the power model's vocabulary.
// Lines streamed by CHA comparators are cheaper than full LLC accesses,
// so an accelerated run's compare lines move out of the LLC count into
// ComparatorLineReads.
func (r Run) Activity() power.Activity {
	a := power.Activity{
		Instructions: r.Core.Instructions,
		Mispredicts:  r.Core.Mispredicts,
		L1Accesses:   r.L1Accesses,
		L2Accesses:   r.L2Accesses,
		LLCAccesses:  r.LLCAccesses,
		DRAMAccesses: r.DRAMAccesses,
		NoCBytes:     r.NoCBytes,
		TLBLookups:   r.TLBLookups,
		PageWalks:    r.PageWalks,
	}
	if r.Accel != nil {
		cmpLines := min(r.Accel.CompareBytes/64, a.LLCAccesses)
		a.Transitions = r.Accel.Transitions
		a.Compare8Bs = (r.Accel.CompareBytes + 7) / 8
		a.ComparatorLineReads = cmpLines
		a.Hash8Bs = r.Accel.HashOps * 2
		a.LLCAccesses -= cmpLines
	}
	return a
}

// RunOption configures a runner.
type RunOption func(*runCfg)

type runCfg struct {
	warmup   bool
	batch    int
	nocReset bool
	reg      *metrics.Registry
	tr       *trace.Tracer
	mach     *hwdesc.Description
}

// defaultDesc is the Tab. II chip, which runs without WithMachine use.
var defaultDesc = hwdesc.Default()

// desc describes the run's machine: the described chip (WithMachine)
// or the Tab. II default. Callers only read it.
func (c *runCfg) desc() *hwdesc.Description {
	if c.mach != nil {
		return c.mach
	}
	return &defaultDesc
}

// WithWarmup plays the request stream once before the measured pass, so
// caches and TLBs reach steady state — the regime the paper evaluates
// ("there are few TLB misses in our tests", Sec. VII-A). Reported
// cycles/stats cover only the measured pass.
func WithWarmup() RunOption {
	return func(c *runCfg) { c.warmup = true }
}

// WithBatch overrides the QUERY_B and QUERY_NB issue batch size.
func WithBatch(n int) RunOption {
	return func(c *runCfg) { c.batch = n }
}

// WithNoCWindow clears accumulated NoC traffic at the start of the
// measured pass so Run.PeakLinkUtil / Run.MeanUtil reflect the measured
// window only (implies a warmup pass).
func WithNoCWindow() RunOption {
	return func(c *runCfg) { c.warmup = true; c.nocReset = true }
}

// WithMetrics attaches a metrics registry: every component of the run's
// machine (and the accelerator, for QEI runs) publishes its counters,
// and Run.Metrics carries their final snapshot. The components register
// into a registry the recycled machine keeps, not into reg; when the
// run ends, reg receives that final snapshot as constant counters
// (metrics.Registry.AddSnapshot, sharing Run.Metrics's samples), so one
// reg passed to several runs sums them.
func WithMetrics(reg *metrics.Registry) RunOption {
	return func(c *runCfg) { c.reg = reg }
}

// WithTrace attaches the unified event tracer: all components emit
// cycle-stamped events into tr during the run.
func WithTrace(tr *trace.Tracer) RunOption {
	return func(c *runCfg) { c.tr = tr }
}

// WithMachine runs the workload on the chip d describes instead of the
// Tab. II default — the design-space-exploration knob. Only the chip half
// of d is used; the accelerator comes from the run's scheme.Params. d is
// captured by value and copied by machine.New, so sweep points sharing a
// base Description never alias.
func WithMachine(d hwdesc.Description) RunOption {
	return func(c *runCfg) { c.mach = &d }
}

// memSnapshot captures machine-wide memory-system counters for delta
// measurement around a warmup pass.
type memSnapshot struct {
	l1, l2, llc, dram, noc, tlbs, walks uint64
}

func snapshotMemory(m *machine.Machine) memSnapshot {
	var s memSnapshot
	for core := 0; core < m.Desc.Cores; core++ {
		h, mi, _, _ := m.Hier.L1D[core].Stats()
		s.l1 += h + mi
		h2, m2, _, _ := m.Hier.L2[core].Stats()
		s.l2 += h2 + m2
		th, tm, _ := m.TLB[core].L1.Stats()
		s.tlbs += th + tm
		t2h, t2m, _ := m.TLB[core].L2.Stats()
		s.tlbs += t2h + t2m
		w, _, _ := m.TLB[core].Walker.Stats()
		s.walks += w
	}
	lh, lm := m.Hier.LLC().Stats()
	s.llc = lh + lm
	s.dram = m.Hier.DRAM().Accesses()
	s.noc = m.Hier.Mesh().TotalBytes()
	return s
}

func applyMemoryDelta(r *Run, before, after memSnapshot) {
	r.L1Accesses = after.l1 - before.l1
	r.L2Accesses = after.l2 - before.l2
	r.LLCAccesses = after.llc - before.llc
	r.DRAMAccesses = after.dram - before.dram
	r.NoCBytes = after.noc - before.noc
	r.TLBLookups = after.tlbs - before.tlbs
	r.PageWalks = after.walks - before.walks
}

// emitNonROI appends the request's surrounding work to b: parsing,
// copying, and bookkeeping modelled as short dependent chains seeded by
// cache-resident loads, the IPC≈1.5 shape of real protocol-processing
// code, as one isa.Filler block. seed, when non-zero, is a query result
// register for the work to depend on (the accelerated rewrite consumes
// results, List 2); but a block reads it only if its first op is not a
// scratch load, and every benchmark's block starts with one. A
// data-dependent branch per request closes the work and mispredicts
// occasionally.
func emitNonROI(b *isa.Builder, plan *Plan, reqIdx int, seed isa.Reg) {
	if plan.NonROIOps <= 0 {
		return
	}
	off := uint64(reqIdx*64) % max(plan.scratchSize, 1)
	chain := b.Filler(plan.NonROIOps, plan.NonROILoadEvery, plan.Scratch, int(plan.scratchSize/mem.LineSize), off, seed)
	b.Branch(chain, reqIdx%24 == 0)
}

// session is one run of a benchmark on a machine in machine.New's
// state; it owns what every driver shares — the machine and its build,
// the accelerator beside core 0, the trace builder, the measured window
// and the result check — so a driver is only the trace its
// configuration emits. A session is taken from the free list with its
// machine (see takeSession) and handed back, machine reset, by close on
// every return path. What a run allocates besides its answer lives on
// with the session: open resets the core, the accelerator, the builder
// and the query buffers in place, and the registries that read the
// machine's, core 0's and the accelerator's counters are built by the
// first run that asks for metrics and kept.
type session struct {
	cfg runCfg
	m   *machine.Machine
	// reg is the run's registry, nil unless WithMetrics gave one:
	// machineReg on software runs, accelReg on accelerated ones.
	reg *metrics.Registry
	// machineReg holds the counters of the machine and core 0, and
	// accelReg includes it and adds the accelerator's. Each is built
	// once, by the first run that needs it, and its counters are reset
	// with the components they read; so a snapshot of one is the current
	// run's, and close hands the caller's registry only its values.
	machineReg, accelReg *metrics.Registry
	// fw is the firmware registry accelerated runs load.
	fw    *cfa.Registry
	plan  *Plan
	accel *qei.Accelerator // &qa on accelerated runs, nil on software runs
	qa    qei.Accelerator
	core  *cpu.Core // core 0, beside accel
	// b holds the chunk being emitted (see chunk). Reset at each chunk
	// keeps register numbering byte-identical to a fresh builder.
	b   *isa.Builder
	run Run
	// buildStart and buildEnd bound the plan's structures, which a
	// warmup installs in the LLC.
	buildStart, buildEnd mem.VAddr
	tag                  uint64   // next accelerator query tag
	pending              []expect // the measured pass's accelerator probes
	// querier, key and results are the drivers' per-probe buffers: the
	// software query arena, its key buffer, and each chunk request's
	// QUERY_B result register.
	querier baseline.Querier
	key     []byte
	results []isa.Reg
}

// newSession builds a session on a new machine described by d.
func newSession(d hwdesc.Description) *session {
	return &session{m: machine.New(d), fw: cfa.DefaultRegistry(), core: new(cpu.Core), b: isa.NewBuilder()}
}

// open applies opts, takes a session, builds or restores bench into its
// machine wired to the configured observability sinks, and resets core
// 0 — with an accelerator of the given scheme beside it when params is
// non-nil. On success the caller must close the session.
func open(bench Benchmark, params *scheme.Params, opts []RunOption) (*session, error) {
	var cfg runCfg
	for _, o := range opts {
		o(&cfg)
	}
	s := takeSession(cfg.desc())
	s.cfg, s.reg, s.accel = cfg, nil, nil
	s.run, s.tag, s.pending = Run{}, 0, s.pending[:0]
	s.querier.Reset()
	s.m.SetTracer(cfg.tr)
	s.buildStart = s.m.AS.Brk()
	plan, err := build(bench, s.m)
	if err != nil {
		s.close()
		return nil, err
	}
	s.plan, s.buildEnd = plan, s.m.AS.Brk()
	s.run.Name = plan.Name
	var port cpu.QueryPort
	if params != nil {
		s.accel = &s.qa
		s.accel.Reset(s.m, *params, s.fw, 0)
		s.accel.SetTracer(cfg.tr)
		port = s.accel
	}
	s.core.Reset(cpu.DefaultConfig(), s.m.CoreMemPort(0), port)
	if cfg.tr != nil {
		s.core.SetTracer(cfg.tr, 0)
	}
	if cfg.reg != nil {
		s.reg = s.registry()
	}
	return s, nil
}

// registry returns the run's registry, registering the machine's and
// core 0's counters, and on an accelerated run the accelerator's, the
// first time a run of the session needs them.
func (s *session) registry() *metrics.Registry {
	if s.machineReg == nil {
		s.machineReg = metrics.NewRegistry()
		s.m.RegisterMetrics(s.machineReg)
		s.core.RegisterMetrics(s.machineReg.Scoped("core0"))
	}
	if s.accel == nil {
		return s.machineReg
	}
	if s.accelReg == nil {
		s.accelReg = metrics.NewRegistry()
		s.accelReg.Include(s.machineReg)
		s.accel.RegisterMetrics(s.accelReg)
	}
	return s.accelReg
}

// close ends the session: the caller's registry receives the run's
// final counters as constants, and the session goes back to the free
// list, its machine reset.
func (s *session) close() {
	snap := s.run.Metrics // measure's; nil if the run ended before it
	if snap == nil {
		snap = s.reg.Snapshot()
	}
	s.cfg.reg.AddSnapshot(snap)
	giveSession(s)
}

// warmLLC installs the plan's structures in the LLC.
func (s *session) warmLLC() { s.m.WarmLLC(s.buildStart, s.buildEnd) }

// measure plays the plan and returns the measured window's Run. With a
// warmup, the LLC is seeded and play first runs the warmup stream
// unmeasured; the window then opens once core 0 and the accelerator are
// both idle. It closes at the latest of core 0's last retirement, the
// accelerator's last finish and the last measured result's completion
// (QUERY_NB results land after the accelerator's last finish).
func (s *session) measure(play func(reqs []Request, measured bool) error) (Run, error) {
	mesh := s.m.Hier.Mesh()
	var start uint64
	var startCore cpu.Stats
	var startAccel qei.Stats
	var startMem memSnapshot
	if s.cfg.warmup {
		s.warmLLC()
		warm := s.plan.WarmupRequests
		if len(warm) == 0 {
			warm = s.plan.Requests
		}
		if err := play(warm, false); err != nil {
			return s.run, err
		}
		start, startCore = s.core.Now(), s.core.Stats()
		if s.accel != nil {
			startAccel = s.accel.Stats()
			start = max(start, startAccel.LastFinish)
		}
		if s.cfg.nocReset {
			mesh.ResetTraffic()
		}
		startMem = snapshotMemory(s.m)
	}
	if err := play(s.plan.Requests, true); err != nil {
		return s.run, err
	}
	end := s.core.Now()
	if s.accel != nil {
		mismatches, lastDone := verify(s.accel, s.pending)
		s.run.Queries += len(s.pending)
		s.run.Mismatches += mismatches
		as := s.accel.Stats()
		end = max(end, as.LastFinish, lastDone)
		d := as.Sub(startAccel)
		s.run.Accel = &d
	}
	s.run.Cycles = end - start
	s.run.Core = s.core.Stats().Sub(startCore)
	if s.cfg.nocReset {
		mesh.ObserveWindow(s.run.Cycles)
		s.run.PeakLinkUtil, _ = mesh.LinkUtilization()
		s.run.MeanUtil = mesh.MeanUtilization()
	} else {
		mesh.ObserveWindow(end)
	}
	applyMemoryDelta(&s.run, startMem, snapshotMemory(s.m))
	s.run.Metrics = s.reg.Snapshot()
	return s.run, nil
}

// batches hands reqs to core 0 in traces of up to n requests, one chunk
// each: emit appends a chunk's ops (first is the chunk's index in reqs).
func (s *session) batches(reqs []Request, n int, emit func(chunk []Request, first int) error) error {
	for first := 0; first < len(reqs); first += n {
		chunk := reqs[first:min(first+n, len(reqs))]
		if err := s.chunk(s.core, func() error { return emit(chunk, first) }); err != nil {
			return err
		}
	}
	return nil
}

// chunk runs one trace on core: it resets the builder, lets emit fill
// it and runs what it built. Once the core faults it ignores the rest
// of the trace, so the error is the one its first faulting op raised.
func (s *session) chunk(core *cpu.Core, emit func() error) error {
	s.b.Reset()
	if err := emit(); err != nil {
		return err
	}
	core.Run(s.b.Ops())
	return core.Err()
}

// issue returns the next query tag for p and, on the measured pass,
// queues p for verification.
func (s *session) issue(p Probe, measured bool) uint64 {
	tag := s.tag
	s.tag++
	if measured {
		s.pending = append(s.pending, expect{tag: tag, p: p})
	}
	return tag
}

// expect is a probe issued to an accelerator under tag.
type expect struct {
	tag uint64
	p   Probe
}

// matches reports whether a lookup outcome is the one p expects.
func (p Probe) matches(found bool, value uint64) bool {
	return found == p.WantFound && (!found || value == p.WantValue)
}

// verify counts the pending probes whose result on accel is missing,
// faulted or wrong, and returns the latest completion among them.
func verify(accel *qei.Accelerator, pending []expect) (mismatches int, lastDone uint64) {
	for _, e := range pending {
		r, ok := accel.Result(e.tag)
		if !ok || r.Fault != nil || !e.p.matches(r.Found, r.Value) {
			mismatches++
		}
		if ok {
			lastDone = max(lastDone, r.Done)
		}
	}
	return mismatches, lastDone
}

// emitQueryB appends one probe's QUERY_B in the software shell of the
// rewritten ROI (List 2): key pointer setup before the instruction, a
// result check after, then loop bookkeeping. The shell is what keeps
// the ROB's in-flight query count near the QST depth — the "bounded by
// the core" effect of Sec. VII-A. It returns the result register.
func emitQueryB(b *isa.Builder, p Probe, tag uint64, mispredict bool) isa.Reg {
	b.ALUN(6, 0)
	r := b.QueryB(isa.QueryDesc{
		HeaderAddr: p.Header,
		KeyAddr:    p.Key,
		KeyLen:     p.KeyLen,
		Tag:        tag,
	})
	b.Branch(b.ALU(r, 0), mispredict)
	b.ALUN(4, 0)
	return r
}

// RunBaseline executes bench in pure software on core 0 of a machine
// in machine.New's state.
func RunBaseline(bench Benchmark, mode Mode, opts ...RunOption) (Run, error) {
	s, err := open(bench, nil, opts)
	if err != nil {
		return Run{}, err
	}
	defer s.close()
	s.run.Mode, s.run.Scheme = mode, "software"
	// The session's querier arena and key buffer serve every probe;
	// Append copies each trace out of the arena before the next.
	return s.measure(func(reqs []Request, measured bool) error {
		return s.batches(reqs, 1, func(chunk []Request, first int) error {
			if mode != ROIOnly {
				emitNonROI(s.b, s.plan, first, 0)
			}
			if mode == NonROIOnly {
				return nil
			}
			for _, p := range chunk[0].Probes {
				r, err := s.querier.Query(s.m.AS, p.Header, readKeyAt(s.m, p, &s.key))
				if err != nil {
					return err
				}
				if measured {
					if !p.matches(r.Found, r.Value) {
						s.run.Mismatches++
					}
					s.run.Queries++
				}
				s.b.Append(r.Trace)
			}
			return nil
		})
	})
}

// RunQEI executes bench with QEI under the given integration scheme
// using blocking QUERY_B instructions.
func RunQEI(bench Benchmark, kind scheme.Kind, mode Mode, opts ...RunOption) (Run, error) {
	return RunQEIWithParams(bench, scheme.ForKind(kind), mode, opts...)
}

// DefaultBatch is the QUERY_B issue batch of a run on params unless
// WithBatch overrides it. The accelerated ROI issues QUERY_B in small
// batches and then consumes the batch's results in the per-request work
// — the List 2 usage pattern that fills (but does not overflow) the
// QST — so software batches to the common QST depth.
func DefaultBatch(params scheme.Params) int { return min(params.QSTEntriesPerInstance, 10) }

// RunQEIWithParams is RunQEI with an explicit (possibly modified) scheme
// parameter set — used by the Fig. 8 latency sweep and the ablations.
func RunQEIWithParams(bench Benchmark, params scheme.Params, mode Mode, opts ...RunOption) (Run, error) {
	s, err := open(bench, &params, opts)
	if err != nil {
		return Run{}, err
	}
	defer s.close()
	s.run.Mode, s.run.Scheme = mode, params.Kind.String()
	batch := s.cfg.batch
	if batch <= 0 {
		batch = DefaultBatch(params)
	}
	prevFound := true
	return s.measure(func(reqs []Request, measured bool) error {
		return s.batches(reqs, batch, func(chunk []Request, first int) error {
			if cap(s.results) < len(chunk) {
				s.results = make([]isa.Reg, len(chunk))
			}
			results := s.results[:len(chunk)]
			clear(results)
			if mode != NonROIOnly {
				for i, req := range chunk {
					for _, p := range req.Probes {
						// The predictor learns the dominant outcome and
						// mispredicts only when a probe's found-ness
						// flips (a miss after a run of hits, or vice
						// versa).
						results[i] = emitQueryB(s.b, p, s.issue(p, measured), p.WantFound != prevFound)
						prevFound = p.WantFound
					}
				}
			}
			if mode != ROIOnly {
				for i := range chunk {
					emitNonROI(s.b, s.plan, first+i, results[i])
				}
			}
			return nil
		})
	})
}

// nbBatch is the QUERY_NB issue batch: large enough to keep every QST
// busy across schemes (the device DPU has 240 entries; the software poll
// loop is sized to this). WithBatch overrides it.
const nbBatch = 32

// RunQEINonBlocking executes bench with QUERY_NB in batches: each batch
// issues nbBatch requests' probes non-blocking, then polls their result
// lines (the SNAPSHOT_READ loop of List 2). params sizes the
// accelerator as in RunQEIWithParams; scheme.ForKind gives the defaults.
func RunQEINonBlocking(bench Benchmark, params scheme.Params, opts ...RunOption) (Run, error) {
	s, err := open(bench, &params, opts)
	if err != nil {
		return Run{}, err
	}
	defer s.close()
	batch := nbBatch
	if s.cfg.batch > 0 {
		batch = s.cfg.batch
	}
	s.run.Mode, s.run.Scheme = Full, params.Kind.String()+"+NB"

	// Result area: one line per in-flight probe slot.
	maxProbes := 0
	for _, req := range s.plan.Requests {
		maxProbes = max(maxProbes, len(req.Probes))
	}
	resultArea := s.m.AS.AllocLines(uint64(batch*maxProbes) * mem.LineSize)

	return s.measure(func(reqs []Request, measured bool) error {
		return s.batches(reqs, batch, func(chunk []Request, first int) error {
			slot := 0
			for i, req := range chunk {
				emitNonROI(s.b, s.plan, first+i, 0)
				for _, p := range req.Probes {
					s.b.QueryNB(isa.QueryDesc{
						HeaderAddr: p.Header,
						KeyAddr:    p.Key,
						KeyLen:     p.KeyLen,
						ResultAddr: resultArea + mem.VAddr(slot*mem.LineSize),
						Tag:        s.issue(p, measured),
					})
					slot++
				}
			}
			// Polling loop: SNAPSHOT_READ-style wide loads over the
			// result lines until completion flags are set (List 2). Each
			// poll pass reads every 8th line (a 512-bit gather per 8
			// slots).
			for pass := 0; pass < 2; pass++ {
				for sl := 0; sl < slot; sl += 8 {
					r := s.b.Load(resultArea+mem.VAddr(sl*mem.LineSize), 64, 0)
					s.b.Branch(r, pass == 1 && sl+8 >= slot)
				}
			}
			return nil
		})
	})
}
