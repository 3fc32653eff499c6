package serve

import (
	"errors"
	"fmt"

	"qei/internal/trace"
)

// Config configures one serving run on top of a generated (or replayed)
// request stream.
type Config struct {
	// Gen is the stream's generation config; Run rebuilds each tenant's
	// table from it (TenantKeys), so a recorded trace replays against
	// identical structures.
	Gen GenConfig
	// SlotsPerTenant bounds each tenant's in-flight QST slots. <= 0
	// derives a fair share: backend capacity / tenants, clamped to 1.
	SlotsPerTenant int
	// SLO is the per-request latency objective in simulated cycles;
	// requests whose end-to-end latency exceeds it count as violations.
	// 0 disables SLO accounting.
	SLO uint64
	// Trace, when non-nil, receives serving-layer events on the serve
	// track: breaker-degraded spans, per-request failover spans, and
	// shed points, cycle-aligned with the machine's component tracks.
	Trace *trace.Tracer
	// KeepResults retains every request's Result in Report.Results
	// (indexed by Request.Seq) — the hook the backend-equivalence tests
	// use. Off for large runs.
	KeepResults bool
	// WriteCost is the simulated-cycle charge per software mutation
	// (mutations are host routines; QEI accelerates queries only). 0
	// uses defaultWriteCost.
	WriteCost uint64
	// Resilience enables deadlines/shedding, bounded retry, failover,
	// and the circuit breaker. nil keeps the legacy behavior: faults
	// retire with their error, admission waits are unbounded, and the
	// report carries none of the resilience fields.
	Resilience *Resilience
	// BatchAdmit, when > 1, turns on batched admission: lookups buffer
	// per tenant and flush through the backend's BatchBackend path in
	// groups of up to BatchAdmit keys. A tenant's buffer also flushes
	// before any of its writes (so reads issued before a write never
	// observe it) and at end of stream. Batched lookups bypass QST slot
	// admission, the retry rung, and the breaker — the batch engine
	// already re-runs each faulting query on the per-query path — but a
	// result that still faults enters the rest of the resilience ladder:
	// shed past its deadline, else failed over. Requires the backend to
	// implement BatchBackend.
	BatchAdmit int
}

// defaultWriteCost approximates a software insert/delete's execution
// time: a few cache-missing probes plus the splice, ~an order above a
// hot lookup.
const defaultWriteCost = 500

func (c Config) writeCost() uint64 {
	if c.WriteCost > 0 {
		return c.WriteCost
	}
	return defaultWriteCost
}

// TenantStats is one tenant's serving outcome (Tenant == -1 for the
// aggregate row).
type TenantStats struct {
	Tenant        int     `json:"tenant"`
	Requests      uint64  `json:"requests"`
	Found         uint64  `json:"found"`
	Faults        uint64  `json:"faults"`
	Throttled     uint64  `json:"throttled"`
	SLOViolations uint64  `json:"slo_violations"`
	MeanLatency   float64 `json:"mean_latency"`
	P50           uint64  `json:"p50"`
	P99           uint64  `json:"p99"`
	P999          uint64  `json:"p999"`
	MaxLatency    uint64  `json:"max_latency"`
	// Write-path counters; omitted from JSON on read-only runs so
	// existing reports stay byte-identical. Requests above counts reads
	// only — Requests+Writes is the tenant's full stream.
	Writes   uint64 `json:"writes,omitempty"`
	WriteP50 uint64 `json:"write_p50,omitempty"`
	WriteP99 uint64 `json:"write_p99,omitempty"`
	// Resilience counters; zero (and omitted from JSON) unless
	// Config.Resilience was set and the run actually shed, retried, or
	// degraded. Shed requests are excluded from Requests but their
	// admission wait still lands in the latency percentiles above;
	// failed-over requests are counted in Requests with their full
	// degraded latency.
	Shed       uint64 `json:"shed,omitempty"`
	Retries    uint64 `json:"retries,omitempty"`
	FailedOver uint64 `json:"failed_over,omitempty"`
}

// Report is the outcome of one serving run: per-tenant percentile rows,
// the aggregate row, and backend totals. Latencies are end-to-end
// simulated cycles: arrival to result visibility, queueing included.
type Report struct {
	Backend        string `json:"backend"`
	Requests       int    `json:"requests"`
	SlotsPerTenant int    `json:"slots_per_tenant"`
	Capacity       int    `json:"capacity"`
	// MakespanCycles is the backend clock when the last request retired.
	MakespanCycles uint64        `json:"makespan_cycles"`
	Queries        uint64        `json:"queries"`
	Exceptions     uint64        `json:"exceptions"`
	Tenants        []TenantStats `json:"tenants"`
	Total          TenantStats   `json:"total"`
	// Breaker summarizes the primary-path circuit breaker; nil when the
	// resilience layer (or its breaker) is off.
	Breaker *BreakerReport `json:"breaker,omitempty"`
	// Batch summarizes batched admission; nil unless Config.BatchAdmit
	// enabled it. The server fills Batches/BatchedReads; the engine-side
	// amortization counters are stamped by the qei layer from the
	// accelerator's stats.
	Batch *BatchReport `json:"batch,omitempty"`
	// FaultsInjected and EpochViolations are stamped by the qei layer
	// (RunServing/ReplayServing) when fault injection or epoch
	// reclamation are armed on the machine; zero otherwise.
	FaultsInjected  uint64 `json:"faults_injected,omitempty"`
	EpochViolations uint64 `json:"epoch_violations,omitempty"`
	// Mismatches counts answers that disagree with the host model
	// (Verify). The qei layer stamps it when results were kept and the
	// resilience layer was off; zero otherwise.
	Mismatches uint64 `json:"mismatches,omitempty"`
	// Results holds per-request results by Seq when Config.KeepResults
	// was set; excluded from JSON output.
	Results []Result `json:"-"`
}

// BatchReport summarizes one run's batched admission: how the stream
// was grouped (server-side) and what the level-wise engine amortized
// (stamped by the qei layer from accelerator stats).
type BatchReport struct {
	// Batches and BatchedReads count the server-side batching: flushes
	// issued and lookups they carried.
	Batches      uint64 `json:"batches"`
	BatchedReads uint64 `json:"batched_reads"`
	// Engine-side amortization counters, zero unless the qei layer
	// stamps them after the run.
	Levels            uint64 `json:"levels,omitempty"`
	TranslationsSaved uint64 `json:"translations_saved,omitempty"`
	CoalescedProbes   uint64 `json:"coalesced_probes,omitempty"`
	Deferred          uint64 `json:"deferred,omitempty"`
}

// tenantAcct is the per-tenant accounting the server keeps while a run
// is in flight.
type tenantAcct struct {
	hist       LatencyHist
	whist      LatencyHist
	requests   uint64
	writes     uint64
	found      uint64
	faults     uint64
	sloViol    uint64
	shed       uint64
	retries    uint64
	failedOver uint64
}

// pendingGet is one lookup buffered for batched admission.
type pendingGet struct {
	seq int
	at  uint64
	key []byte
}

// inflight is one issued-but-unretired request.
type inflight struct {
	tenant  int
	seq     int
	at      uint64
	key     []byte
	attempt int // primary issues so far, beyond the first
	h       Handle
}

// server is the in-flight state of one serving run: the backend, the
// per-tenant tables and accounting, the admission controller, the
// in-flight queue, and (when Config.Resilience is set) the resilience
// machinery. One run, one server, one goroutine.
type server struct {
	b   Backend
	mut Mutator
	cfg Config
	res *Resilience
	brk *breaker

	tables []Table
	adm    *Admission
	acct   []tenantAcct
	total  LatencyHist
	wtotal LatencyHist
	queue  []inflight
	rep    *Report
	// done and doneRes are pollRetire's completions, kept across calls
	// so the poll loop reuses their storage.
	done    []inflight
	doneRes []Result

	// Batched admission state (Config.BatchAdmit > 1): the batch-capable
	// backend view, per-tenant pending lookups, and flush counters.
	bb           BatchBackend
	pending      [][]pendingGet
	batches      uint64
	batchedReads uint64

	// degradedSince is the cycle the breaker last left Closed, for the
	// breaker-degraded trace span; nil while Closed.
	degradedSince *uint64
}

// Run drives the request stream through the backend: tables are built
// per tenant, requests issue in arrival order under the open-loop clock
// (arrivals never wait for completions), per-tenant admission bounds
// in-flight slots, and every request's end-to-end latency lands in the
// tenant's histogram. With Config.Resilience set, requests past their
// deadline are shed, faulting queries are retried and then failed over
// to the safety-net backend, and a circuit breaker routes around a
// rotten primary. The run is single-goroutine and deterministic:
// identical (backend state, cfg, reqs) yield identical reports.
func Run(b Backend, cfg Config, reqs []Request) (*Report, error) {
	s, err := newServer(b, cfg, reqs)
	if err != nil {
		return nil, err
	}
	return s.run(reqs)
}

// newServer validates the config, builds the per-tenant tables, and
// assembles the run state.
func newServer(b Backend, cfg Config, reqs []Request) (*server, error) {
	if err := cfg.Gen.Validate(); err != nil {
		return nil, err
	}
	tenants := cfg.Gen.Tenants
	// A stream with any mutation needs the backend's write path; tables
	// are then built updatable. Read-only streams keep the plain Backend
	// contract and immutable layouts.
	var mut Mutator
	for i := range reqs {
		if reqs[i].Op != OpGet {
			m, ok := b.(Mutator)
			if !ok {
				return nil, fmt.Errorf("serve: stream has writes but backend %s has no write path", b.Name())
			}
			mut = m
			break
		}
	}
	tables := make([]Table, tenants)
	for t := range tables {
		keys, values := TenantKeys(cfg.Gen, t)
		var tbl Table
		var err error
		if mut != nil {
			tbl, err = mut.BuildMutable(cfg.Gen.Kind, keys, values)
		} else {
			tbl, err = b.Build(cfg.Gen.Kind, keys, values)
		}
		if err != nil {
			return nil, fmt.Errorf("serve: tenant %d build: %w", t, err)
		}
		tables[t] = tbl
	}

	slots := cfg.SlotsPerTenant
	if slots <= 0 {
		slots = b.Capacity() / tenants
	}
	s := &server{
		b:      b,
		mut:    mut,
		cfg:    cfg,
		res:    cfg.Resilience,
		tables: tables,
		adm:    NewAdmission(tenants, slots),
		acct:   make([]tenantAcct, tenants),
		rep:    &Report{},
	}
	if s.res != nil && s.res.Failover != nil {
		s.brk = new(breaker)
	}
	if cfg.BatchAdmit > 1 {
		bb, ok := b.(BatchBackend)
		if !ok {
			return nil, fmt.Errorf("serve: batched admission needs a batch path but backend %s has none", b.Name())
		}
		s.bb = bb
		s.pending = make([][]pendingGet, tenants)
		s.rep.Batch = &BatchReport{}
	}
	if cfg.KeepResults {
		s.rep.Results = make([]Result, len(reqs))
	}
	return s, nil
}

func (s *server) run(reqs []Request) (*Report, error) {
	for i := range reqs {
		if err := s.serve(&reqs[i]); err != nil {
			return nil, err
		}
	}
	// End of stream: flush every tenant's buffered lookups (tenant order,
	// for determinism), then drain the async queue.
	for t := range s.pending {
		if err := s.flushBatch(t); err != nil {
			return nil, err
		}
	}
	for len(s.queue) > 0 {
		if err := s.waitOne(0); err != nil {
			return nil, err
		}
	}
	// A breaker still degraded at end of run closes its trace span at
	// the final clock.
	if s.degradedSince != nil {
		s.cfg.Trace.Span("serve", "breaker_degraded", *s.degradedSince, s.b.Now(), trace.PidServe, 0, nil)
		s.degradedSince = nil
	}
	return s.report(len(reqs)), nil
}

// serve processes one arrival: advance the clock, drain completions,
// then route the request — write path, shed, breaker fast-fail, or
// admission + async issue on the primary.
func (s *server) serve(req *Request) error {
	if req.Tenant < 0 || req.Tenant >= len(s.tables) {
		return fmt.Errorf("serve: request %d names tenant %d of %d", req.Seq, req.Tenant, len(s.tables))
	}
	if now := s.b.Now(); now < req.At {
		s.b.Advance(req.At - now)
	}
	if err := s.pollRetire(); err != nil {
		return err
	}
	if req.Op != OpGet {
		// Read-your-writes under batching: lookups this tenant buffered
		// before the write must execute against the pre-write structure,
		// so its buffer flushes first.
		if s.bb != nil {
			if err := s.flushBatch(req.Tenant); err != nil {
				return err
			}
		}
		return s.serveWrite(req)
	}
	// Deadline check at issue: the backlog ahead of this request has
	// already burned its whole budget, so don't spend a slot on it.
	if s.pastDeadline(req.At) {
		s.shed(req.Tenant, req.Seq, req.At)
		return nil
	}
	// Batched admission: buffer the lookup and flush the tenant's group
	// through the level-wise engine once it reaches BatchAdmit keys.
	if s.bb != nil {
		s.pending[req.Tenant] = append(s.pending[req.Tenant], pendingGet{seq: req.Seq, at: req.At, key: req.Key})
		if len(s.pending[req.Tenant]) >= s.cfg.BatchAdmit {
			return s.flushBatch(req.Tenant)
		}
		return nil
	}
	// Breaker fast-fail: while the primary is judged rotten, requests
	// route to the software path wholesale. The software query is
	// synchronous, so no admission slot is taken.
	if s.brk != nil && !s.allowPrimary() {
		return s.failover(req.Tenant, req.Seq, req.At, req.Key)
	}
	// Per-tenant admission: over-bound requests wait on their own
	// tenant's oldest in-flight query — other tenants keep their
	// slots — and the wait is charged to this request's latency.
	for !s.adm.TryAcquire(req.Tenant) {
		idx := -1
		for j := range s.queue {
			if s.queue[j].tenant == req.Tenant {
				idx = j
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("serve: tenant %d over admission bound: %w", req.Tenant, ErrAdmissionStall)
		}
		if err := s.waitOne(idx); err != nil {
			return err
		}
		if s.pastDeadline(req.At) {
			s.shed(req.Tenant, req.Seq, req.At)
			return nil
		}
	}
	h, err := s.b.QueryAsync(s.tables[req.Tenant], req.Key)
	for errors.Is(err, ErrBackendFull) {
		// The shared QST is exhausted by other tenants: drain the
		// globally oldest query and reissue.
		if len(s.queue) == 0 {
			s.adm.Release(req.Tenant)
			return fmt.Errorf("serve: backend full: %w", ErrAdmissionStall)
		}
		if werr := s.waitOne(0); werr != nil {
			return werr
		}
		if s.pastDeadline(req.At) {
			s.adm.Release(req.Tenant)
			s.shed(req.Tenant, req.Seq, req.At)
			return nil
		}
		h, err = s.b.QueryAsync(s.tables[req.Tenant], req.Key)
	}
	if err != nil {
		return fmt.Errorf("serve: request %d issue: %w", req.Seq, err)
	}
	s.queue = append(s.queue, inflight{tenant: req.Tenant, seq: req.Seq, at: req.At, key: req.Key, h: h})
	return nil
}

// flushBatch executes one tenant's buffered lookups as a single batch
// on the backend's batched path and settles every one of them: clean
// results retire, and under Resilience faulting ones degrade. The
// batch runs synchronously — the backend clock advances to the batch's
// completion — so a buffered request's latency spans from its arrival
// to the whole group's finish: the batching wait is charged, not
// hidden.
func (s *server) flushBatch(tenant int) error {
	pend := s.pending[tenant]
	if len(pend) == 0 {
		return nil
	}
	s.pending[tenant] = nil
	keys := make([][]byte, len(pend))
	for i := range pend {
		keys[i] = pend[i].key
	}
	start := s.b.Now()
	rs, err := s.bb.QueryBatch(s.tables[tenant], keys)
	if err != nil {
		return fmt.Errorf("serve: tenant %d batch flush: %w", tenant, err)
	}
	if len(rs) != len(pend) {
		return fmt.Errorf("serve: tenant %d batch flush: %d results for %d keys", tenant, len(rs), len(pend))
	}
	s.cfg.Trace.Span("serve", fmt.Sprintf("batch_flush/%d", len(pend)), start, s.b.Now(), trace.PidServe, tenant, nil)
	s.batches++
	s.batchedReads += uint64(len(pend))
	done := s.b.Now()
	for i := range pend {
		res := rs[i]
		if res.Done == 0 {
			res.Done = done
		}
		if res.Err != nil && s.res != nil {
			// The engine's per-query re-run of a deferred query was its
			// retry; what still faults settles like an exhausted retry.
			if err := s.degrade(tenant, pend[i].seq, pend[i].at, pend[i].key, res); err != nil {
				return err
			}
			continue
		}
		s.retire(tenant, pend[i].seq, pend[i].at, res)
	}
	return nil
}

// serveWrite applies one mutation. Writes apply immediately in
// software, bypassing QST admission: the mutator runs on the host while
// earlier lookups stay in flight (epoch reclamation keeps them
// consistent). The mutation routine's execution time advances the clock
// and is charged to this request's write latency. Writes are never shed
// — dropping state the rest of the stream depends on is not "degraded
// but correct".
func (s *server) serveWrite(req *Request) error {
	var res Result
	switch req.Op {
	case OpPut:
		if err := s.mut.Insert(s.tables[req.Tenant], req.Key, req.Value); err != nil {
			return fmt.Errorf("serve: request %d put: %w", req.Seq, err)
		}
		res = Result{Found: true, Value: req.Value}
	case OpDel:
		ok, err := s.mut.Delete(s.tables[req.Tenant], req.Key)
		if err != nil {
			return fmt.Errorf("serve: request %d del: %w", req.Seq, err)
		}
		res = Result{Found: ok}
	default:
		return fmt.Errorf("serve: request %d has unknown op %q", req.Seq, req.Op)
	}
	s.b.Advance(s.cfg.writeCost())
	res.Done = s.b.Now()
	lat := uint64(0)
	if res.Done > req.At {
		lat = res.Done - req.At
	}
	a := &s.acct[req.Tenant]
	a.writes++
	a.whist.Observe(lat)
	s.wtotal.Observe(lat)
	if s.cfg.SLO > 0 && lat > s.cfg.SLO {
		a.sloViol++
	}
	s.keepResult(req.Seq, res)
	return nil
}

// waitOne retires queue[i], advancing the clock to its completion (and
// walking the resilience ladder if it faulted).
func (s *server) waitOne(i int) error {
	q := s.queue[i]
	s.queue = append(s.queue[:i], s.queue[i+1:]...)
	res, err := s.b.Wait(q.h)
	if err != nil {
		return fmt.Errorf("serve: request %d: %w", q.seq, err)
	}
	return s.finish(q, res)
}

// pollRetire retires everything already complete at the current clock,
// without advancing it. Completions are collected first and finished
// after the scan: finish may requeue a retry, which would otherwise
// clobber the in-place compaction.
func (s *server) pollRetire() error {
	kept := s.queue[:0]
	s.done, s.doneRes = s.done[:0], s.doneRes[:0]
	for _, q := range s.queue {
		res, err := s.b.Poll(q.h)
		if errors.Is(err, ErrPending) {
			kept = append(kept, q)
			continue
		}
		if err != nil {
			return fmt.Errorf("serve: request %d: %w", q.seq, err)
		}
		s.done = append(s.done, q)
		s.doneRes = append(s.doneRes, res)
	}
	s.queue = kept
	for i := range s.done {
		if err := s.finish(s.done[i], s.doneRes[i]); err != nil {
			return err
		}
	}
	return nil
}

// finish settles one completed primary execution. Clean results retire;
// faulting ones walk the resilience ladder — retried on the primary
// while the deadline holds, attempts remain and the breaker is closed,
// then settled by degrade.
func (s *server) finish(q inflight, res Result) error {
	s.recordPrimary(res.Err == nil)
	if res.Err == nil || s.res == nil {
		s.adm.Release(q.tenant)
		s.retire(q.tenant, q.seq, q.at, res)
		return nil
	}
	if !s.pastDeadline(q.at) && q.attempt < maxRetries && (s.brk == nil || s.brk.State() == BreakerClosed) {
		// Back off on the shared clock — the pause is charged to this
		// request and everything queued behind it — then reissue on the
		// slot the request still holds.
		s.b.Advance(retryBackoff)
		h, err := s.b.QueryAsync(s.tables[q.tenant], q.key)
		if err == nil {
			s.acct[q.tenant].retries++
			s.queue = append(s.queue, inflight{tenant: q.tenant, seq: q.seq, at: q.at, key: q.key, attempt: q.attempt + 1, h: h})
			return nil
		}
		if !errors.Is(err, ErrBackendFull) {
			s.adm.Release(q.tenant)
			return fmt.Errorf("serve: request %d retry: %w", q.seq, err)
		}
		// Every QST entry is occupied: skip the retry and degrade now
		// rather than stalling the pipeline behind one request.
	}
	s.adm.Release(q.tenant)
	return s.degrade(q.tenant, q.seq, q.at, q.key, res)
}

// degrade settles a faulting result whose retry is spent: shed if the
// deadline has passed, else fail over to the safety-net backend, else
// retire with the fault.
func (s *server) degrade(tenant, seq int, at uint64, key []byte, res Result) error {
	switch {
	case s.pastDeadline(at):
		s.shed(tenant, seq, at)
	case s.res.Failover != nil:
		return s.failover(tenant, seq, at, key)
	default:
		s.retire(tenant, seq, at, res)
	}
	return nil
}

// failover executes one request on the safety-net backend, charging the
// full degraded latency — queueing, burned retries, and the software
// walk — to the request.
func (s *server) failover(tenant, seq int, at uint64, key []byte) error {
	start := s.b.Now()
	res, err := s.res.Failover.Query(s.tables[tenant], key)
	if err != nil {
		return fmt.Errorf("serve: request %d failover: %w", seq, err)
	}
	s.cfg.Trace.Span("serve", "failover", start, s.b.Now(), trace.PidServe, tenant, nil)
	s.acct[tenant].failedOver++
	s.retire(tenant, seq, at, res)
	return nil
}

// retire folds one completed request into its tenant's accounting.
func (s *server) retire(tenant, seq int, at uint64, res Result) {
	lat := uint64(0)
	if res.Done > at {
		lat = res.Done - at
	}
	a := &s.acct[tenant]
	a.hist.Observe(lat)
	s.total.Observe(lat)
	a.requests++
	if res.Found {
		a.found++
	}
	if res.Err != nil {
		a.faults++
	}
	if s.cfg.SLO > 0 && lat > s.cfg.SLO {
		a.sloViol++
	}
	s.keepResult(seq, res)
}

// shed drops one request past its deadline. Its wait so far still lands
// in the latency histograms — excluding it would silently flatter the
// tail the deadline was protecting.
func (s *server) shed(tenant, seq int, at uint64) {
	wait := uint64(0)
	if now := s.b.Now(); now > at {
		wait = now - at
	}
	a := &s.acct[tenant]
	a.hist.Observe(wait)
	s.total.Observe(wait)
	a.shed++
	s.cfg.Trace.Point("serve", "shed", s.b.Now(), trace.PidServe, tenant, nil)
	s.keepResult(seq, Result{Done: s.b.Now()})
}

func (s *server) keepResult(seq int, res Result) {
	if s.cfg.KeepResults && seq >= 0 && seq < len(s.rep.Results) {
		s.rep.Results[seq] = res
	}
}

func (s *server) pastDeadline(at uint64) bool {
	return s.res != nil && s.res.Deadline > 0 && s.b.Now() > at+s.res.Deadline
}

// allowPrimary asks the breaker whether the arriving request may try
// the primary, tracking state transitions for the trace span.
func (s *server) allowPrimary() bool {
	prev := s.brk.State()
	ok := s.brk.Allow(s.b.Now())
	s.breakerMoved(prev)
	return ok
}

// recordPrimary feeds one primary outcome to the breaker.
func (s *server) recordPrimary(ok bool) {
	if s.brk == nil {
		return
	}
	prev := s.brk.State()
	s.brk.Record(s.b.Now(), ok)
	s.breakerMoved(prev)
}

// breakerMoved emits trace events on breaker state transitions: a point
// at each trip, and a span covering each full degraded (non-Closed)
// stretch once the breaker closes again.
func (s *server) breakerMoved(prev BreakerState) {
	cur := s.brk.State()
	if cur == prev {
		return
	}
	now := s.b.Now()
	if cur == BreakerOpen {
		s.cfg.Trace.Point("serve", "breaker_trip", now, trace.PidServe, 0, nil)
	}
	if cur != BreakerClosed && s.degradedSince == nil {
		at := now
		s.degradedSince = &at
	}
	if cur == BreakerClosed && s.degradedSince != nil {
		s.cfg.Trace.Span("serve", "breaker_degraded", *s.degradedSince, now, trace.PidServe, 0, nil)
		s.degradedSince = nil
	}
}

// report assembles the final Report from the run's accounting.
func (s *server) report(requests int) *Report {
	rep := s.rep
	rep.Backend = s.b.Name()
	rep.Requests = requests
	rep.SlotsPerTenant = s.adm.Limit()
	rep.Capacity = s.b.Capacity()
	rep.MakespanCycles = s.b.Now()
	st := s.b.Stats()
	rep.Queries = st.Queries
	rep.Exceptions = st.Exceptions
	rep.Tenants = make([]TenantStats, len(s.acct))
	for t := range s.acct {
		rep.Tenants[t] = tenantRow(t, &s.acct[t], s.adm.Throttled(t))
	}
	agg := tenantAcct{hist: s.total, whist: s.wtotal}
	var thrTotal uint64
	for t := range s.acct {
		a := &s.acct[t]
		agg.requests += a.requests
		agg.writes += a.writes
		agg.found += a.found
		agg.faults += a.faults
		agg.sloViol += a.sloViol
		agg.shed += a.shed
		agg.retries += a.retries
		agg.failedOver += a.failedOver
		thrTotal += s.adm.Throttled(t)
	}
	rep.Total = tenantRow(-1, &agg, thrTotal)
	if rep.Batch != nil {
		rep.Batch.Batches = s.batches
		rep.Batch.BatchedReads = s.batchedReads
	}
	if s.brk != nil {
		rep.Breaker = &BreakerReport{
			State:     s.brk.State().String(),
			Trips:     s.brk.Trips(),
			FastFails: s.brk.FastFails(),
			Probes:    s.brk.Probes(),
		}
	}
	return rep
}

// tenantRow renders one accounting record as a report row.
func tenantRow(t int, a *tenantAcct, throttled uint64) TenantStats {
	return TenantStats{
		Tenant:        t,
		Requests:      a.requests,
		Found:         a.found,
		Faults:        a.faults,
		Throttled:     throttled,
		SLOViolations: a.sloViol,
		MeanLatency:   a.hist.Mean(),
		P50:           a.hist.Quantile(0.50),
		P99:           a.hist.Quantile(0.99),
		P999:          a.hist.Quantile(0.999),
		MaxLatency:    a.hist.Max(),
		Writes:        a.writes,
		WriteP50:      a.whist.Quantile(0.50),
		WriteP99:      a.whist.Quantile(0.99),
		Shed:          a.shed,
		Retries:       a.retries,
		FailedOver:    a.failedOver,
	}
}
