package qei

import (
	"errors"
	"fmt"
	"os"

	"qei/internal/serve"
)

// This file wires the multi-tenant serving frontend (internal/serve)
// to the simulated machine: the two Backend adapters — the QEI
// accelerator and the software baseline walker — over one *System, plus
// the ServingConfig runner. Both adapters build tenant tables through
// the generic System.Build entrypoint, so a backend is chosen by name,
// never by divergent call paths (the Tailwind framing: accelerator vs
// software is a placement decision behind one interface).

// ServingBackends lists the registered serving backend names.
func ServingBackends() []string { return []string{"qei", "baseline"} }

// NewServingBackend wraps sys as the named serving backend adapter:
// "qei" drives the accelerator through QueryAsync/Poll/Wait under the
// QST bound; "baseline" executes every query on the software walker
// timed on a simulated core (QuerySoftware). Both share sys's address
// space, memory system, and issue clock.
func NewServingBackend(name string, sys *System) (serve.Backend, error) {
	switch name {
	case "qei":
		return &qeiServeBackend{servingMutator{sys: sys}}, nil
	case "baseline":
		return &baselineServeBackend{servingMutator: servingMutator{sys: sys}}, nil
	default:
		return nil, fmt.Errorf("qei: unknown serving backend %q (have %v)", name, ServingBackends())
	}
}

// servingTable unwraps a serving-layer table handle for the query path:
// mutable tables (built when the stream writes) expose their embedded
// immutable view, which tracks in-place structural maintenance.
func servingTable(t serve.Table) Table {
	if mt, ok := t.(*MutableTable); ok {
		return mt.Table
	}
	return t.(Table)
}

// servingMutator implements table construction and serve.Mutator for
// both adapters: tables are laid out and mutated by software routines on
// the shared machine (QEI accelerates queries only), so the build and
// write paths are backend-independent.
type servingMutator struct {
	sys *System
}

func (m *servingMutator) Build(kind string, keys [][]byte, values []uint64) (serve.Table, error) {
	k, err := ParseStructKind(kind)
	if err != nil {
		return nil, err
	}
	return m.sys.Build(k, keys, values)
}

func (m *servingMutator) BuildMutable(kind string, keys [][]byte, values []uint64) (serve.Table, error) {
	k, err := ParseStructKind(kind)
	if err != nil {
		return nil, err
	}
	return m.sys.BuildMutable(k, keys, values)
}

func (m *servingMutator) Insert(t serve.Table, key []byte, value uint64) error {
	mt, ok := t.(*MutableTable)
	if !ok {
		return fmt.Errorf("qei: serving write against an immutable table")
	}
	return mt.Insert(key, value)
}

func (m *servingMutator) Delete(t serve.Table, key []byte) (bool, error) {
	mt, ok := t.(*MutableTable)
	if !ok {
		return false, fmt.Errorf("qei: serving write against an immutable table")
	}
	return mt.Delete(key)
}

// qeiServeBackend adapts the accelerator path: async issues occupy QST
// entries and overlap; ErrQSTFull maps to the serve layer's
// ErrBackendFull so the server drains and reissues.
type qeiServeBackend struct {
	servingMutator
}

func (b *qeiServeBackend) Name() string { return "qei" }

func (b *qeiServeBackend) Query(t serve.Table, key []byte) (serve.Result, error) {
	res, err := b.sys.Query(servingTable(t), key)
	if err != nil {
		return serve.Result{}, err
	}
	return serve.Result{Found: res.Found, Value: res.Value, Done: b.sys.Now(), Err: res.Err}, nil
}

func (b *qeiServeBackend) QueryAsync(t serve.Table, key []byte) (serve.Handle, error) {
	h, err := b.sys.QueryAsync(servingTable(t), key)
	if errors.Is(err, ErrQSTFull) {
		return nil, fmt.Errorf("%w: %w", serve.ErrBackendFull, err)
	}
	if err != nil {
		return nil, err
	}
	return h, nil
}

func (b *qeiServeBackend) Poll(h serve.Handle) (serve.Result, error) {
	ah := h.(AsyncHandle)
	res, err := b.sys.Poll(ah)
	if errors.Is(err, ErrResultPending) {
		return serve.Result{}, serve.ErrPending
	}
	if err != nil {
		return serve.Result{}, err
	}
	return asyncResult(ah, res), nil
}

func (b *qeiServeBackend) Wait(h serve.Handle) (serve.Result, error) {
	ah := h.(AsyncHandle)
	res, err := b.sys.Wait(ah)
	if err != nil {
		return serve.Result{}, err
	}
	return asyncResult(ah, res), nil
}

// asyncResult converts an async query result: its completion cycle is
// the acceptance point plus the observed latency.
func asyncResult(h AsyncHandle, res Result) serve.Result {
	return serve.Result{
		Found: res.Found,
		Value: res.Value,
		Done:  h.accepted + res.Latency,
		Err:   res.Err,
	}
}

// QueryBatch runs one tenant's buffered lookups through the level-wise
// batch engine (serve.BatchBackend). The clock advances to the batch's
// completion; every result reports that completion cycle, since the
// batch retires as a unit.
func (b *qeiServeBackend) QueryBatch(t serve.Table, keys [][]byte) ([]serve.Result, error) {
	rs, err := b.sys.QueryBatch(servingTable(t), keys, WithBatchMode(BatchLevelWise))
	if err != nil {
		return nil, err
	}
	done := b.sys.Now()
	out := make([]serve.Result, len(rs))
	for i, r := range rs {
		out[i] = serve.Result{Found: r.Found, Value: r.Value, Done: done, Err: r.Err}
	}
	return out, nil
}

func (b *qeiServeBackend) Now() uint64      { return b.sys.Now() }
func (b *qeiServeBackend) Advance(n uint64) { b.sys.Advance(n) }
func (b *qeiServeBackend) Capacity() int    { return b.sys.QSTCapacity() }

func (b *qeiServeBackend) Stats() serve.Stats {
	st := b.sys.Stats()
	return serve.Stats{Queries: st.Queries, Exceptions: st.Exceptions}
}

// baselineServeBackend adapts the software path: queries execute
// eagerly and serially on the baseline walker (QuerySoftware), so an
// async handle is already complete when issued — queueing then shows up
// as end-to-end latency exactly as a single-threaded software server
// would exhibit it.
type baselineServeBackend struct {
	servingMutator
	queries    uint64
	exceptions uint64
}

// baselineHandle is an already-complete async handle.
type baselineHandle struct {
	res serve.Result
}

func (b *baselineServeBackend) Name() string { return "baseline" }

func (b *baselineServeBackend) Query(t serve.Table, key []byte) (serve.Result, error) {
	res, err := b.sys.QuerySoftware(servingTable(t), key)
	if errors.Is(err, ErrUnknownKind) {
		return serve.Result{}, err
	}
	b.queries++
	if err != nil {
		// Walker errors are per-query architectural faults, mirroring
		// accelerator exceptions riding in Result.Err.
		b.exceptions++
		return serve.Result{Done: b.sys.Now(), Err: err}, nil
	}
	return serve.Result{Found: res.Found, Value: res.Value, Done: b.sys.Now()}, nil
}

func (b *baselineServeBackend) QueryAsync(t serve.Table, key []byte) (serve.Handle, error) {
	res, err := b.Query(t, key)
	if err != nil {
		return nil, err
	}
	return &baselineHandle{res: res}, nil
}

func (b *baselineServeBackend) Poll(h serve.Handle) (serve.Result, error) {
	return h.(*baselineHandle).res, nil
}

func (b *baselineServeBackend) Wait(h serve.Handle) (serve.Result, error) {
	return h.(*baselineHandle).res, nil
}

func (b *baselineServeBackend) Now() uint64      { return b.sys.Now() }
func (b *baselineServeBackend) Advance(n uint64) { b.sys.Advance(n) }

// Capacity is 1: the software path executes one query at a time.
func (b *baselineServeBackend) Capacity() int { return 1 }

func (b *baselineServeBackend) Stats() serve.Stats {
	return serve.Stats{Queries: b.queries, Exceptions: b.exceptions}
}

// ServingConfig describes one serving run end to end: the synthetic
// multi-tenant stream, the machine and backend that serve it, and the
// QoS knobs. The zero value is not runnable; DefaultServingConfig gives
// a small, fast configuration.
type ServingConfig struct {
	// Backend selects the adapter: "qei" or "baseline".
	Backend string
	// Scheme is the accelerator integration scheme of the simulated
	// machine (the baseline backend still shares its memory system).
	Scheme Scheme
	// Tenants, Requests, KeysPerTenant, KeyLen, Kind, TenantSkew,
	// KeySkew, MeanGap and Seed mirror serve.GenConfig.
	Tenants       int
	Requests      int
	KeysPerTenant int
	KeyLen        int
	Kind          StructKind
	TenantSkew    float64
	KeySkew       float64
	MeanGap       uint64
	Seed          int64
	// WriteFraction and DeleteFraction mix software mutations into the
	// stream (serve.GenConfig semantics); 0 keeps it read-only and
	// byte-identical to pre-write streams.
	WriteFraction  float64
	DeleteFraction float64
	// WriteCost is the simulated-cycle charge per mutation (0 uses the
	// serve-layer default).
	WriteCost uint64
	// SLO is the per-request latency objective in cycles (0 = off).
	SLO uint64
	// SlotsPerTenant bounds each tenant's in-flight QST slots (<= 0
	// derives capacity / tenants).
	SlotsPerTenant int
	// BatchAdmit, when > 1, turns on batched admission (serve.Config
	// semantics): lookups buffer per tenant and flush through the
	// level-wise batch engine in groups of up to BatchAdmit keys.
	// Requires the "qei" backend.
	BatchAdmit int
	// GenWorkers parallelizes trace generation (<= 0 = GOMAXPROCS;
	// output is byte-identical at any value).
	GenWorkers int
	// Machine serves on the given chip instead of the Tab. II default
	// (see LoadMachineSpec); nil keeps the default.
	Machine *MachineSpec
	// Metrics attaches the simulator metrics registry and registers the
	// per-tenant serving counters in it.
	Metrics bool
	// KeepResults retains per-request results. Without Resilient, the
	// run then also checks them against the host model
	// (Report.Mismatches).
	KeepResults bool
	// Faults arms the deterministic fault-injection harness on the
	// serving machine (WithFaultInjection semantics: seeded, counter-
	// based, accelerator-path only — software walks stay clean). nil
	// serves without chaos. Without Resilient, injected faults surface
	// as per-request Result.Err and count in TenantStats.Faults.
	Faults *FaultSpec
	// QueryBudget arms the per-query cycle-budget watchdog
	// (WithQueryCycleBudget): accelerator executions over budget fault
	// with ErrQueryTimeout and enter the resilience ladder like any
	// other fault. 0 disables the watchdog.
	QueryBudget uint64
	// Resilient enables the serving resilience layer: per-request
	// deadlines with load shedding, bounded retry of faulting queries,
	// per-request failover to the software walker, and a circuit
	// breaker that routes around a misbehaving accelerator wholesale
	// (serve.Resilience). Off, faults ride in the report and admission
	// waits are unbounded, exactly as before.
	Resilient bool
	// Deadline is the per-request completion budget in cycles from
	// arrival (requests past it are shed). 0 derives 4x the SLO; with
	// the SLO also 0, shedding is off. Ignored without Resilient.
	Deadline uint64
	// MaxRetries bounds the pre-failover retry loop (serve.Resilience
	// semantics; 0 uses the serve default).
	MaxRetries int
	// Timeline, when non-empty, arms the unified cycle-stamped tracer
	// and writes the Chrome trace-event JSON document (component tracks
	// plus the serving track's shed/failover/breaker events) to this
	// file after the run.
	Timeline string
}

// DefaultServingConfig returns a small, fast serving configuration:
// 4 Zipf(0.99) tenants each owning a BST table (the pointer-chasing
// shape where offload pays) under an open-loop arrival process fast
// enough that the software path falls behind while the accelerator
// keeps up.
func DefaultServingConfig() ServingConfig {
	return ServingConfig{
		Backend:       "qei",
		Scheme:        CoreIntegrated,
		Tenants:       4,
		Requests:      240,
		KeysPerTenant: 128,
		KeyLen:        16,
		Kind:          KindBST,
		TenantSkew:    0.99,
		KeySkew:       0.99,
		MeanGap:       400,
		Seed:          7,
		SLO:           10000,
		GenWorkers:    1,
	}
}

// GenConfig renders the stream-generation part of the config.
func (c ServingConfig) GenConfig() serve.GenConfig {
	return serve.GenConfig{
		Tenants:        c.Tenants,
		Requests:       c.Requests,
		KeysPerTenant:  c.KeysPerTenant,
		KeyLen:         c.KeyLen,
		Kind:           c.Kind.String(),
		TenantSkew:     c.TenantSkew,
		KeySkew:        c.KeySkew,
		MeanGap:        c.MeanGap,
		Seed:           c.Seed,
		WriteFraction:  c.WriteFraction,
		DeleteFraction: c.DeleteFraction,
	}
}

// RunServing generates the seeded open-loop stream and serves it on a
// fresh simulated machine through the configured backend, returning the
// per-tenant percentile report. The run is deterministic: equal configs
// yield equal reports at any GenWorkers value.
func RunServing(cfg ServingConfig) (*serve.Report, error) {
	reqs, err := serve.GenerateParallel(cfg.GenConfig(), cfg.GenWorkers)
	if err != nil {
		return nil, err
	}
	return ReplayServing(cfg, cfg.GenConfig(), reqs)
}

// ReplayServing serves an explicit request stream (a recorded trace, or
// a freshly generated one) under gen's table layout on a fresh machine.
// Replaying a recorded trace is byte-identical to the live run that
// recorded it.
func ReplayServing(cfg ServingConfig, gen serve.GenConfig, reqs []serve.Request) (*serve.Report, error) {
	opts := []Option{WithSeed(cfg.Seed)}
	if cfg.Machine != nil {
		opts = append(opts, WithMachineSpec(*cfg.Machine))
	}
	if cfg.Metrics {
		opts = append(opts, WithMetrics())
	}
	if cfg.Faults != nil {
		opts = append(opts, WithFaultInjection(*cfg.Faults))
	}
	if cfg.QueryBudget > 0 {
		opts = append(opts, WithQueryCycleBudget(cfg.QueryBudget))
	}
	if cfg.Timeline != "" {
		opts = append(opts, WithTimeline())
	}
	sys := NewSystem(cfg.Scheme, opts...)
	backend, err := NewServingBackend(cfg.Backend, sys)
	if err != nil {
		return nil, err
	}
	scfg := serve.Config{
		Gen:            gen,
		SlotsPerTenant: cfg.SlotsPerTenant,
		SLO:            cfg.SLO,
		Metrics:        sys.mreg,
		Trace:          sys.tracer,
		KeepResults:    cfg.KeepResults,
		WriteCost:      cfg.WriteCost,
		BatchAdmit:     cfg.BatchAdmit,
	}
	if cfg.Resilient {
		res := &serve.Resilience{
			Deadline:   cfg.Deadline,
			MaxRetries: cfg.MaxRetries,
		}
		if res.Deadline == 0 && cfg.SLO > 0 {
			res.Deadline = 4 * cfg.SLO
		}
		// The safety net is the software walker over the same machine:
		// tables the primary built are queried directly, on the shared
		// clock. A baseline primary is its own safety net — it still
		// gets deadlines and shedding, but failover would be a no-op.
		if cfg.Backend != "baseline" {
			fo, err := NewServingBackend("baseline", sys)
			if err != nil {
				return nil, err
			}
			res.Failover = fo
		}
		scfg.Resilience = res
	}
	rep, err := serve.Run(backend, scfg, reqs)
	if err != nil {
		return nil, err
	}
	// Machine-level outcomes the serving layer cannot see: chaos volume
	// and the epoch GC's read-after-retire count (always asserted 0).
	rep.FaultsInjected = sys.FaultsInjected()
	rep.EpochViolations = sys.EpochViolations()
	// Without resilience every read answers at its arrival, so the kept
	// results are checkable against the host model.
	if cfg.KeepResults && !cfg.Resilient {
		rep.Mismatches = serve.Verify(gen, reqs, rep.Results)
	}
	if rep.Batch != nil {
		// Engine-side amortization counters the serving layer cannot see.
		st := sys.accel.Stats()
		rep.Batch.Levels = st.BatchLevels
		rep.Batch.TranslationsSaved = st.BatchTranslationsSaved
		rep.Batch.CoalescedProbes = st.BatchCoalescedProbes
		rep.Batch.Deferred = st.BatchDeferred
	}
	if cfg.Timeline != "" {
		if err := os.WriteFile(cfg.Timeline, []byte(sys.ExportTrace()), 0o644); err != nil {
			return nil, fmt.Errorf("qei: serving timeline: %w", err)
		}
	}
	return rep, nil
}
