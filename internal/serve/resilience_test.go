package serve

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"qei/internal/trace"
)

var errInjected = errors.New("injected fault")

// flakyBackend is a fakeBackend whose first failFirst queries complete
// with a fault riding in Result.Err (the accelerator-exception shape):
// the query retires normally, the answer is garbage.
type flakyBackend struct {
	fakeBackend
	failFirst uint64
}

func (f *flakyBackend) QueryAsync(t Table, key []byte) (Handle, error) {
	h, err := f.fakeBackend.QueryAsync(t, key)
	if err != nil {
		return nil, err
	}
	if f.queries <= f.failFirst {
		fh := h.(*fakeHandle)
		fh.res.Err = errInjected
		fh.res.Found = false
		fh.res.Value = 0
	}
	return h, nil
}

// softBackend is the test safety net: blocking queries over the
// primary's own tables on the shared clock, at a higher fixed latency —
// the same shape as the software walker over the accelerator's machine.
type softBackend struct {
	p       *fakeBackend
	lat     uint64
	queries uint64
}

func (s *softBackend) Name() string { return "soft" }
func (s *softBackend) Build(kind string, keys [][]byte, values []uint64) (Table, error) {
	return nil, errors.New("soft: tables are built on the primary")
}
func (s *softBackend) Query(t Table, key []byte) (Result, error) {
	s.queries++
	v, ok := s.p.tables[int(t.(fakeTable))][string(key)]
	s.p.now += s.lat
	return Result{Found: ok, Value: v, Done: s.p.now}, nil
}
func (s *softBackend) QueryAsync(t Table, key []byte) (Handle, error) {
	res, err := s.Query(t, key)
	if err != nil {
		return nil, err
	}
	return &fakeHandle{res: res, done: true}, nil
}
func (s *softBackend) Poll(h Handle) (Result, error) { return h.(*fakeHandle).res, nil }
func (s *softBackend) Wait(h Handle) (Result, error) { return h.(*fakeHandle).res, nil }
func (s *softBackend) Now() uint64                   { return s.p.now }
func (s *softBackend) Advance(n uint64)              { s.p.now += n }
func (s *softBackend) Capacity() int                 { return 1 }
func (s *softBackend) Stats() Stats                  { return Stats{Queries: s.queries} }

// smallGen is a low-rate single-skew stream small enough that every
// resilience outcome is hand-checkable.
func smallGen(requests int) GenConfig {
	cfg := testGen()
	cfg.Requests = requests
	cfg.MeanGap = 500
	return cfg
}

func TestResilienceRetryRecovers(t *testing.T) {
	gen := smallGen(40)
	reqs, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	b := &flakyBackend{fakeBackend: fakeBackend{lat: 100, cap: 8}, failFirst: 1}
	soft := &softBackend{p: &b.fakeBackend, lat: 1000}
	cfg := Config{Gen: gen, Resilience: &Resilience{Failover: soft}}
	rep, err := Run(b, cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// The one faulting query is retried once; the retry (query #2)
	// succeeds, so nothing fails over and no fault reaches the report.
	if rep.Total.Retries != 1 {
		t.Fatalf("retries = %d, want 1", rep.Total.Retries)
	}
	if rep.Total.FailedOver != 0 || soft.queries != 0 {
		t.Fatalf("failover used (%d, soft %d) though the retry succeeded", rep.Total.FailedOver, soft.queries)
	}
	if rep.Total.Faults != 0 {
		t.Fatalf("faults = %d surfaced despite recovery", rep.Total.Faults)
	}
	if rep.Total.Requests != uint64(len(reqs)) || rep.Total.Found != uint64(len(reqs)) {
		t.Fatalf("requests %d found %d, want %d", rep.Total.Requests, rep.Total.Found, len(reqs))
	}
}

func TestResilienceFailoverAfterRetries(t *testing.T) {
	gen := smallGen(40)
	reqs, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals two breaker windows apart: each window holds only one
	// request's two faulting attempts, below the breaker's sample
	// minimum, so every request walks the ladder rung by rung.
	for i := range reqs {
		reqs[i].At = uint64(i) * 2 * polWindow
	}
	// Every primary query faults, forever.
	b := &flakyBackend{fakeBackend: fakeBackend{lat: 100, cap: 8}, failFirst: 1 << 60}
	soft := &softBackend{p: &b.fakeBackend, lat: 1000}
	cfg := Config{Gen: gen, KeepResults: true, Resilience: &Resilience{Failover: soft}}
	rep, err := Run(b, cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(len(reqs))
	if rep.Total.Retries != n {
		t.Fatalf("retries = %d, want one per request (%d)", rep.Total.Retries, n)
	}
	if rep.Total.FailedOver != n || soft.queries != n {
		t.Fatalf("failedOver = %d soft = %d, want %d", rep.Total.FailedOver, soft.queries, n)
	}
	// The safety net answers correctly: degraded, not wrong.
	if rep.Total.Found != n || rep.Total.Faults != 0 {
		t.Fatalf("found %d faults %d, want %d found 0 faults", rep.Total.Found, rep.Total.Faults, n)
	}
	for i, res := range rep.Results {
		want := TenantValue(reqs[i].Tenant, int(res.Value&0xFFFFFFFF)-1)
		if !res.Found || res.Value != want {
			t.Fatalf("request %d failed-over result %+v does not decode", i, res)
		}
	}
	// Degraded latency is charged honestly: every request paid at least
	// the software walk.
	if rep.Total.P50 < soft.lat {
		t.Fatalf("p50 %d below the software latency %d", rep.Total.P50, soft.lat)
	}
}

func TestResilienceBreakerRoutesAroundPrimary(t *testing.T) {
	gen := smallGen(200)
	reqs, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	b := &flakyBackend{fakeBackend: fakeBackend{lat: 100, cap: 8}, failFirst: 1 << 60}
	soft := &softBackend{p: &b.fakeBackend, lat: 300}
	cfg := Config{Gen: gen, Resilience: &Resilience{Failover: soft}}
	rep, err := Run(b, cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Breaker == nil {
		t.Fatal("no breaker report")
	}
	if rep.Breaker.Trips == 0 || rep.Breaker.State != "open" {
		t.Fatalf("breaker did not trip and hold: %+v", rep.Breaker)
	}
	if rep.Breaker.FastFails == 0 {
		t.Fatal("open breaker fast-failed nothing")
	}
	// Once open, the primary stops seeing queries: it handled only the
	// pre-trip prefix, the safety net everything.
	if b.queries >= uint64(len(reqs))/2 {
		t.Fatalf("primary still served %d of %d queries with the breaker open", b.queries, len(reqs))
	}
	if rep.Total.Requests != uint64(len(reqs)) || rep.Total.Found != uint64(len(reqs)) {
		t.Fatalf("requests %d found %d, want %d", rep.Total.Requests, rep.Total.Found, len(reqs))
	}
	// Every fast-failed request was served by failover.
	if rep.Total.FailedOver < rep.Breaker.FastFails {
		t.Fatalf("failed over %d < fast fails %d", rep.Total.FailedOver, rep.Breaker.FastFails)
	}
	checkTotals(t, rep)
}

func TestResilienceBreakerRecovers(t *testing.T) {
	gen := smallGen(300)
	reqs, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	// The primary is rotten for its first 12 queries, then heals.
	b := &flakyBackend{fakeBackend: fakeBackend{lat: 100, cap: 8}, failFirst: 12}
	soft := &softBackend{p: &b.fakeBackend, lat: 300}
	tr := trace.New(0)
	cfg := Config{Gen: gen, Trace: tr, Resilience: &Resilience{Failover: soft}}
	rep, err := Run(b, cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Breaker.Trips == 0 {
		t.Fatal("rotten prefix never tripped the breaker")
	}
	if rep.Breaker.State != "closed" {
		t.Fatalf("breaker state %q at end of a healed run, want closed", rep.Breaker.State)
	}
	if rep.Breaker.Probes == 0 {
		t.Fatal("breaker closed without probing")
	}
	// After closing, the healed primary serves the tail.
	if b.queries < uint64(len(reqs))/2 {
		t.Fatalf("primary served only %d of %d queries after healing", b.queries, len(reqs))
	}
	// The degraded stretch shows up as a trace span, the trip as a point.
	var sawTrip, sawDegraded, sawFailover bool
	for _, e := range tr.Events() {
		switch e.Name {
		case "breaker_trip":
			sawTrip = true
		case "breaker_degraded":
			sawDegraded = true
		case "failover":
			sawFailover = true
		}
		if e.Pid != trace.PidServe && e.Cat == "serve" {
			t.Fatalf("serve event on pid %d, want %d", e.Pid, trace.PidServe)
		}
	}
	if !sawTrip || !sawDegraded || !sawFailover {
		t.Fatalf("missing trace events: trip=%v degraded=%v failover=%v", sawTrip, sawDegraded, sawFailover)
	}
}

func TestResilienceDeadlineSheds(t *testing.T) {
	gen := testGen()
	gen.Tenants = 1
	gen.Requests = 60
	gen.MeanGap = 50 // arrivals far outpace the 2000-cycle service time
	reqs, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	b := &fakeBackend{lat: 2000, cap: 1}
	cfg := Config{Gen: gen, SlotsPerTenant: 1, KeepResults: true,
		Resilience: &Resilience{Deadline: 3000}}
	rep, err := Run(b, cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Shed == 0 {
		t.Fatal("saturated run with a tight deadline shed nothing")
	}
	if rep.Total.Requests+rep.Total.Shed != uint64(len(reqs)) {
		t.Fatalf("completed %d + shed %d != %d", rep.Total.Requests, rep.Total.Shed, len(reqs))
	}
	// Shed never surfaces as a fault or an error.
	if rep.Total.Faults != 0 {
		t.Fatalf("shedding recorded %d faults", rep.Total.Faults)
	}
	// The fix under test: shed requests' waits land in the aggregate
	// histogram, so the tail is not silently flattered. A shed request's
	// kept result is stamped at the shed cycle, so the mean and maximum
	// over every request's Done - At are the report's, with the shed
	// included.
	var sum, worst uint64
	for i, res := range rep.Results {
		lat := res.Done - reqs[i].At
		sum += lat
		worst = max(worst, lat)
	}
	if mean := float64(sum) / float64(len(reqs)); rep.Total.MeanLatency != mean || rep.Total.MaxLatency != worst {
		t.Fatalf("report mean %.1f max %d, want %.1f and %d over all %d requests (shed included)",
			rep.Total.MeanLatency, rep.Total.MaxLatency, mean, worst, len(reqs))
	}
	checkTotals(t, rep)
}

// TestAdmissionStallBackendFull drives the backend-full stall: a
// backend that reports capacity but admits nothing wedges the server
// with an empty queue, which must surface as ErrAdmissionStall.
func TestAdmissionStallBackendFull(t *testing.T) {
	gen := smallGen(4)
	reqs, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	b := &fakeBackend{lat: 100, cap: 0}
	_, err = Run(b, Config{Gen: gen, SlotsPerTenant: 2}, reqs)
	if err == nil {
		t.Fatal("zero-capacity backend served the stream")
	}
	if !errors.Is(err, ErrAdmissionStall) {
		t.Fatalf("err = %v, want ErrAdmissionStall", err)
	}
}

// TestAdmissionStallTenantBound drives the tenant-bound stall through a
// poisoned admission controller: the tenant is at its limit with
// nothing of its own in flight — unreachable through Run's public
// balance, i.e. exactly the accounting bug the sentinel names.
func TestAdmissionStallTenantBound(t *testing.T) {
	gen := smallGen(4)
	reqs, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(&fakeBackend{lat: 100, cap: 8}, Config{Gen: gen, SlotsPerTenant: 1}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Leak the tenant's only slot.
	if !s.adm.TryAcquire(reqs[0].Tenant) {
		t.Fatal("could not poison the admission controller")
	}
	err = s.serve(&reqs[0])
	if err == nil {
		t.Fatal("stalled tenant served")
	}
	if !errors.Is(err, ErrAdmissionStall) {
		t.Fatalf("err = %v, want ErrAdmissionStall", err)
	}
}

// TestResilienceOffIsByteIdentical pins the opt-in contract: a nil
// Resilience and a present-but-idle one produce identical reports on a
// clean run, and the clean report's JSON carries no resilience fields.
func TestResilienceOffIsByteIdentical(t *testing.T) {
	gen := testGen()
	reqs, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	run := func(res *Resilience) *Report {
		rep, err := Run(&fakeBackend{lat: 200, cap: 8}, Config{Gen: gen, SLO: 400, Resilience: res}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	off := run(nil)
	idle := run(&Resilience{Deadline: 1 << 50})
	if !reflect.DeepEqual(off, idle) {
		t.Fatalf("idle resilience changed the report:\noff  %+v\nidle %+v", off, idle)
	}
	j, err := json.Marshal(off)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"shed", "retries", "failed_over", "breaker", "faults_injected", "epoch_violations"} {
		if strings.Contains(string(j), `"`+field+`"`) {
			t.Fatalf("clean report JSON mentions %q: %s", field, j)
		}
	}
}

// TestResilienceDeterministic pins run-to-run identity of the full
// chaos ladder: retries, failovers, shedding, and breaker trips all
// live on the simulated clock, so two identical runs match exactly.
func TestResilienceDeterministic(t *testing.T) {
	gen := testGen()
	gen.Requests = 300
	reqs, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Report {
		b := &flakyBackend{fakeBackend: fakeBackend{lat: 300, cap: 8}, failFirst: 40}
		soft := &softBackend{p: &b.fakeBackend, lat: 900}
		rep, err := Run(b, Config{Gen: gen, SLO: 1000, Resilience: &Resilience{
			Deadline: 20000,
			Failover: soft,
		}}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r2 := run(), run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("identical chaos runs produced different reports")
	}
	if r1.Total.Retries == 0 || r1.Total.FailedOver == 0 || r1.Breaker.Trips == 0 {
		t.Fatalf("chaos run exercised nothing: %+v breaker %+v", r1.Total, r1.Breaker)
	}
}
