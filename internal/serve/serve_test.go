package serve

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func testGen() GenConfig {
	return GenConfig{
		Tenants:       4,
		Requests:      400,
		KeysPerTenant: 64,
		KeyLen:        16,
		Kind:          "cuckoo",
		TenantSkew:    0.99,
		KeySkew:       0.99,
		MeanGap:       50,
		Seed:          7,
	}
}

func TestGenerateSerialParallelIdentical(t *testing.T) {
	cfg := testGen()
	serial, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := GenerateParallel(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("parallel generation (%d workers) differs from serial", workers)
		}
	}
}

func TestGenerateDeterministicAndSkewed(t *testing.T) {
	cfg := testGen()
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config generated different streams")
	}
	if len(a) != cfg.Requests {
		t.Fatalf("generated %d requests, want %d", len(a), cfg.Requests)
	}
	// Arrival order, sequential Seq.
	for i := range a {
		if a[i].Seq != i {
			t.Fatalf("request %d has seq %d", i, a[i].Seq)
		}
		if i > 0 && a[i].At < a[i-1].At {
			t.Fatalf("arrivals out of order at %d: %d < %d", i, a[i].At, a[i-1].At)
		}
	}
	// Zipf tenant popularity: tenant 0 must dominate tenant N-1.
	counts := make([]int, cfg.Tenants)
	for _, r := range a {
		counts[r.Tenant]++
	}
	if counts[0] <= counts[cfg.Tenants-1] {
		t.Fatalf("tenant popularity not skewed: %v", counts)
	}
	// Different seed, different stream.
	cfg2 := cfg
	cfg2.Seed = 8
	c, err := Generate(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical streams")
	}
}

func TestTenantCountsExact(t *testing.T) {
	for _, tenants := range []int{1, 3, 7, 24} {
		for _, reqs := range []int{1, 10, 997} {
			cfg := GenConfig{Tenants: tenants, Requests: reqs, TenantSkew: 0.99}
			counts := tenantCounts(cfg)
			sum := 0
			for _, c := range counts {
				sum += c
			}
			if sum != reqs {
				t.Fatalf("tenants=%d requests=%d: counts sum to %d", tenants, reqs, sum)
			}
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	cfg := testGen()
	reqs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, cfg, reqs); err != nil {
		t.Fatal(err)
	}
	gotCfg, gotReqs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotCfg != cfg {
		t.Fatalf("config round-trip: got %+v want %+v", gotCfg, cfg)
	}
	if !reflect.DeepEqual(gotReqs, reqs) {
		t.Fatal("request stream round-trip differs")
	}

	// A record whose seq is not its position would misfile results
	// (kept by Seq); the reader names the first such line.
	buf.Reset()
	if err := WriteTrace(&buf, cfg, reqs[:4]); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	lines[1] = strings.Replace(lines[1], `"seq":0,`, `"seq":7,`, 1)
	lines[2] = strings.Replace(lines[2], `"seq":1,`, `"seq":0,`, 1)
	_, _, err = ReadTrace(strings.NewReader(strings.Join(lines, "\n")))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("out-of-place seq: err %v, want a line 2 error", err)
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	var h LatencyHist
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Max() != 1000 {
		t.Fatalf("max %d", h.Max())
	}
	checks := []struct {
		q     float64
		exact uint64
	}{{0.50, 500}, {0.99, 990}, {0.999, 999}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		rel := math.Abs(float64(got)-float64(c.exact)) / float64(c.exact)
		if rel > 0.07 {
			t.Errorf("q%.3f = %d, want ~%d (rel err %.3f)", c.q, got, c.exact, rel)
		}
		if got > h.Max() {
			t.Errorf("q%.3f = %d exceeds max %d", c.q, got, h.Max())
		}
	}
	// Bucket mapping sanity: every value lands in a bucket whose range
	// contains it.
	for _, v := range []uint64{0, 1, 31, 32, 33, 1000, 1 << 20, 1<<40 + 12345} {
		i := bucketIndex(v)
		if bucketMax(i) < v {
			t.Errorf("value %d maps to bucket %d with max %d", v, i, bucketMax(i))
		}
		if i > 0 && bucketMax(i-1) >= v {
			t.Errorf("value %d maps above bucket %d (max %d)", v, i-1, bucketMax(i-1))
		}
	}
}

func TestLatencyHistMerge(t *testing.T) {
	var a, b, all LatencyHist
	for v := uint64(0); v < 500; v++ {
		a.Observe(v * 3)
		all.Observe(v * 3)
	}
	for v := uint64(0); v < 300; v++ {
		b.Observe(v * 7)
		all.Observe(v * 7)
	}
	a.Merge(&b)
	if a != all {
		t.Fatal("merged histogram differs from directly-fed histogram")
	}
}

func TestAdmission(t *testing.T) {
	a := NewAdmission(2, 2)
	if !a.TryAcquire(0) || !a.TryAcquire(0) {
		t.Fatal("under-bound acquire refused")
	}
	if a.TryAcquire(0) {
		t.Fatal("over-bound acquire admitted")
	}
	if a.Throttled(0) != 1 {
		t.Fatalf("throttled %d, want 1", a.Throttled(0))
	}
	if !a.TryAcquire(1) {
		t.Fatal("tenant 1 starved by tenant 0's bound")
	}
	a.Release(0)
	if !a.TryAcquire(0) {
		t.Fatal("released slot not reusable")
	}
	if NewAdmission(1, 0).Limit() != 1 {
		t.Fatal("limit not clamped to 1")
	}
}

// fakeBackend is a synthetic adapter for server-loop tests: tables are
// maps, each query completes a fixed latency after issue, and at most
// cap queries may be in flight.
type fakeBackend struct {
	now      uint64
	lat      uint64
	cap      int
	inflight int
	queries  uint64
	writes   uint64
	tables   []map[string]uint64
}

type fakeTable int

type fakeHandle struct {
	res  Result
	done bool
}

func (f *fakeBackend) Name() string { return "fake" }

func (f *fakeBackend) Build(kind string, keys [][]byte, values []uint64) (Table, error) {
	m := make(map[string]uint64, len(keys))
	for i, k := range keys {
		m[string(k)] = values[i]
	}
	f.tables = append(f.tables, m)
	return fakeTable(len(f.tables) - 1), nil
}

func (f *fakeBackend) lookup(t Table, key []byte) Result {
	f.queries++
	v, ok := f.tables[int(t.(fakeTable))][string(key)]
	return Result{Found: ok, Value: v, Done: f.now + f.lat}
}

func (f *fakeBackend) Query(t Table, key []byte) (Result, error) {
	res := f.lookup(t, key)
	f.now = res.Done
	return res, nil
}

func (f *fakeBackend) QueryAsync(t Table, key []byte) (Handle, error) {
	if f.inflight >= f.cap {
		return nil, ErrBackendFull
	}
	f.inflight++
	return &fakeHandle{res: f.lookup(t, key)}, nil
}

func (f *fakeBackend) finish(h *fakeHandle) {
	if !h.done {
		h.done = true
		f.inflight--
	}
}

func (f *fakeBackend) Poll(h Handle) (Result, error) {
	fh := h.(*fakeHandle)
	if fh.res.Done > f.now {
		return Result{}, ErrPending
	}
	f.finish(fh)
	return fh.res, nil
}

func (f *fakeBackend) Wait(h Handle) (Result, error) {
	fh := h.(*fakeHandle)
	if fh.res.Done > f.now {
		f.now = fh.res.Done
	}
	f.finish(fh)
	return fh.res, nil
}

func (f *fakeBackend) Now() uint64      { return f.now }
func (f *fakeBackend) Advance(n uint64) { f.now += n }
func (f *fakeBackend) Capacity() int    { return f.cap }
func (f *fakeBackend) Stats() Stats     { return Stats{Queries: f.queries} }

// fakeBackend also implements Mutator: map tables are mutable as-is.
func (f *fakeBackend) BuildMutable(kind string, keys [][]byte, values []uint64) (Table, error) {
	return f.Build(kind, keys, values)
}

func (f *fakeBackend) Insert(t Table, key []byte, value uint64) error {
	f.tables[int(t.(fakeTable))][string(key)] = value
	f.writes++
	return nil
}

func (f *fakeBackend) Delete(t Table, key []byte) (bool, error) {
	m := f.tables[int(t.(fakeTable))]
	_, ok := m[string(key)]
	delete(m, string(key))
	f.writes++
	return ok, nil
}

// roBackend strips the Mutator methods off a fakeBackend, modeling a
// backend with no write path.
type roBackend struct{ f *fakeBackend }

func (r roBackend) Name() string { return r.f.Name() }
func (r roBackend) Build(kind string, keys [][]byte, values []uint64) (Table, error) {
	return r.f.Build(kind, keys, values)
}
func (r roBackend) Query(t Table, key []byte) (Result, error)      { return r.f.Query(t, key) }
func (r roBackend) QueryAsync(t Table, key []byte) (Handle, error) { return r.f.QueryAsync(t, key) }
func (r roBackend) Poll(h Handle) (Result, error)                  { return r.f.Poll(h) }
func (r roBackend) Wait(h Handle) (Result, error)                  { return r.f.Wait(h) }
func (r roBackend) Now() uint64                                    { return r.f.Now() }
func (r roBackend) Advance(n uint64)                               { r.f.Advance(n) }
func (r roBackend) Capacity() int                                  { return r.f.Capacity() }
func (r roBackend) Stats() Stats                                   { return r.f.Stats() }

func TestServerRunFake(t *testing.T) {
	cfg := Config{Gen: testGen(), SLO: 400, KeepResults: true}
	reqs, err := Generate(cfg.Gen)
	if err != nil {
		t.Fatal(err)
	}
	b := &fakeBackend{lat: 200, cap: 8}
	rep, err := Run(b, cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Requests != uint64(len(reqs)) {
		t.Fatalf("retired %d of %d requests", rep.Total.Requests, len(reqs))
	}
	// Every generated key was built into its tenant's table.
	if rep.Total.Found != rep.Total.Requests {
		t.Fatalf("found %d of %d", rep.Total.Found, rep.Total.Requests)
	}
	// Values match the deterministic tenant/rank encoding.
	for i, res := range rep.Results {
		want := TenantValue(reqs[i].Tenant, int(res.Value&0xFFFFFFFF)-1)
		if res.Value != want {
			t.Fatalf("request %d value %#x does not decode", i, res.Value)
		}
	}
	// Minimum possible latency is the backend's service time.
	if rep.Total.P50 < b.lat {
		t.Fatalf("p50 %d below service latency %d", rep.Total.P50, b.lat)
	}
	if rep.Total.P50 > rep.Total.P99 || rep.Total.P99 > rep.Total.P999 {
		t.Fatalf("percentiles not monotone: %d %d %d", rep.Total.P50, rep.Total.P99, rep.Total.P999)
	}
	sumReq := uint64(0)
	for _, ts := range rep.Tenants {
		sumReq += ts.Requests
	}
	if sumReq != rep.Total.Requests {
		t.Fatal("per-tenant requests do not sum to total")
	}
}

// checkTotals asserts the report's aggregate row is the per-tenant rows
// summed: every counter adds up, and the aggregate maximum is the
// largest tenant maximum with p50 <= p99 <= p999 <= max beneath it.
func checkTotals(t *testing.T, rep *Report) {
	t.Helper()
	var sum TenantStats
	for _, ts := range rep.Tenants {
		sum.Requests += ts.Requests
		sum.Found += ts.Found
		sum.Faults += ts.Faults
		sum.Throttled += ts.Throttled
		sum.SLOViolations += ts.SLOViolations
		sum.Writes += ts.Writes
		sum.Shed += ts.Shed
		sum.Retries += ts.Retries
		sum.FailedOver += ts.FailedOver
		sum.MaxLatency = max(sum.MaxLatency, ts.MaxLatency)
	}
	tot := rep.Total
	if sum.Requests != tot.Requests || sum.Found != tot.Found || sum.Faults != tot.Faults ||
		sum.Throttled != tot.Throttled || sum.SLOViolations != tot.SLOViolations ||
		sum.Writes != tot.Writes || sum.Shed != tot.Shed || sum.Retries != tot.Retries ||
		sum.FailedOver != tot.FailedOver || sum.MaxLatency != tot.MaxLatency {
		t.Fatalf("per-tenant rows sum to %+v, total row is %+v", sum, tot)
	}
	if tot.P50 > tot.P99 || tot.P99 > tot.P999 || tot.P999 > tot.MaxLatency {
		t.Fatalf("total percentiles not monotone: p50 %d p99 %d p999 %d max %d",
			tot.P50, tot.P99, tot.P999, tot.MaxLatency)
	}
}

func TestServerDeterministicAndMetrics(t *testing.T) {
	gen := testGen()
	reqs, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Report {
		cfg := Config{Gen: gen, SLO: 300, SlotsPerTenant: 2}
		rep, err := Run(&fakeBackend{lat: 250, cap: 8}, cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1 := run()
	r2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("two identical runs produced different reports")
	}
	if r1.Total.Requests != uint64(len(reqs)) {
		t.Fatalf("total requests = %d, want %d", r1.Total.Requests, len(reqs))
	}
	checkTotals(t, r1)
	// A saturating open loop with a tight per-tenant bound must actually
	// throttle and violate the SLO somewhere.
	if r1.Total.Throttled == 0 {
		t.Fatal("no throttling under saturation")
	}
	if r1.Total.SLOViolations == 0 {
		t.Fatal("no SLO violations under saturation")
	}
}

func TestServerAdmissionIsolation(t *testing.T) {
	// One hot tenant at 4x the load of three cold ones: with per-tenant
	// slots the cold tenants' p99 must stay well below the hot tenant's.
	gen := testGen()
	gen.TenantSkew = 1.5 // sharpen the skew
	gen.MeanGap = 30     // saturate
	reqs, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(&fakeBackend{lat: 400, cap: 8}, Config{Gen: gen, SlotsPerTenant: 2}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := rep.Tenants[0], rep.Tenants[gen.Tenants-1]
	if hot.Requests <= cold.Requests {
		t.Fatalf("skew missing: hot %d cold %d", hot.Requests, cold.Requests)
	}
	if cold.P99 > hot.P99 {
		t.Fatalf("cold tenant p99 %d above hot tenant p99 %d despite admission bound", cold.P99, hot.P99)
	}
}

func TestRunRejectsBadStream(t *testing.T) {
	gen := testGen()
	reqs := []Request{{Seq: 0, Tenant: gen.Tenants + 3, At: 0, Key: make([]byte, gen.KeyLen)}}
	if _, err := Run(&fakeBackend{lat: 10, cap: 4}, Config{Gen: gen}, reqs); err == nil {
		t.Fatal("out-of-range tenant accepted")
	}
}

func TestGenConfigValidate(t *testing.T) {
	bad := []GenConfig{
		{},
		{Tenants: 1, Requests: 1, KeysPerTenant: 1, KeyLen: 4, MeanGap: 1},
		{Tenants: 1, Requests: 1, KeysPerTenant: 1, KeyLen: 8, MeanGap: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if err := testGen().Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestTenantKeysUnique(t *testing.T) {
	cfg := testGen()
	seen := make(map[string]bool)
	for tn := 0; tn < cfg.Tenants; tn++ {
		keys, values := TenantKeys(cfg, tn)
		if len(keys) != cfg.KeysPerTenant || len(values) != cfg.KeysPerTenant {
			t.Fatal("wrong population")
		}
		for r, k := range keys {
			if len(k) != cfg.KeyLen {
				t.Fatalf("key length %d", len(k))
			}
			if seen[string(k)] {
				t.Fatalf("duplicate key tenant %d rank %d", tn, r)
			}
			seen[string(k)] = true
			if values[r] == 0 {
				t.Fatal("zero value")
			}
		}
	}
}

// testGenRW is testGen with a 30% write mix (of which 30% deletes).
func testGenRW() GenConfig {
	cfg := testGen()
	cfg.WriteFraction = 0.3
	cfg.DeleteFraction = 0.3
	return cfg
}

// Enabling writes must not perturb the read-side stream: arrivals, keys
// and tenants are drawn from their own RNGs, so the mixed stream is the
// read-only stream with ops annotated onto it.
func TestGenerateWritesPreserveArrivals(t *testing.T) {
	ro, err := Generate(testGen())
	if err != nil {
		t.Fatal(err)
	}
	rw, err := Generate(testGenRW())
	if err != nil {
		t.Fatal(err)
	}
	if len(ro) != len(rw) {
		t.Fatalf("stream lengths differ: %d vs %d", len(ro), len(rw))
	}
	var gets, puts, dels int
	for i := range rw {
		if rw[i].At != ro[i].At || rw[i].Tenant != ro[i].Tenant || !bytes.Equal(rw[i].Key, ro[i].Key) {
			t.Fatalf("request %d read side diverged: %+v vs %+v", i, rw[i], ro[i])
		}
		switch rw[i].Op {
		case OpGet:
			gets++
		case OpPut:
			puts++
			if rw[i].Value == 0 {
				t.Fatalf("request %d: zero put value", i)
			}
		case OpDel:
			dels++
		}
	}
	if gets == 0 || puts == 0 || dels == 0 {
		t.Fatalf("stream not mixed: %d gets %d puts %d dels", gets, puts, dels)
	}
}

func TestTraceRoundTripWithOps(t *testing.T) {
	cfg := testGenRW()
	reqs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, cfg, reqs); err != nil {
		t.Fatal(err)
	}
	gotCfg, gotReqs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotCfg != cfg || !reflect.DeepEqual(gotReqs, reqs) {
		t.Fatal("mixed-stream trace round-trip differs")
	}

	// Read-only traces never mention ops — byte-compatible with the
	// pre-write format.
	buf.Reset()
	roReqs, err := Generate(testGen())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&buf, testGen(), roReqs); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"op"`)) ||
		bytes.Contains(buf.Bytes(), []byte("write_fraction")) {
		t.Fatal("read-only trace mentions write fields")
	}
}

func TestServerMixedReadWrite(t *testing.T) {
	gen := testGenRW()
	reqs, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Report {
		cfg := Config{Gen: gen, SLO: 400, WriteCost: 100, KeepResults: true}
		rep, err := Run(&fakeBackend{lat: 200, cap: 8}, cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	if rep.Total.Writes == 0 {
		t.Fatal("mixed stream retired no writes")
	}
	if got := rep.Total.Requests + rep.Total.Writes; got != uint64(len(reqs)) {
		t.Fatalf("reads %d + writes %d != %d requests", rep.Total.Requests, rep.Total.Writes, len(reqs))
	}
	// Deletes must make some subsequent lookups miss.
	if rep.Total.Found == rep.Total.Requests {
		t.Fatal("every lookup hit despite deletes")
	}
	// Write latency includes the configured mutation cost.
	if rep.Total.WriteP50 < 100 || rep.Total.WriteP99 < rep.Total.WriteP50 {
		t.Fatalf("write percentiles: p50 %d p99 %d", rep.Total.WriteP50, rep.Total.WriteP99)
	}
	checkTotals(t, rep)
	// Put results carry the written value; del results report prior
	// existence.
	for i, res := range rep.Results {
		if reqs[i].Op == OpPut && (res.Value != reqs[i].Value || !res.Found) {
			t.Fatalf("request %d put result %+v", i, res)
		}
	}
	// Deterministic: an identical rerun matches field for field.
	rep2 := run()
	if !reflect.DeepEqual(rep, rep2) {
		t.Fatal("mixed-stream rerun diverged")
	}
}

// TestServerVerifiesAgainstModel serves a read-write stream on a
// faithful backend and checks every answer against the arrival-order
// host model: no mismatch, with gets, puts and deletes all accounted
// for and both the hit and the miss path exercised.
func TestServerVerifiesAgainstModel(t *testing.T) {
	gen := testGenRW()
	reqs, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	var gets, puts, dels uint64
	for _, r := range reqs {
		switch r.Op {
		case OpGet:
			gets++
		case OpPut:
			puts++
		case OpDel:
			dels++
		}
	}
	if puts == 0 || dels == 0 || gets+puts+dels != uint64(len(reqs)) {
		t.Fatalf("op mix: %d gets, %d puts, %d dels of %d", gets, puts, dels, len(reqs))
	}
	run := func() *Report {
		rep, err := Run(&fakeBackend{lat: 200, cap: 8}, Config{Gen: gen, KeepResults: true}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	if rep.Total.Requests != gets || rep.Total.Writes != puts+dels {
		t.Fatalf("op accounting: %d reads, %d writes; want %d, %d", rep.Total.Requests, rep.Total.Writes, gets, puts+dels)
	}
	if len(rep.Results) != len(reqs) {
		t.Fatalf("%d results kept for %d requests", len(rep.Results), len(reqs))
	}
	if n := Verify(gen, reqs, rep.Results); n != 0 {
		t.Fatalf("%d answers disagree with the host model", n)
	}
	if rep.Total.Found == 0 || rep.Total.Found == rep.Total.Requests {
		t.Fatalf("stream exercised only one of the hit and miss paths: %d found of %d", rep.Total.Found, rep.Total.Requests)
	}
	if rep.Total.P50 == 0 || rep.Total.P99 < rep.Total.P50 {
		t.Fatalf("latency percentiles: p50 %d p99 %d", rep.Total.P50, rep.Total.P99)
	}
	// Same stream, same backend: identical answers.
	if !reflect.DeepEqual(run().Results, rep.Results) {
		t.Fatal("identical runs produced different results")
	}
}

// TestVerifyDetectsWrongValues gives the oracle teeth: on a faithful
// run it counts nothing, and each corrupted answer counts once — a
// flipped value, a wrong found bit on a read and on a delete — while a
// faulted read is skipped whatever it carries.
func TestVerifyDetectsWrongValues(t *testing.T) {
	gen := testGenRW()
	reqs, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(&fakeBackend{lat: 200, cap: 8}, Config{Gen: gen, KeepResults: true}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if n := Verify(gen, reqs, rep.Results); n != 0 {
		t.Fatalf("faithful run: %d mismatches", n)
	}
	// Pick a read that hit, a read that missed, and a delete.
	hit, miss, del := -1, -1, -1
	for i, r := range reqs {
		switch {
		case r.Op == OpGet && rep.Results[i].Found && hit < 0:
			hit = i
		case r.Op == OpGet && !rep.Results[i].Found && miss < 0:
			miss = i
		case r.Op == OpDel && del < 0:
			del = i
		}
	}
	if hit < 0 || miss < 0 || del < 0 {
		t.Fatalf("stream lacks a hit (%d), a miss (%d) or a delete (%d)", hit, miss, del)
	}
	corrupt := func(i int, f func(*Result)) []Result {
		rs := append([]Result(nil), rep.Results...)
		f(&rs[i])
		return rs
	}
	for name, tc := range map[string]struct {
		results []Result
		want    uint64
	}{
		"flipped value":  {corrupt(hit, func(r *Result) { r.Value ^= 1 }), 1},
		"false miss":     {corrupt(hit, func(r *Result) { r.Found = false }), 1},
		"false hit":      {corrupt(miss, func(r *Result) { r.Found = true }), 1},
		"wrong delete":   {corrupt(del, func(r *Result) { r.Found = !r.Found }), 1},
		"faulted read":   {corrupt(hit, func(r *Result) { r.Value ^= 1; r.Err = ErrPending }), 0},
		"missing result": {rep.Results[:len(rep.Results)-1], 1},
	} {
		if got := Verify(gen, reqs, tc.results); got != tc.want {
			t.Errorf("%s: %d mismatches, want %d", name, got, tc.want)
		}
	}
}

func TestServerWritesNeedMutator(t *testing.T) {
	gen := testGenRW()
	reqs, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(roBackend{&fakeBackend{lat: 10, cap: 4}}, Config{Gen: gen}, reqs)
	if err == nil {
		t.Fatal("write stream accepted by a backend with no write path")
	}
}

func TestGenConfigValidateWriteFractions(t *testing.T) {
	for _, bad := range []GenConfig{
		func() GenConfig { c := testGen(); c.WriteFraction = -0.1; return c }(),
		func() GenConfig { c := testGen(); c.WriteFraction = 1.5; return c }(),
		func() GenConfig { c := testGen(); c.DeleteFraction = 2; return c }(),
		func() GenConfig { c := testGen(); c.WriteFraction = math.NaN(); return c }(),
		func() GenConfig { c := testGen(); c.DeleteFraction = math.NaN(); return c }(),
		func() GenConfig { c := testGen(); c.WriteFraction = math.Inf(1); return c }(),
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("bad write fractions accepted: %+v", bad)
		}
	}
}

// TestGenConfigValidateSkews rejects every skew Generate cannot use:
// NaN panicked in tenantCounts and -Inf never returned.
func TestGenConfigValidateSkews(t *testing.T) {
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5} {
		tenant, key := testGen(), testGen()
		tenant.TenantSkew, key.KeySkew = s, s
		if err := tenant.Validate(); err == nil {
			t.Errorf("tenant skew %v accepted", s)
		}
		if _, err := Generate(tenant); err == nil {
			t.Errorf("Generate accepted tenant skew %v", s)
		}
		if err := key.Validate(); err == nil {
			t.Errorf("key skew %v accepted", s)
		}
	}
	for _, s := range []float64{0, 0.99, 1e308} {
		c := testGen()
		c.TenantSkew, c.KeySkew = s, s
		if err := c.Validate(); err != nil {
			t.Errorf("skew %v rejected: %v", s, err)
		}
	}
}

// sortedQuantiles cross-checks hist quantiles against exact sorted-slice
// quantiles on a skewed sample set.
func TestLatencyHistVsExact(t *testing.T) {
	var h LatencyHist
	var samples []uint64
	x := uint64(12345)
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := x % 100000
		if i%100 == 0 {
			v *= 50 // heavy tail
		}
		h.Observe(v)
		samples = append(samples, v)
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		idx := int(q*float64(len(samples))) - 1
		if idx < 0 {
			idx = 0
		}
		exact := samples[idx]
		got := h.Quantile(q)
		if exact == 0 {
			continue
		}
		rel := math.Abs(float64(got)-float64(exact)) / float64(exact)
		if rel > 0.07 {
			t.Errorf("q%.3f: hist %d vs exact %d (rel %.3f)", q, got, exact, rel)
		}
	}
}

// FuzzReadTrace feeds arbitrary bytes to ReadTrace. It must never
// panic, and an accepted trace written back with WriteTrace must read
// back equal. The seed corpus (testdata/fuzz/FuzzReadTrace) holds a
// generated read-write trace, upper-case keys, blank lines and
// malformed headers and records.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, reqs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, cfg, reqs); err != nil {
			t.Fatalf("write back: %v", err)
		}
		cfg2, reqs2, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("written-back trace does not read: %v\n%s", err, buf.Bytes())
		}
		if cfg2 != cfg || !reflect.DeepEqual(reqs2, reqs) {
			t.Fatalf("round trip changed the trace:\n%+v %+v\n%+v %+v", cfg, reqs, cfg2, reqs2)
		}
	})
}
