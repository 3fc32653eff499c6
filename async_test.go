package qei

import (
	"errors"
	"strings"
	"testing"

	"qei/internal/hwdesc"
	"qei/internal/serve"
)

// TestAsyncLifecycle walks the full Sec. IV-D story: issue, interrupt,
// observe the abort through the sentinel errors, reissue.
func TestAsyncLifecycle(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(64, 32, 11)
	tb, err := sys.Build(KindSkipList, keys, vals)
	if err != nil {
		t.Fatal(err)
	}

	h, err := sys.QueryAsync(tb, keys[0])
	if err != nil {
		t.Fatal(err)
	}
	// The query is in flight at the issue point: Poll must not advance
	// the clock and must report ErrResultPending.
	before := sys.Now()
	if _, err := sys.Poll(h); !errors.Is(err, ErrResultPending) {
		t.Fatalf("Poll on in-flight query: err = %v, want ErrResultPending", err)
	}
	if sys.Now() != before {
		t.Fatalf("Poll advanced the clock %d -> %d", before, sys.Now())
	}

	// Interrupt flushes it; both Wait and Poll now report ErrAborted.
	sys.Interrupt()
	if _, err := sys.Wait(h); !errors.Is(err, ErrAborted) {
		t.Fatalf("Wait on aborted query: err = %v, want ErrAborted", err)
	}
	if _, err := sys.Poll(h); !errors.Is(err, ErrAborted) {
		t.Fatalf("Poll on aborted query: err = %v, want ErrAborted", err)
	}

	// Software reissues; the retry completes and verifies.
	h2, err := sys.QueryAsync(tb, keys[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Wait(h2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Value != vals[0] {
		t.Fatalf("reissued query: %+v want value %d", res, vals[0])
	}
	// Wait retired h2: the system forgot it.
	if _, err := sys.Poll(h2); !errors.Is(err, ErrUnknownHandle) {
		t.Fatalf("Poll after Wait retired the handle: err = %v, want ErrUnknownHandle", err)
	}
	// Once the clock has passed completion, Poll agrees with Wait, and
	// retires the handle just as Wait does.
	h3, err := sys.QueryAsync(tb, keys[0])
	if err != nil {
		t.Fatal(err)
	}
	sys.Advance(1 << 20)
	if res3, err := sys.Poll(h3); err != nil || res3.Found != res.Found || res3.Value != res.Value {
		t.Fatalf("Poll after completion: %+v, %v; Wait gave %+v", res3, err, res)
	}
	if _, err := sys.Wait(h3); !errors.Is(err, ErrUnknownHandle) {
		t.Fatalf("Wait after Poll retired the handle: err = %v, want ErrUnknownHandle", err)
	}
}

func TestWaitUnknownHandle(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	if _, err := sys.Wait(AsyncHandle{tag: 999}); !errors.Is(err, ErrUnknownHandle) {
		t.Fatalf("err = %v, want ErrUnknownHandle", err)
	}
	if _, err := sys.Poll(AsyncHandle{tag: 999}); !errors.Is(err, ErrUnknownHandle) {
		t.Fatalf("Poll: err = %v, want ErrUnknownHandle", err)
	}
}

func TestQueryAsyncQSTFull(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(64, 32, 12)
	tb, err := sys.Build(KindSkipList, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	cap := sys.QSTCapacity()
	handles := make([]AsyncHandle, 0, cap)
	full := false
	// Issue until the architectural bound trips. The clock advances at
	// each accept, so early queries may retire mid-loop; issuing 4x the
	// capacity guarantees the bound is reached if it is enforced at all.
	for i := 0; i < 4*cap; i++ {
		h, err := sys.QueryAsync(tb, keys[i%len(keys)])
		if errors.Is(err, ErrQSTFull) {
			full = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if !full {
		t.Fatalf("issued %d queries (QST capacity %d) without ErrQSTFull", 4*cap, cap)
	}
	// List-2 recovery: drain one completion, reissue, and verify.
	if _, err := sys.Wait(handles[0]); err != nil {
		t.Fatal(err)
	}
	h, err := sys.QueryAsync(tb, keys[0])
	if err != nil {
		t.Fatalf("reissue after drain: %v", err)
	}
	if res, err := sys.Wait(h); err != nil || !res.Found {
		t.Fatalf("drained reissue: %+v, %v", res, err)
	}
}

func TestQueryBatch(t *testing.T) {
	sys := NewSystem(CHATLB)
	keys, vals := testKeys(200, 16, 13)
	tb := mustBuild(t, sys, KindCuckoo, keys, vals)

	// Batch twice the QST capacity: the level-wise engine holds one QST
	// entry for the whole batch, so the size is not bounded by it.
	n := 2 * sys.QSTCapacity()
	if n > len(keys) {
		n = len(keys)
	}
	results, err := sys.QueryBatch(tb, keys[:n])
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("%d results for %d keys", len(results), n)
	}
	for i, r := range results {
		if !r.Found || r.Value != vals[i] {
			t.Fatalf("batch result %d: %+v want %d", i, r, vals[i])
		}
	}

	// A missing key reports Found=false, not an error.
	miss := [][]byte{make([]byte, 16)}
	res, err := sys.QueryBatch(tb, miss)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Found {
		t.Fatal("absent key reported found")
	}
}

func TestNewSystemOptions(t *testing.T) {
	base := NewSystem(CoreIntegrated)
	d := hwdesc.ForScheme(CoreIntegrated)
	d.QST.Entries = 32
	big := NewSystem(CoreIntegrated, WithMachineSpec(MachineSpec{d: d}))
	if big.QSTCapacity() <= base.QSTCapacity() {
		t.Fatalf("32-entry QST spec: capacity %d not above default %d",
			big.QSTCapacity(), base.QSTCapacity())
	}

	traced := NewSystem(CoreIntegrated, WithTimeline())
	keys, vals := testKeys(8, 16, 15)
	tb := mustBuild(t, traced, KindCuckoo, keys, vals)
	if _, err := traced.Query(tb, keys[0]); err != nil {
		t.Fatal(err)
	}
	if doc := traced.ExportTrace(); !strings.Contains(doc, `"cat":"qst"`) {
		t.Fatalf("WithTimeline recorded no query spans: %s", doc)
	}

	// WithSeed steers the mutable skip list's level coins: same seed,
	// same layout; the structures stay queryable either way.
	for _, seed := range []int64{1, 42} {
		s := NewSystem(CoreIntegrated, WithSeed(seed))
		mt, err := s.BuildMutable(KindSkipList, keys, vals)
		if err != nil {
			t.Fatal(err)
		}
		if err := mt.Insert([]byte("0123456789abcdef"), 777); err != nil {
			t.Fatal(err)
		}
		res, err := mt.Query([]byte("0123456789abcdef"))
		if err != nil || !res.Found || res.Value != 777 {
			t.Fatalf("seed %d: inserted key not found: %+v, %v", seed, res, err)
		}
	}
}

// TestServedRunRetiresResults serves a stream through the accelerator
// backend, per query and with batched admission: once the run drains,
// the accelerator holds no record of any query the System issued, and a
// second Wait on a retired handle reports ErrUnknownHandle.
func TestServedRunRetiresResults(t *testing.T) {
	for _, batch := range []int{0, 8} {
		cfg := DefaultServingConfig()
		cfg.Requests = 300
		cfg.Tenants = 2
		gen := cfg.GenConfig()
		reqs, err := serve.Generate(gen)
		if err != nil {
			t.Fatal(err)
		}
		sys := NewSystem(CoreIntegrated)
		backend, err := NewServingBackend("qei", sys)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := serve.Run(backend, serve.Config{Gen: gen, SLO: cfg.SLO, BatchAdmit: batch}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Total.Requests != uint64(cfg.Requests) || sys.tag < uint64(cfg.Requests) {
			t.Fatalf("batch %d: served %d of %d requests with %d tags", batch, rep.Total.Requests, cfg.Requests, sys.tag)
		}
		if batch > 0 && (rep.Batch == nil || rep.Batch.Batches == 0) {
			t.Fatalf("batch %d: no batch flushed", batch)
		}
		for tag := uint64(1); tag <= sys.tag; tag++ {
			if r, ok := sys.accel.Result(tag); ok {
				t.Fatalf("batch %d: tag %d still recorded after the run drained: %+v", batch, tag, r)
			}
		}
	}

	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(16, 16, 3)
	tb := mustBuild(t, sys, KindBST, keys, vals)
	h, err := sys.QueryAsync(tb, keys[5])
	if err != nil {
		t.Fatal(err)
	}
	if res, err := sys.Wait(h); err != nil || res.Value != vals[5] {
		t.Fatalf("first Wait: %+v, %v", res, err)
	}
	if _, err := sys.Wait(h); !errors.Is(err, ErrUnknownHandle) {
		t.Fatalf("second Wait on a retired handle: err = %v, want ErrUnknownHandle", err)
	}
	// A blocking query retires when it returns.
	if res, err := sys.Query(tb, keys[6]); err != nil || res.Value != vals[6] {
		t.Fatalf("Query: %+v, %v", res, err)
	}
	if r, ok := sys.accel.Result(sys.tag); ok {
		t.Fatalf("blocking query's tag %d still recorded: %+v", sys.tag, r)
	}
}
