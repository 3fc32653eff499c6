package qei

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"qei/internal/serve"
)

// TestQueryBatchOverCapacity pins the over-QST-capacity contract of
// QueryBatch: the level-wise engine runs a batch several times the QST
// capacity as one batched instruction, never surfaces ErrQSTFull, and
// returns one result per key in key order.
func TestQueryBatchOverCapacity(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	cap := sys.QSTCapacity()
	n := 3*cap + 5
	keys, vals := testKeys(n, 16, 11)
	tb := mustBuild(t, sys, KindCuckoo, keys, vals)

	results, err := sys.QueryBatch(tb, keys)
	if err != nil {
		t.Fatalf("QueryBatch over capacity (%d keys, QST %d): %v", n, cap, err)
	}
	if len(results) != n {
		t.Fatalf("got %d results for %d keys", len(results), n)
	}
	for i, r := range results {
		if !r.Found || r.Value != vals[i] {
			t.Fatalf("key %d: %+v want value %d — results not in key order", i, r, vals[i])
		}
	}

	// Misses interleaved past capacity stay in key order too.
	miss := make([][]byte, cap+3)
	for i := range miss {
		miss[i] = []byte("absent-key-0123!")
	}
	mres, err := sys.QueryBatch(tb, miss)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range mres {
		if r.Found {
			t.Fatalf("miss %d reported found", i)
		}
	}
}

// TestServingReplayIdentical pins the record/replay contract: serving a
// trace read back from the JSONL recording produces a byte-identical
// report to the live run that generated the stream.
func TestServingReplayIdentical(t *testing.T) {
	cfg := DefaultServingConfig()
	cfg.Requests = 120
	cfg.Tenants = 3

	live, err := RunServing(cfg)
	if err != nil {
		t.Fatal(err)
	}

	gen := cfg.GenConfig()
	reqs, err := serve.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := serve.WriteTrace(&buf, gen, reqs); err != nil {
		t.Fatal(err)
	}
	rgen, rreqs, err := serve.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ReplayServing(cfg, rgen, rreqs)
	if err != nil {
		t.Fatal(err)
	}

	lj, _ := json.Marshal(live)
	rj, _ := json.Marshal(replayed)
	if !bytes.Equal(lj, rj) {
		t.Fatalf("replayed report differs from live run:\nlive   %s\nreplay %s", lj, rj)
	}
}

// TestServingGenParallelIdentical pins end-to-end determinism across
// generation worker counts: the served report is identical whether the
// stream was generated serially or by a worker pool.
func TestServingGenParallelIdentical(t *testing.T) {
	base := DefaultServingConfig()
	base.Requests = 100
	base.Tenants = 3

	var want *serve.Report
	for _, workers := range []int{1, 4} {
		cfg := base
		cfg.GenWorkers = workers
		rep, err := RunServing(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = rep
			continue
		}
		if !reflect.DeepEqual(want, rep) {
			t.Fatalf("report differs at GenWorkers=%d:\nwant %+v\ngot  %+v", workers, want, rep)
		}
	}
}

// TestServingBackendsAgreeOnValues pins backend interchangeability: the
// accelerator and the software baseline serve the identical stream
// through the shared Backend interface and return the same Found/Value
// for every request (cycle counts legitimately differ).
func TestServingBackendsAgreeOnValues(t *testing.T) {
	for _, kind := range []StructKind{KindCuckoo, KindBST, KindSkipList} {
		cfg := DefaultServingConfig()
		cfg.Requests = 90
		cfg.Tenants = 3
		cfg.Kind = kind
		cfg.KeepResults = true

		reports := map[string]*serve.Report{}
		for _, be := range ServingBackends() {
			c := cfg
			c.Backend = be
			rep, err := RunServing(c)
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, be, err)
			}
			if rep.Backend != be {
				t.Fatalf("report names backend %q, want %q", rep.Backend, be)
			}
			reports[be] = rep
		}
		q, b := reports["qei"], reports["baseline"]
		if len(q.Results) != cfg.Requests || len(b.Results) != cfg.Requests {
			t.Fatalf("%s: kept %d/%d results, want %d", kind, len(q.Results), len(b.Results), cfg.Requests)
		}
		for i := range q.Results {
			qr, br := q.Results[i], b.Results[i]
			if qr.Found != br.Found || qr.Value != br.Value {
				t.Fatalf("%s request %d: qei (found=%v value=%d) vs baseline (found=%v value=%d)",
					kind, i, qr.Found, qr.Value, br.Found, br.Value)
			}
			if (qr.Err == nil) != (br.Err == nil) {
				t.Fatalf("%s request %d: fault disagreement: qei=%v baseline=%v", kind, i, qr.Err, br.Err)
			}
		}
		if q.Total.Found == 0 {
			t.Fatalf("%s: no request found its key — stream not exercising tables", kind)
		}
	}
}

// TestServingMixedReadWrite drives a 20%-write stream through both real
// backends: tenant tables build mutable, software mutations interleave
// with in-flight accelerated lookups, and both backends answer like the
// host model and agree on every request's architectural outcome. The
// mixed run replays byte-identically from its recorded trace.
func TestServingMixedReadWrite(t *testing.T) {
	cfg := DefaultServingConfig()
	cfg.Requests = 160
	cfg.Tenants = 3
	cfg.WriteFraction = 0.2
	cfg.DeleteFraction = 0.3
	cfg.KeepResults = true

	reports := map[string]*serve.Report{}
	for _, be := range ServingBackends() {
		c := cfg
		c.Backend = be
		rep, err := RunServing(c)
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		if rep.Total.Writes == 0 {
			t.Fatalf("%s: mixed stream retired no writes", be)
		}
		if rep.Total.Requests+rep.Total.Writes != uint64(cfg.Requests) {
			t.Fatalf("%s: reads %d + writes %d != %d", be, rep.Total.Requests, rep.Total.Writes, cfg.Requests)
		}
		if rep.Total.WriteP99 == 0 {
			t.Fatalf("%s: write latency never observed", be)
		}
		if rep.Mismatches != 0 {
			t.Fatalf("%s: %d answers disagree with the host model", be, rep.Mismatches)
		}
		reports[be] = rep
	}
	q, b := reports["qei"], reports["baseline"]
	for i := range q.Results {
		qr, br := q.Results[i], b.Results[i]
		if qr.Found != br.Found || qr.Value != br.Value {
			t.Fatalf("request %d: qei (found=%v value=%d) vs baseline (found=%v value=%d)",
				i, qr.Found, qr.Value, br.Found, br.Value)
		}
	}

	// Trace round trip: the op annotations survive and the replay is
	// byte-identical to the live qei run.
	gen := cfg.GenConfig()
	reqs, err := serve.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := serve.WriteTrace(&buf, gen, reqs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"op":"put"`)) || !bytes.Contains(buf.Bytes(), []byte(`"op":"del"`)) {
		t.Fatal("trace carries no op annotations")
	}
	rgen, rreqs, err := serve.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ReplayServing(cfg, rgen, rreqs)
	if err != nil {
		t.Fatal(err)
	}
	lj, _ := json.Marshal(reports["qei"])
	rj, _ := json.Marshal(replayed)
	if !bytes.Equal(lj, rj) {
		t.Fatalf("mixed-stream replay differs from live run:\nlive   %s\nreplay %s", lj, rj)
	}
}

// TestNewServingBackendUnknown pins the error for unregistered names.
func TestNewServingBackendUnknown(t *testing.T) {
	if _, err := NewServingBackend("gpu", NewSystem(CoreIntegrated)); err == nil {
		t.Fatal("expected error for unknown backend name")
	}
}

// TestServingBackendUnknownKind pins that a serving adapter's builders
// reject an unknown kind name with the typed sentinel.
func TestServingBackendUnknownKind(t *testing.T) {
	keys, vals := testKeys(8, 16, 9)
	for _, name := range ServingBackends() {
		b, err := NewServingBackend(name, NewSystem(CoreIntegrated))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Build("nosuch", keys, vals); !errors.Is(err, ErrUnknownKind) {
			t.Fatalf("%s Build(nosuch) = %v, want ErrUnknownKind", name, err)
		}
		if _, err := b.(serve.Mutator).BuildMutable("nosuch", keys, vals); !errors.Is(err, ErrUnknownKind) {
			t.Fatalf("%s BuildMutable(nosuch) = %v, want ErrUnknownKind", name, err)
		}
	}
}
