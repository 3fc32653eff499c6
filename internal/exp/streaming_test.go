package exp

import (
	"bytes"
	"encoding/json"
	"testing"

	"qei"
	"qei/internal/serve"
)

func TestStreamingSerialParallelIdentical(t *testing.T) {
	serial, err := streamingConsistency(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := streamingConsistency(Small, 4)
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != par.String() {
		t.Fatalf("parallel run diverged from serial:\n%s\nvs\n%s", serial, par)
	}
	if len(serial.Rows) != 4 {
		t.Fatalf("%d rows, want 4 structure kinds", len(serial.Rows))
	}
	for _, row := range serial.Rows {
		if row[2] == "0" || row[4] != "0" || row[5] != "0" {
			t.Fatalf("row %v: want writes, no mismatches, no violations", row)
		}
	}
}

// TestStreamLiveReplayTraceIdentical records the streaming experiment's
// B+-tree stream as a JSONL trace and replays it: the replayed report
// matches the live one field for field, and both answer like the host
// model.
func TestStreamLiveReplayTraceIdentical(t *testing.T) {
	cfg := streamingConfig(Small, qei.KindBTree)
	live, err := qei.RunServing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if live.Mismatches != 0 || live.EpochViolations != 0 || live.Total.Writes == 0 {
		t.Fatalf("live run: %d mismatches, %d violations, %d writes",
			live.Mismatches, live.EpochViolations, live.Total.Writes)
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
	replay, err := qei.ReplayServing(cfg, rgen, rreqs)
	if err != nil {
		t.Fatal(err)
	}
	lj, _ := json.Marshal(live)
	rj, _ := json.Marshal(replay)
	if !bytes.Equal(lj, rj) {
		t.Fatalf("trace replay diverged:\nlive   %s\nreplay %s", lj, rj)
	}
}

// Property: across seeds and structure kinds, no in-flight query ever
// dereferences a reclaimed address (the read watcher would count a
// violation) and every answer matches the host model, even under a
// write-heavy served stream that reuses memory.
func TestStreamNoReadAfterRetireProperty(t *testing.T) {
	var reused uint64
	for _, kind := range []qei.StructKind{qei.KindSkipList, qei.KindBST, qei.KindBTree} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := streamingConfig(Small, kind)
			cfg.Seed = seed
			cfg.WriteFraction = 0.5
			cfg.DeleteFraction = 0.5
			gen := cfg.GenConfig()
			reqs, err := serve.Generate(gen)
			if err != nil {
				t.Fatal(err)
			}
			sys := qei.NewSystem(cfg.Scheme, qei.WithSeed(seed))
			b, err := qei.NewServingBackend(cfg.Backend, sys)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := serve.Run(b, serve.Config{Gen: gen, SlotsPerTenant: cfg.SlotsPerTenant, KeepResults: true}, reqs)
			if err != nil {
				t.Fatalf("%s seed %d: %v", kind, seed, err)
			}
			if v := sys.EpochViolations(); v != 0 {
				t.Fatalf("%s seed %d: %d read-after-retire violations", kind, seed, v)
			}
			if n := serve.Verify(gen, reqs, rep.Results); n != 0 {
				t.Fatalf("%s seed %d: %d model mismatches", kind, seed, n)
			}
			es := sys.EpochStats()
			if es.Retired == 0 {
				t.Fatalf("%s seed %d: write-heavy stream retired nothing", kind, seed)
			}
			reused += es.Reused
		}
	}
	if reused == 0 {
		t.Fatal("no run ever reused reclaimed memory; the property was vacuous")
	}
}

// Chaos soak: the deterministic fault injector fires while a served
// stream mutates and queries concurrently, with the resilience layer
// off. Faulted reads ride in the report; the run must complete every
// request and stay deterministic.
func TestStreamChaosSoakWithFaults(t *testing.T) {
	cfg := streamingConfig(Small, qei.KindSkipList)
	cfg.WriteFraction = 0.4
	faults := qei.MustParseFaultSpec("11:flip=0.002,spurious=0.02,nocdelay=0.01")
	cfg.Faults = &faults

	soak, err := qei.RunServing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := soak.Total.Requests + soak.Total.Writes; got != uint64(cfg.Requests) {
		t.Fatalf("soak retired %d/%d requests", got, cfg.Requests)
	}
	if soak.FaultsInjected == 0 {
		t.Fatal("chaos schedule injected nothing")
	}
	again, err := qei.RunServing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sj, _ := json.Marshal(soak)
	aj, _ := json.Marshal(again)
	if !bytes.Equal(sj, aj) {
		t.Fatalf("chaos soak not deterministic:\n%s\n%s", sj, aj)
	}

	// The same stream without faults must behave differently — proof
	// the injector engaged the overlapped read-write path — and answer
	// like the host model.
	cfg.Faults = nil
	clean, err := qei.RunServing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cj, _ := json.Marshal(clean)
	if bytes.Equal(cj, sj) {
		t.Fatal("fault injection changed nothing; soak was vacuous")
	}
	if clean.Mismatches != 0 || clean.EpochViolations != 0 {
		t.Fatalf("clean run: %d mismatches, %d violations", clean.Mismatches, clean.EpochViolations)
	}
}
