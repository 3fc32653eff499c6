package main

import (
	"encoding/json"
	"fmt"
	"os"

	"qei"
	"qei/internal/stream"
)

// runStreamMode is the -stream entry point: one mutable table under a
// seeded mixed read-write stream, lookups held in flight across
// mutations, every op verified against the host model. The serving
// flags are reinterpreted where they overlap: -requests is the op
// count, -keys the initial population, -keyzipf the key skew, -slots
// the in-flight lookup window (0 = 8). -record/-replay use the stream
// trace format and replay byte-identically, digest included; the trace
// pins the op stream, so a replay must pass the same -kind, -scheme and
// -machine as the recording run (as serve-mode replay does -backend).
func runStreamMode(cfg qei.ServingConfig, record, replay string, jsonOut bool) {
	window := cfg.SlotsPerTenant
	if window <= 0 {
		window = 8
	}
	scfg := qei.StreamConfig{
		Scheme:         cfg.Scheme,
		Kind:           cfg.Kind,
		InitialKeys:    cfg.KeysPerTenant,
		Ops:            cfg.Requests,
		KeyLen:         cfg.KeyLen,
		WriteFraction:  cfg.WriteFraction,
		DeleteFraction: cfg.DeleteFraction,
		KeySkew:        cfg.KeySkew,
		Window:         window,
		Seed:           cfg.Seed,
		Machine:        cfg.Machine,
		Faults:         cfg.Faults,
	}

	var wl *stream.Workload
	switch {
	case replay != "":
		if record != "" {
			fail("-record and -replay are mutually exclusive")
		}
		f, err := os.Open(replay)
		if err != nil {
			fail("%v", err)
		}
		wl, err = stream.ReadTrace(f)
		f.Close()
		if err != nil {
			fail("replay %s: %v", replay, err)
		}
		// The trace's embedded config reproduces the exact run that
		// recorded it, machine seed included.
		scfg.Seed = wl.Cfg.Seed
	default:
		gen := stream.Config{
			InitialKeys:    scfg.InitialKeys,
			Ops:            scfg.Ops,
			KeyLen:         scfg.KeyLen,
			WriteFraction:  scfg.WriteFraction,
			DeleteFraction: scfg.DeleteFraction,
			KeySkew:        scfg.KeySkew,
			Window:         scfg.Window,
			Seed:           scfg.Seed,
		}
		var err error
		wl, err = stream.Generate(gen)
		if err != nil {
			fail("%v", err)
		}
		if record != "" {
			f, err := os.Create(record)
			if err != nil {
				fail("%v", err)
			}
			if err := stream.WriteTrace(f, wl); err != nil {
				f.Close()
				fail("record %s: %v", record, err)
			}
			if err := f.Close(); err != nil {
				fail("record %s: %v", record, err)
			}
			fmt.Fprintf(os.Stderr, "qeiserve: recorded %d stream ops to %s\n", len(wl.Ops), record)
		}
	}

	rep, err := qei.ReplayStream(scfg, wl)
	if err != nil {
		fail("stream: %v", err)
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		doc := struct {
			Experiment string            `json:"experiment"`
			Scheme     string            `json:"scheme"`
			Kind       string            `json:"kind"`
			Gen        stream.Config     `json:"gen"`
			Report     *qei.StreamReport `json:"report"`
			Digest     string            `json:"digest"`
		}{"stream", scfg.Scheme.String(), scfg.Kind.String(), wl.Cfg, rep,
			fmt.Sprintf("%016x", rep.Digest)}
		if err := enc.Encode(doc); err != nil {
			fail("%v", err)
		}
	} else {
		fmt.Printf("stream kind=%s scheme=%s window=%d seed=%d\n",
			scfg.Kind, scfg.Scheme, wl.Cfg.Window, wl.Cfg.Seed)
		// Counter lines mirror the stream/ metric names the engine
		// registers, so scripts can grep either surface.
		fmt.Printf("stream/ops_total %d\n", rep.Ops)
		fmt.Printf("stream/gets %d\n", rep.Gets)
		fmt.Printf("stream/puts %d\n", rep.Puts)
		fmt.Printf("stream/dels %d\n", rep.Dels)
		fmt.Printf("stream/hits %d\n", rep.Hits)
		fmt.Printf("stream/misses %d\n", rep.Misses)
		fmt.Printf("stream/mismatches %d\n", rep.Mismatches)
		fmt.Printf("stream/faulted %d\n", rep.Faulted)
		fmt.Printf("mut    inserts=%d deletes=%d rehashes=%d splits=%d merges=%d rebuilds=%d\n",
			rep.Mut.Inserts, rep.Mut.Deletes, rep.Mut.Rehashes, rep.Mut.Splits,
			rep.Mut.Merges, rep.Mut.Rebuilds)
		fmt.Printf("epoch  retired=%d reclaimed=%d reused=%d violations=%d\n",
			rep.Epoch.Retired, rep.Epoch.Reclaimed, rep.Epoch.Reused, rep.Epoch.Violations)
		fmt.Printf("lat    p50=%d p99=%d max_outstanding=%d\n", rep.P50, rep.P99, rep.MaxOutstanding)
		fmt.Printf("digest %016x\n", rep.Digest)
	}
	if rep.Mismatches != 0 || rep.Epoch.Violations != 0 {
		fail("stream inconsistent: %d mismatches, %d read-after-retire violations",
			rep.Mismatches, rep.Epoch.Violations)
	}
}
