package main

import (
	"fmt"

	"qei"
	"qei/internal/scheme"
)

// runStreamSmoke is the -stream mode: a short epoch-consistency smoke
// that drives the default mixed read-write stream through every mutable
// structure kind on the selected scheme and machine, then replays one
// configuration to prove determinism. It exits non-zero (via fail) on
// any model mismatch, read-after-retire violation, or replay
// divergence.
func runStreamSmoke(schemeName, machine string) {
	sch, err := scheme.Parse(schemeName)
	if err != nil {
		fail("-stream needs an accelerator scheme: %v", err)
	}
	base := qei.DefaultStreamConfig()
	base.Scheme = sch
	if machine != "" {
		spec, err := qei.LoadMachineSpec(machine)
		if err != nil {
			fail("-machine: %v", err)
		}
		base.Machine = &spec
	}

	kinds := []struct {
		kind    qei.StructKind
		maxLoad float64
	}{
		// The lowered cuckoo ceiling forces an online rehash at smoke
		// scale (the build leaves the table far under the default 0.85).
		{qei.KindCuckoo, 0.10},
		{qei.KindSkipList, 0},
		{qei.KindBST, 0},
		{qei.KindBTree, 0},
	}
	fmt.Printf("stream smoke  scheme=%s ops=%d writes=%.0f%% window=%d\n",
		sch, base.Ops, base.WriteFraction*100, base.Window)
	var last *qei.StreamReport
	var lastCfg qei.StreamConfig
	for _, k := range kinds {
		cfg := base
		cfg.Kind = k.kind
		cfg.MaxLoadFactor = k.maxLoad
		rep, err := qei.RunStream(cfg)
		if err != nil {
			fail("stream %s: %v", k.kind, err)
		}
		if rep.Mismatches != 0 || rep.Epoch.Violations != 0 {
			fail("stream %s inconsistent: %d mismatches, %d violations",
				k.kind, rep.Mismatches, rep.Epoch.Violations)
		}
		fmt.Printf("%-10s hits=%-4d misses=%-4d retired=%-4d reclaimed=%-4d p99=%-6d digest=%016x\n",
			k.kind, rep.Hits, rep.Misses, rep.Epoch.Retired, rep.Epoch.Reclaimed,
			rep.P99, rep.Digest)
		last, lastCfg = rep, cfg
	}

	again, err := qei.RunStream(lastCfg)
	if err != nil {
		fail("stream replay: %v", err)
	}
	if again.Digest != last.Digest {
		fail("stream not deterministic: %016x vs %016x", again.Digest, last.Digest)
	}
	fmt.Printf("replay        digest identical (%016x)\n", again.Digest)
}
