package exp

import (
	"fmt"

	"qei"
)

// This file is the streaming experiment: single-tenant read-write
// streams served through the same serving path as every other request
// stream (qei.RunServing), one row per mutable structure kind, each
// checked against the host model (serve.Verify) and the epoch GC's
// read-after-retire watcher.

// streamingConfig is one row of the streaming experiment: a single
// tenant's read-write stream (30% writes, 40% of them deletes, Zipf
// 0.99 keys) over a mutable table of the given kind, with up to eight
// lookups in flight across the writes and every answer kept for the
// host-model check.
func streamingConfig(s Scale, kind qei.StructKind) qei.ServingConfig {
	cfg := qei.DefaultServingConfig()
	cfg.Tenants = 1
	cfg.Kind = kind
	cfg.KeysPerTenant, cfg.Requests = 96, 420
	if s == FullScale {
		cfg.KeysPerTenant, cfg.Requests = 512, 4000
	}
	cfg.WriteFraction = 0.3
	cfg.DeleteFraction = 0.4
	cfg.SlotsPerTenant = 8
	cfg.KeepResults = true
	return cfg
}

// streamingConsistency is the "streaming" experiment: the same seeded
// read-write stream served against each mutable structure kind, with
// software writes landing beside in-flight accelerated lookups under
// epoch reclamation. Every row must show zero host-model mismatches and
// zero read-after-retire violations.
func streamingConsistency(s Scale, par int) (TableData, error) {
	t := TableData{
		Title: "Streaming — epoch-consistent read-write streams (30% writes)",
		Headers: []string{"kind", "reads", "writes", "found", "mismatch",
			"viol", "p50", "p99", "write_p99"},
	}
	kinds := []qei.StructKind{qei.KindCuckoo, qei.KindSkipList, qei.KindBST, qei.KindBTree, qei.KindLinkedList}
	rows, err := mapJobs(par, kinds,
		func(kind qei.StructKind) ([][]string, error) {
			rep, err := qei.RunServing(streamingConfig(s, kind))
			if err != nil {
				return nil, err
			}
			if rep.Mismatches != 0 {
				return nil, fmt.Errorf("qei: streaming %s: %d answers disagreed with the host model",
					kind, rep.Mismatches)
			}
			if rep.EpochViolations != 0 {
				return nil, fmt.Errorf("qei: streaming %s: %d read-after-retire violations",
					kind, rep.EpochViolations)
			}
			ts := rep.Total
			return [][]string{{kind.String(), f("%d", ts.Requests), f("%d", ts.Writes),
				f("%d", ts.Found), f("%d", rep.Mismatches), f("%d", rep.EpochViolations),
				f("%d", ts.P50), f("%d", ts.P99), f("%d", ts.WriteP99)}}, nil
		})
	t.Rows = rows
	return t, err
}
