package exp

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"qei"
	"qei/internal/golden"
)

// TestStreamingGolden pins the served paths: the qei.RunServing JSON
// report of each row is compared with its testdata file. The kind rows
// are the streaming experiment's (software inserts and deletes beside
// in-flight accelerated reads, epoch reclamation, the kinds' rehash,
// rebuild, split and merge maintenance): where each node lands and when
// the epoch GC reuses retired memory decide the served cycles. The
// qeiserve rows are the configs cmd/qeiserve builds for the ci.sh
// serving smokes, so chaos, resilience and batched admission are pinned
// too. After an intended model change, regenerate the files as package
// golden describes.
func TestStreamingGolden(t *testing.T) {
	type row struct {
		name, file string
		cfg        qei.ServingConfig
	}
	var rows []row
	for _, kind := range []qei.StructKind{qei.KindCuckoo, qei.KindSkipList, qei.KindBST, qei.KindBTree, qei.KindLinkedList} {
		rows = append(rows, row{kind.String(), "streaming_" + kind.String() + ".json", streamingConfig(Small, kind)})
	}
	spurious := qei.MustParseFaultSpec("9:spurious=0.3")
	chaos := qei.MustParseFaultSpec("9:spurious=0.3,flip=0.03,shootdown=0.05")
	resilient := func(c *qei.ServingConfig) {
		c.Resilient, c.Faults = true, &chaos
		c.WriteFraction, c.SLO, c.Tenants, c.Requests, c.KeysPerTenant = 0.1, 4000, 3, 300, 64
	}
	rows = append(rows,
		row{"serve-qei", "qeiserve_serve_qei.json", qeiserveConfig(func(c *qei.ServingConfig) {
			c.Tenants, c.Requests, c.KeysPerTenant = 2, 60, 32
		})},
		row{"serve-baseline", "qeiserve_serve_baseline.json", qeiserveConfig(func(c *qei.ServingConfig) {
			c.Backend, c.Tenants, c.Requests, c.KeysPerTenant = "baseline", 2, 60, 32
		})},
		row{"rw-chaos", "qeiserve_rw_chaos.json", qeiserveConfig(func(c *qei.ServingConfig) {
			c.Tenants, c.Kind, c.WriteFraction, c.Requests, c.KeysPerTenant = 1, qei.KindBTree, 0.3, 200, 64
			c.Faults = &spurious
		})},
		row{"resilience", "qeiserve_resilience.json", qeiserveConfig(resilient)},
		row{"resilience-batchadmit", "qeiserve_resilience_batchadmit.json", qeiserveConfig(func(c *qei.ServingConfig) {
			resilient(c)
			c.BatchAdmit = 16
		})},
		row{"batchadmit", "qeiserve_batchadmit.json", qeiserveConfig(func(c *qei.ServingConfig) {
			c.BatchAdmit, c.Tenants, c.Requests, c.KeysPerTenant = 16, 2, 80, 64
		})},
	)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			rep, err := qei.RunServing(r.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", r.file), string(got)+"\n")
		})
	}
}

// qeiserveConfig returns the config cmd/qeiserve builds from the flags
// that set applies: qeiserve's flag defaults (-delfrac 0.4) under them,
// and results kept and checked unless -resilient.
func qeiserveConfig(set func(c *qei.ServingConfig)) qei.ServingConfig {
	c := qei.DefaultServingConfig()
	c.DeleteFraction = 0.4
	set(&c)
	c.KeepResults = !c.Resilient
	return c
}
