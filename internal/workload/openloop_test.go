package workload_test

import (
	"testing"

	"qei"
	"qei/internal/scheme"
	"qei/internal/serve"
	"qei/internal/workload"
)

// openLoop serves n uniform lookups into one tenant's cuckoo table of
// DPDK's small key count, arriving open-loop every gap cycles on
// average, and returns the serving report. Answers are checked against
// the host model.
func openLoop(t *testing.T, k scheme.Kind, gap uint64, n int) *serve.Report {
	t.Helper()
	cfg := qei.DefaultServingConfig()
	cfg.Scheme = k
	cfg.Tenants = 1
	cfg.Kind = qei.KindCuckoo
	cfg.TenantSkew, cfg.KeySkew = 0, 0
	cfg.SLO = 0
	cfg.KeepResults = true
	cfg.KeysPerTenant, cfg.Requests, cfg.MeanGap = workload.SmallDPDK().Keys, n, gap
	rep, err := qei.RunServing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%s/%d: %d answers disagreed with the host model", k, gap, rep.Mismatches)
	}
	return rep
}

func TestOpenLoopLatencyBasics(t *testing.T) {
	p := openLoop(t, scheme.CoreIntegrated, 500, 100).Total
	if p.Requests != 100 {
		t.Fatalf("requests = %d", p.Requests)
	}
	if p.MeanLatency <= 0 || p.P99 < p.P50 || p.MaxLatency < p.P99 {
		t.Fatalf("inconsistent profile: %+v", p)
	}
}

func TestOpenLoopTailGrowsUnderLoad(t *testing.T) {
	// At arrival intervals far below the per-query service rate the QST
	// saturates and queueing delay pushes the tail out; at relaxed
	// arrival rates the tail stays near the unloaded latency.
	relaxed := openLoop(t, scheme.CoreIntegrated, 2000, 150).Total
	slammed := openLoop(t, scheme.CoreIntegrated, 5, 150).Total
	if slammed.P99 <= relaxed.P99 {
		t.Fatalf("p99 under overload (%d) should exceed relaxed p99 (%d)",
			slammed.P99, relaxed.P99)
	}
	if slammed.MeanLatency <= relaxed.MeanLatency {
		t.Fatal("average latency should grow under overload")
	}
}

func TestOpenLoopDeviceTailWorse(t *testing.T) {
	// The device schemes' long access latency shows directly in the
	// unloaded latency distribution (Sec. II-B, Challenge 2).
	core := openLoop(t, scheme.CoreIntegrated, 3000, 100).Total
	dev := openLoop(t, scheme.DeviceIndirect, 3000, 100).Total
	if dev.P50 <= core.P50 {
		t.Fatalf("device median latency (%d) should exceed core-integrated (%d)", dev.P50, core.P50)
	}
}

func TestOpenLoopValidation(t *testing.T) {
	cfg := qei.DefaultServingConfig()
	cfg.MeanGap = 0
	if _, err := qei.RunServing(cfg); err == nil {
		t.Fatal("zero interarrival accepted")
	}
}
