package qei

import (
	"context"

	"qei/internal/dse"
	"qei/internal/hwdesc"
)

// DSEConfig describes one design-space-exploration sweep: a base
// machine, an axis grid mutating it, and the workload every resulting
// design point is scored on.
type DSEConfig struct {
	// Workload names the benchmark driving the sweep: "dpdk" (default),
	// "jvm", "rocksdb", "snort", or "flann".
	Workload string
	// FullScale uses the paper-scale benchmark population; the default
	// is the small, fast one.
	FullScale bool
	// Axes is the compact grid spec, e.g.
	// "qst=8,16,32,64;cores=8,16,24;mesh=6x4,4x4;scheme=core,cha-tlb;node=22,7".
	// Empty means the standard 120-point provisioning grid.
	Axes string
	// Base is a preset name or JSON file path for the description the
	// axes mutate; empty means the Tab. II default.
	Base string
	// Parallelism is the sweep's worker count (<= 0 means GOMAXPROCS,
	// 1 forces the serial path). Results are byte-identical at any value.
	Parallelism int
}

// DSEResult is a completed sweep: every evaluated design point in grid
// order, the indices of the Pareto frontier over (speedup, area, energy
// per query), and the counts of dominated and skipped-invalid points.
type DSEResult = dse.Result

// DSEPoint is one evaluated design point of a sweep.
type DSEPoint = dse.Point

// RunDSE expands the sweep grid and evaluates every valid design point
// on its own simulated machine: software baseline vs QEI on the same
// chip (baselines shared across points that differ only in accelerator
// sizing), scored on lookup speedup, total accelerator silicon, and
// dynamic energy per query. Bad axis specs, presets, and descriptions
// fail with errors wrapping ErrBadConfig.
func RunDSE(ctx context.Context, cfg DSEConfig) (*DSEResult, error) {
	axes := dse.DefaultAxes()
	if cfg.Axes != "" {
		var err error
		axes, err = dse.ParseAxes(cfg.Axes)
		if err != nil {
			return nil, err
		}
	}
	base := hwdesc.Default()
	if cfg.Base != "" {
		var err error
		base, err = hwdesc.Load(cfg.Base)
		if err != nil {
			return nil, err
		}
	}
	return dse.Sweep(ctx, dse.Config{
		Workload:    cfg.Workload,
		FullScale:   cfg.FullScale,
		Base:        base,
		Axes:        axes,
		Parallelism: cfg.Parallelism,
	})
}
