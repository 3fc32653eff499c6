package exp

import (
	"context"
	"fmt"

	"qei"
)

// dseFrontier is the "dse" experiment: a design-space sweep over QST
// capacity, core count, and integration scheme on the DPDK workload,
// reporting every design point with its three objective scores and its
// Pareto verdict. Small scale sweeps an 8-point grid; FullScale runs
// the standard 120-point provisioning grid.
func dseFrontier(s Scale, par int) (TableData, error) {
	t := TableData{
		Title: "DSE — Pareto frontier over (speedup, area, energy/query)",
		Headers: []string{"design", "speedup_x", "area_mm2", "static_mw",
			"energy_nj_per_query", "pareto"},
	}
	axes := "qst=8,32;cores=16,24;scheme=core,cha-tlb"
	if s == FullScale {
		axes = "" // the standard 120-point grid
	}
	res, err := qei.RunDSE(context.Background(), qei.DSEConfig{
		Workload:    "dpdk",
		FullScale:   s == FullScale,
		Axes:        axes,
		Parallelism: par,
	})
	if err != nil {
		return t, err
	}
	for _, p := range res.Points {
		verdict := "frontier"
		if p.Dominated {
			verdict = "dominated"
		}
		t.Rows = append(t.Rows, []string{
			p.Desc.Name,
			f("%.2f", p.SpeedupX),
			f("%.4f", p.AreaMM2),
			f("%.4f", p.StaticMW),
			f("%.2f", p.EnergyNJPerQuery),
			verdict,
		})
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("TOTAL %d points (%d dominated, %d invalid cells skipped)",
			len(res.Points), res.DominatedCount, res.SkippedInvalid),
		"", "", "", "", f("%d", len(res.Frontier)),
	})
	return t, nil
}
