package exp

import (
	"qei"
	"qei/internal/serve"
)

// servingPercentiles is the "serving" experiment: the same seeded
// multi-tenant open-loop trace served by the software baseline and the
// QEI accelerator behind the shared Backend interface, reported as
// per-tenant latency percentiles and SLO violations.
func servingPercentiles(s Scale, par int) (TableData, error) {
	t := TableData{
		Title: "Serving — multi-tenant open-loop latency per backend (cycles)",
		Headers: []string{"backend", "tenant", "requests", "throttled",
			"slo_viol", "p50", "p99", "p999"},
	}
	base := qei.DefaultServingConfig()
	if s == FullScale {
		base.Tenants = 16
		base.Requests = 4000
		base.KeysPerTenant = 256
		base.MeanGap = 200
	}
	rows, err := mapJobs(par, qei.ServingBackends(),
		func(backend string) ([][]string, error) {
			cfg := base
			cfg.Backend = backend
			rep, err := qei.RunServing(cfg)
			if err != nil {
				return nil, err
			}
			var rows [][]string
			row := func(ts serve.TenantStats) []string {
				tenant := "all"
				if ts.Tenant >= 0 {
					tenant = f("%d", ts.Tenant)
				}
				return []string{backend, tenant, f("%d", ts.Requests),
					f("%d", ts.Throttled), f("%d", ts.SLOViolations),
					f("%d", ts.P50), f("%d", ts.P99), f("%d", ts.P999)}
			}
			for _, ts := range rep.Tenants {
				rows = append(rows, row(ts))
			}
			rows = append(rows, row(rep.Total))
			return rows, nil
		})
	t.Rows = rows
	return t, err
}
