// Package exp is the paper reproduction: every figure, table, extension
// study and ablation of the evaluation, registered under one name each
// and run by cmd/qeibench. It drives the simulator through the public
// qei API and the internal workload drivers; nothing in qei imports it.
package exp

import "qei/internal/runner"

// Experiment is one registered figure/table reproduction.
type Experiment struct {
	// Name is the CLI selector (fig7, tab1, ...).
	Name string
	// Title is a one-line description.
	Title string
	// Run produces the experiment's table at the given scale, fanning
	// its independent jobs across par workers (<= 0 means GOMAXPROCS, 1
	// forces the serial path). Results are collected in input order, so
	// the table is byte-identical at any worker count.
	Run func(s Scale, par int) (TableData, error)
}

// mapJobs fans one job per item across par runner workers; each job
// returns its group of results (table rows, bench records), and the
// groups are concatenated in input order so the output matches the
// serial run byte for byte.
func mapJobs[J, R any](par int, jobs []J, fn func(job J) ([]R, error)) ([]R, error) {
	groups, err := runner.Map(par, jobs, fn)
	if err != nil {
		return nil, err
	}
	var out []R
	for _, g := range groups {
		out = append(out, g...)
	}
	return out, nil
}

// Experiments lists every figure/table reproduction in paper order,
// then the ablations — the registry behind cmd/qeibench.
func Experiments() []Experiment { return experiments(new(memo)) }

// experiments is the registry whose entries read their workload runs
// (cells) and the batch sweep from m, so each is simulated once.
func experiments(m *memo) []Experiment {
	return []Experiment{
		{Name: "fig1", Title: "query share of CPU time", Run: m.fig1QueryTimeShare},
		{Name: "tab1", Title: "integration scheme comparison", Run: tabI},
		{Name: "tab2", Title: "simulated CPU configuration", Run: tabII},
		{Name: "fig7", Title: "lookup speedup per scheme", Run: m.fig7},
		{Name: "fig8", Title: "device-indirect latency sensitivity", Run: m.fig8},
		{Name: "fig9", Title: "end-to-end throughput improvement", Run: m.fig9},
		{Name: "fig10", Title: "tuple-space search with QUERY_NB", Run: m.fig10TupleSpace},
		{Name: "fig11", Title: "dynamic instruction reduction", Run: m.fig11InstrReduction},
		{Name: "tab3", Title: "area and static power", Run: tabIII},
		{Name: "fig12", Title: "dynamic energy per query", Run: m.fig12DynamicPower},
		{Name: "tail", Title: "open-loop latency percentiles", Run: tailLatency},
		{Name: "scale", Title: "multi-core scalability", Run: scalability},
		{Name: "noc", Title: "NoC bandwidth utilization", Run: nocUtilization},
		{Name: "serving", Title: "multi-tenant serving percentiles per backend", Run: servingPercentiles},
		{Name: "dse", Title: "design-space Pareto frontier", Run: dseFrontier},
		{Name: "streaming", Title: "epoch-consistent read-write streams", Run: streamingConsistency},
		{Name: "batch", Title: "level-wise vs windowed batch execution", Run: m.batchTable},
		{Name: "abl-qst", Title: "ablation: QST entries", Run: m.ablationQSTSize},
		{Name: "abl-remote", Title: "ablation: remote vs local comparison", Run: m.ablationRemoteCompare},
		{Name: "abl-translation", Title: "ablation: translation path", Run: m.ablationTranslation},
		{Name: "abl-batch", Title: "ablation: QUERY_B batch size", Run: m.ablationBatch},
		{Name: "abl-skew", Title: "ablation: query-key skew", Run: m.ablationSkew},
		{Name: "abl-index", Title: "ablation: index structure", Run: ablationIndex},
		{Name: "abl-hugepage", Title: "ablation: fragmented vs contiguous layout", Run: ablationHugePage},
		// bench must stay last: earlier entries are indexed by position in
		// tests and scripts.
		{Name: "bench", Title: "machine-readable benchmark matrix", Run: m.benchTable},
	}
}
