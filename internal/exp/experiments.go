package exp

import (
	"fmt"
	"strings"

	"qei"
	"qei/internal/cpu"
	"qei/internal/hwdesc"
	"qei/internal/scheme"
	"qei/internal/workload"
)

// Scale selects experiment sizing: Small for quick runs and tests, Full
// for the paper-scale configurations of Sec. VI-B.
type Scale int

const (
	// Small shrinks structure populations and query counts for fast runs.
	Small Scale = iota
	// FullScale uses the paper's structure sizes.
	FullScale
)

func benchesFor(s Scale) []workload.Benchmark {
	if s == FullScale {
		return workload.All()
	}
	return workload.AllSmall()
}

// TableData is a rendered experiment result: structured rows that
// render themselves as aligned text or CSV.
type TableData struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// String renders the title, the headers, a dashed rule and the rows,
// each column as wide as its widest cell.
func (t TableData) String() string {
	var widths []int
	for _, r := range append([][]string{t.Headers}, t.Rows...) {
		for i, c := range r {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			widths[i] = max(widths[i], len(c))
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values, header first,
// escaping cells per RFC 4180 (several titles and scheme notes contain
// commas).
func (t TableData) CSV() string {
	var b strings.Builder
	for _, r := range append([][]string{t.Headers}, t.Rows...) {
		b.WriteString(csvRow(r))
		b.WriteByte('\n')
	}
	return b.String()
}

// withRows returns t with rows, passing err on: a renderer's last step.
func (t TableData) withRows(rows [][]string, err error) (TableData, error) {
	t.Rows = rows
	return t, err
}

// csvRow renders one escaped, comma-joined CSV record (no newline).
func csvRow(cells []string) string {
	esc := make([]string, len(cells))
	for i, c := range cells {
		esc[i] = csvField(c)
	}
	return strings.Join(esc, ",")
}

// csvField escapes one cell per RFC 4180: a field containing a comma,
// a double quote or a line break is wrapped in double quotes with its
// quotes doubled; anything else passes through unchanged.
func csvField(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
}

func f(format string, v ...any) string { return fmt.Sprintf(format, v...) }

// fig1QueryTimeShare reproduces Fig. 1: the percentage of CPU time spent
// in data-query operations for each workload (paper band: 23%–44%),
// plus the query code's frontend/backend profile from a cold ROI-only
// run (Sec. II-A): branch mispredicts and loads per query, and IPC.
func (m *memo) fig1QueryTimeShare(s Scale, par int) (TableData, error) {
	t := TableData{
		Title: "Fig. 1 — query share of CPU time (paper: 23%-44%)",
		Headers: []string{"workload", "query_share_pct", "mispredicts_per_query",
			"loads_per_query", "roi_ipc"},
	}
	return t.withRows(readCells(m, par, benchesFor(s), func(b workload.Benchmark) []cell {
		return []cell{swCell(b, workload.Full, cold), swCell(b, workload.NonROIOnly, cold), swCell(b, workload.ROIOnly, cold)}
	}, func(b workload.Benchmark, runs []workload.Run) [][]string {
		full, roi := runs[0], runs[2]
		share := float64(roiCycles(full.Cycles, runs[1].Cycles)) / float64(full.Cycles)
		q := float64(roi.Queries)
		return [][]string{{b.Name(), f("%.1f", share*100),
			f("%.2f", float64(roi.Core.Mispredicts)/q),
			f("%.1f", float64(roi.Core.Loads)/q),
			f("%.2f", roi.Core.IPC())}}
	}))
}

// tabI reproduces Table I: the qualitative comparison of integration
// schemes.
func tabI(Scale, int) (TableData, error) {
	t := TableData{
		Title: "Tab. I — comparison of integration schemes",
		Headers: []string{"scheme", "accel-core_cyc", "accel-data_cyc", "hw_cost",
			"mem_mgmt", "noc_hotspot", "private$_pollution", "scalability"},
	}
	for _, r := range scheme.TableI() {
		t.Rows = append(t.Rows, []string{
			r.Scheme, r.AccelCoreCycles, r.AccelDataCycles, r.HardwareCost,
			r.MemMgmt, r.NoCHotspot, r.PrivatePollute, r.Scalability,
		})
	}
	return t, nil
}

// tabII reproduces Table II: the simulated CPU configuration, read from
// the chip every experiment builds (hwdesc.Default), the core model
// (cpu.DefaultConfig) and the scheme table. What the simulator does not
// model — the clock, the L1I, the DRAM part, the routing algorithm, the
// DPU's ALUs — stays as words.
func tabII(Scale, int) (TableData, error) {
	d := hwdesc.Default()
	c := cpu.DefaultConfig()
	t := TableData{
		Title:   "Tab. II — simulated CPU model configuration",
		Headers: []string{"item", "configuration"},
	}
	rows := [][2]string{
		{"Cores", fmt.Sprintf("%d OoO cores, 2.5 GHz", d.Cores)},
		{"Caches", fmt.Sprintf("%d-way %s L1D/L1I, %d-way %s L2, %d-way %s shared LLC (%d slices)",
			d.L1D.Ways, sizeLabel(d.L1D.SizeBytes), d.L2.Ways, sizeLabel(d.L2.SizeBytes),
			d.LLCSlice.Ways, sizeLabel(d.LLCSlice.SizeBytes*uint64(d.Cores)), d.Cores)},
		{"LQ/SQ/ROB entries", fmt.Sprintf("%d/%d/%d", c.LoadQueueEntries, c.StoreQueueEntries, c.ROBEntries)},
		{"Memory controllers", fmt.Sprintf("%d DDR4-2666 channels", len(d.MemStops))},
		{"QEI accelerator", fmt.Sprintf("five ALUs per DPU; %s comparators per CHA (CHA/Core-integrated); %s per DPU (Device)",
			numberWord(scheme.ForKind(scheme.CHATLB).ComparatorsPerSite),
			numberWord(scheme.ForKind(scheme.DeviceDirect).ComparatorsPerSite))},
		{"NoC", fmt.Sprintf("%dx%d mesh, XY routing", d.Mesh.Cols, d.Mesh.Rows)},
		{"Process", fmt.Sprintf("%d nm", d.TechNodeNM)},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r[0], r[1]})
	}
	return t, nil
}

// sizeLabel renders a byte count in the largest binary unit that divides
// it, as Tab. II writes sizes: 32KB, 1MB, 33MB.
func sizeLabel(n uint64) string {
	switch {
	case n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// numberWord spells a count up to ten as a word, as Tab. II does.
func numberWord(n int) string {
	words := [...]string{"zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten"}
	if n >= 0 && n < len(words) {
		return words[n]
	}
	return fmt.Sprint(n)
}

// roiCycles computes the in-context ROI cycle count of a run pair: the
// full run minus the non-ROI-only run of the same benchmark (the paper's
// "performance improvement of such ROIs", Sec. VI-B).
func roiCycles(full, nonROI uint64) uint64 {
	if full <= nonROI {
		return 1
	}
	return full - nonROI
}

// fig7 reproduces Fig. 7 from the evaluation matrix: per-workload lookup
// speedup of every integration scheme over the software baseline.
func (m *memo) fig7(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Fig. 7 — speedup of lookup operations (paper: 6.5x-11.2x, CHA-TLB up to 12.7x)",
		Headers: []string{"workload", "scheme", "speedup_x"},
	}
	return t.withRows(readCells(m, par, benchesFor(s), func(b workload.Benchmark) []cell {
		return append(rowCells(workload.Full)(b), swCell(b, workload.NonROIOnly, warm))
	}, func(b workload.Benchmark, runs []workload.Run) (rows [][]string) {
		nonROI := runs[len(runs)-1].Cycles
		swROI := roiCycles(runs[0].Cycles, nonROI)
		for i, k := range scheme.Kinds() {
			sp := float64(swROI) / float64(roiCycles(runs[1+i].Cycles, nonROI))
			rows = append(rows, []string{b.Name(), k.String(), f("%.2f", sp)})
		}
		return rows
	}))
}

// fig8 reproduces Fig. 8: the Device-indirect scheme's sensitivity to
// the accelerator's data-access latency (50–2000 cycles), against the
// matrix's software runs; its 300-cycle row is the matrix's cell.
func (m *memo) fig8(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Fig. 8 — Device-indirect latency sensitivity",
		Headers: []string{"workload", "access_latency_cyc", "speedup_x"},
	}
	lats := []uint64{50, 100, 300, 600, 1000, 2000}
	var devs []scheme.Params
	for _, lat := range lats {
		// The Tab. II Device-indirect machine at this data latency.
		p, err := hwdesc.ForScheme(scheme.DeviceIndirect).WithDataLatency(lat).SchemeParams()
		if err != nil {
			return t, err
		}
		devs = append(devs, p)
	}
	return t.withRows(readCells(m, par, benchesFor(s), func(b workload.Benchmark) []cell {
		cells := []cell{swCell(b, workload.Full, warm), swCell(b, workload.NonROIOnly, warm)}
		for _, p := range devs {
			cells = append(cells, bCell(b, p, workload.Full, warm))
		}
		return cells
	}, func(b workload.Benchmark, runs []workload.Run) (rows [][]string) {
		swROI := roiCycles(runs[0].Cycles, runs[1].Cycles)
		for i, lat := range lats {
			sp := float64(swROI) / float64(roiCycles(runs[2+i].Cycles, runs[1].Cycles))
			rows = append(rows, []string{b.Name(), f("%d", lat), f("%.2f", sp)})
		}
		return rows
	}))
}

// fig9 reproduces Fig. 9 from the matrix: end-to-end query/packet-per-
// second improvement of the full applications (paper: 36.2%–66.7%).
func (m *memo) fig9(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Fig. 9 — end-to-end throughput improvement (paper: 36.2%-66.7%)",
		Headers: []string{"workload", "scheme", "improvement_pct"},
	}
	return t.withRows(readCells(m, par, benchesFor(s), rowCells(workload.Full), func(b workload.Benchmark, runs []workload.Run) (rows [][]string) {
		for i, k := range scheme.Kinds() {
			if scheme.ForKind(k).Placement == scheme.PlaceDevice {
				continue // the figure shows the integrated schemes
			}
			imp := (float64(runs[0].Cycles)/float64(runs[1+i].Cycles) - 1) * 100
			rows = append(rows, []string{b.Name(), k.String(), f("%.1f", imp)})
		}
		return rows
	}))
}

// fig10TupleSpace reproduces Fig. 10: tuple-space search with QUERY_NB
// over 5/10/15 tuples, per scheme.
func (m *memo) fig10TupleSpace(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Fig. 10 — tuple-space search speedup with QUERY_NB",
		Headers: []string{"tuples", "scheme", "speedup_x"},
	}
	return t.withRows(readCells(m, par, []int{5, 10, 15}, func(tuples int) []cell {
		var b workload.Benchmark = workload.SmallTupleSpace(tuples)
		if s == FullScale {
			b = workload.DefaultTupleSpace(tuples)
		}
		cells := []cell{swCell(b, workload.Full, warm)}
		for _, k := range scheme.Kinds() {
			cells = append(cells, cell{bench: b, params: scheme.ForKind(k), nb: true, mode: workload.Full, warm: warm})
		}
		return cells
	}, func(tuples int, runs []workload.Run) (rows [][]string) {
		for i, k := range scheme.Kinds() {
			sp := float64(runs[0].Cycles) / float64(runs[1+i].Cycles)
			rows = append(rows, []string{f("%d", tuples), k.String(), f("%.2f", sp)})
		}
		return rows
	}))
}

// fig11InstrReduction reproduces Fig. 11: dynamic instructions executed
// by the core in the ROI, software vs QEI.
func (m *memo) fig11InstrReduction(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Fig. 11 — dynamic instruction count in ROIs",
		Headers: []string{"workload", "software_instrs", "qei_instrs", "reduction_pct"},
	}
	return t.withRows(readCells(m, par, benchesFor(s), func(b workload.Benchmark) []cell {
		return []cell{swCell(b, workload.ROIOnly, cold), bCell(b, scheme.ForKind(scheme.CoreIntegrated), workload.ROIOnly, cold)}
	}, func(b workload.Benchmark, runs []workload.Run) [][]string {
		sw, hw := runs[0], runs[1]
		red := (1 - float64(hw.Core.Instructions)/float64(sw.Core.Instructions)) * 100
		return [][]string{{
			b.Name(),
			f("%d", sw.Core.Instructions),
			f("%d", hw.Core.Instructions),
			f("%.1f", red),
		}}
	}))
}

// tabIII reproduces Table III: area and static power of the three QEI
// configurations at 22 nm.
func tabIII(Scale, int) (TableData, error) {
	t := TableData{
		Title:   "Tab. III — area and static power of QEI",
		Headers: []string{"configuration", "area_mm2", "paper_mm2", "static_mW", "paper_mW"},
	}
	for _, r := range hwdesc.Default().PowerModel().TableIII() {
		t.Rows = append(t.Rows, []string{
			r.Config,
			f("%.4f", r.AreaMM2), f("%.4f", r.PaperAreaMM2),
			f("%.4f", r.StaticMW), f("%.4f", r.PaperStaticMW),
		})
	}
	return t, nil
}

// fig12DynamicPower reproduces Fig. 12: QEI's per-query dynamic energy
// relative to the software baseline (paper: >60% reduction).
func (m *memo) fig12DynamicPower(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Fig. 12 — QEI dynamic energy per query vs software (paper: <40%)",
		Headers: []string{"workload", "scheme", "energy_pct_of_software"},
	}
	model := hwdesc.Default().PowerModel()
	return t.withRows(readCells(m, par, benchesFor(s), rowCells(workload.ROIOnly), func(b workload.Benchmark, runs []workload.Run) (rows [][]string) {
		swE := model.DynamicEnergyNJ(runs[0].Activity()) / float64(runs[0].Queries)
		for i, k := range scheme.Kinds() {
			hwE := model.DynamicEnergyNJ(runs[1+i].Activity()) / float64(runs[1+i].Queries)
			rows = append(rows, []string{b.Name(), k.String(), f("%.1f", hwE/swE*100)})
		}
		return rows
	}))
}

// tailLatency runs the open-loop latency study (an extension of the
// paper's Sec. II-B QoS argument) on the serving frontend: one tenant's
// uniform lookups over a DPDK-sized cuckoo FIB arrive at a mean gap,
// whether or not earlier ones finished, and go through admission and
// QueryAsync on a cold machine. Device schemes show their long access
// latency directly in the distribution; overload pushes the tail out
// for every scheme.
func tailLatency(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Extension — open-loop query latency (cycles)",
		Headers: []string{"scheme", "interarrival", "mean", "p50", "p99", "p999"},
	}
	base := qei.DefaultServingConfig()
	base.Tenants = 1
	base.Kind = qei.KindCuckoo
	base.TenantSkew, base.KeySkew = 0, 0
	base.SLO = 0
	base.KeepResults = true
	base.KeysPerTenant, base.Requests = workload.SmallDPDK().Keys, 150
	if s == FullScale {
		base.KeysPerTenant, base.Requests = workload.DefaultDPDK().Keys, 1000
	}
	var points []qei.ServingConfig
	for _, k := range []scheme.Kind{scheme.CoreIntegrated, scheme.CHATLB, scheme.DeviceIndirect} {
		for _, gap := range []uint64{2000, 200, 20} {
			cfg := base
			cfg.Scheme, cfg.MeanGap = k, gap
			points = append(points, cfg)
		}
	}
	rows, err := mapJobs(par, points,
		func(cfg qei.ServingConfig) ([][]string, error) {
			rep, err := qei.RunServing(cfg)
			if err != nil {
				return nil, err
			}
			if rep.Mismatches != 0 {
				return nil, fmt.Errorf("qei: tail %s/%d: %d answers disagreed with the host model",
					cfg.Scheme, cfg.MeanGap, rep.Mismatches)
			}
			ts := rep.Total
			return [][]string{{
				cfg.Scheme.String(), f("%d", cfg.MeanGap), f("%.0f", ts.MeanLatency),
				f("%d", ts.P50), f("%d", ts.P99), f("%d", ts.P999),
			}}, nil
		})
	t.Rows = rows
	return t, err
}

// scalability runs the multi-core study behind Tab. I's Scalability
// column: the same aggregate query stream split across 1/2/4/8 cores.
// Core-integrated accelerators are private per core; CHA schemes share
// 24 distributed instances; device schemes funnel into one accelerator.
func scalability(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Tab. I scalability — aggregate throughput (queries/kilocycle)",
		Headers: []string{"scheme", "cores", "throughput_q_per_kcyc"},
	}
	var b workload.Benchmark = workload.SmallDPDK()
	if s == FullScale {
		b = workload.DefaultDPDK()
	}
	type point struct {
		k     scheme.Kind
		cores int
	}
	var points []point
	for _, k := range []scheme.Kind{scheme.CoreIntegrated, scheme.CHATLB, scheme.DeviceDirect, scheme.DeviceIndirect} {
		for _, cores := range []int{1, 2, 4, 8} {
			points = append(points, point{k, cores})
		}
	}
	rows, err := mapJobs(par, points,
		func(pt point) ([][]string, error) {
			r, err := workload.RunMultiCore(b, pt.k, pt.cores)
			// Every core plays its share of the ROI-only stream.
			if _, err := checked(workload.Run{Name: b.Name(), Scheme: f("%s x%d cores", pt.k, pt.cores),
				Mode: workload.ROIOnly, Mismatches: r.Mismatches}, err); err != nil {
				return nil, err
			}
			return [][]string{{pt.k.String(), f("%d", pt.cores), f("%.2f", r.Throughput)}}, nil
		})
	t.Rows = rows
	return t, err
}

// nocUtilization checks the Sec. V claim that one QEI accelerator can
// saturate a meaningful share (~8%) of the mesh NoC bandwidth ("each QEI
// accelerator can saturate as much as 8% of the mesh NoC bandwidth"),
// measured under a dense query stream: ROI only, no idle gaps.
func nocUtilization(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Sec. V — NoC bandwidth utilization of one QEI accelerator",
		Headers: []string{"workload", "scheme", "peak_link_util_pct", "mean_util_pct"},
	}
	var b workload.Benchmark = workload.SmallFLANN()
	if s == FullScale {
		b = workload.DefaultFLANN()
	}
	rows, err := mapJobs(par, []scheme.Kind{scheme.CoreIntegrated, scheme.DeviceIndirect},
		func(k scheme.Kind) ([][]string, error) {
			hw, err := checked(workload.RunQEI(b, k, workload.ROIOnly, workload.WithNoCWindow()))
			if err != nil {
				return nil, err
			}
			return [][]string{{b.Name(), k.String(),
				f("%.1f", hw.PeakLinkUtil*100), f("%.1f", hw.MeanUtil*100)}}, nil
		})
	t.Rows = rows
	return t, err
}
