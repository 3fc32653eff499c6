package exp

import (
	"fmt"
	"strings"

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
func fig1QueryTimeShare(s Scale, par int) (TableData, error) {
	t := TableData{
		Title: "Fig. 1 — query share of CPU time (paper: 23%-44%)",
		Headers: []string{"workload", "query_share_pct", "mispredicts_per_query",
			"loads_per_query", "roi_ipc"},
	}
	rows, err := mapJobs(par, benchesFor(s),
		func(b workload.Benchmark) ([][]string, error) {
			share, err := workload.ROIShare(b)
			if err != nil {
				return nil, err
			}
			roi, err := workload.RunBaseline(b, workload.ROIOnly)
			if err != nil {
				return nil, err
			}
			q := float64(roi.Queries)
			return [][]string{{b.Name(), f("%.1f", share*100),
				f("%.2f", float64(roi.Core.Mispredicts)/q),
				f("%.1f", float64(roi.Core.Loads)/q),
				f("%.2f", roi.Core.IPC())}}, nil
		})
	t.Rows = rows
	return t, err
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

// fig7Speedup reproduces Fig. 7: per-workload lookup speedup of every
// integration scheme over the software baseline.
func fig7Speedup(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Fig. 7 — speedup of lookup operations (paper: 6.5x-11.2x, CHA-TLB up to 12.7x)",
		Headers: []string{"workload", "scheme", "speedup_x"},
	}
	rows, err := mapJobs(par, benchesFor(s),
		func(b workload.Benchmark) ([][]string, error) {
			sw, err := workload.RunBaseline(b, workload.Full, workload.WithWarmup())
			if err != nil {
				return nil, err
			}
			non, err := workload.RunBaseline(b, workload.NonROIOnly, workload.WithWarmup())
			if err != nil {
				return nil, err
			}
			swROI := roiCycles(sw.Cycles, non.Cycles)
			var rows [][]string
			for _, k := range scheme.Kinds() {
				hw, err := workload.RunQEI(b, k, workload.Full, workload.WithWarmup())
				if err != nil {
					return nil, err
				}
				if hw.Mismatches != 0 {
					return nil, fmt.Errorf("qei: %s/%s produced %d wrong results", b.Name(), k, hw.Mismatches)
				}
				sp := float64(swROI) / float64(roiCycles(hw.Cycles, non.Cycles))
				rows = append(rows, []string{b.Name(), k.String(), f("%.2f", sp)})
			}
			return rows, nil
		})
	t.Rows = rows
	return t, err
}

// fig8LatencySweep reproduces Fig. 8: the Device-indirect scheme's
// sensitivity to the accelerator's data-access latency (50–2000 cycles).
func fig8LatencySweep(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Fig. 8 — Device-indirect latency sensitivity",
		Headers: []string{"workload", "access_latency_cyc", "speedup_x"},
	}
	latencies := []uint64{50, 100, 300, 600, 1000, 2000}
	rows, err := mapJobs(par, benchesFor(s),
		func(b workload.Benchmark) ([][]string, error) {
			sw, err := workload.RunBaseline(b, workload.Full, workload.WithWarmup())
			if err != nil {
				return nil, err
			}
			non, err := workload.RunBaseline(b, workload.NonROIOnly, workload.WithWarmup())
			if err != nil {
				return nil, err
			}
			swROI := roiCycles(sw.Cycles, non.Cycles)
			var rows [][]string
			for _, lat := range latencies {
				hw, err := workload.RunQEIWithParams(b, deviceIndirectWith(lat), workload.Full, workload.WithWarmup())
				if err != nil {
					return nil, err
				}
				sp := float64(swROI) / float64(roiCycles(hw.Cycles, non.Cycles))
				rows = append(rows, []string{b.Name(), f("%d", lat), f("%.2f", sp)})
			}
			return rows, nil
		})
	t.Rows = rows
	return t, err
}

// deviceIndirectWith materializes the Tab. II Device-indirect machine at
// the given device-interface data latency — the Fig. 8 sweep axis
// expressed as a named hwdesc description rather than parameter surgery
// (hwdesc tests pin the materialization to the former literals).
func deviceIndirectWith(lat uint64) scheme.Params {
	p, err := hwdesc.ForScheme(scheme.DeviceIndirect).WithDataLatency(lat).SchemeParams()
	if err != nil {
		panic(err) // unreachable: the preset validates
	}
	return p
}

// fig9EndToEnd reproduces Fig. 9: end-to-end query/packet-per-second
// improvement of the full applications (paper: 36.2%–66.7%).
func fig9EndToEnd(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Fig. 9 — end-to-end throughput improvement (paper: 36.2%-66.7%)",
		Headers: []string{"workload", "scheme", "improvement_pct"},
	}
	rows, err := mapJobs(par, benchesFor(s),
		func(b workload.Benchmark) ([][]string, error) {
			sw, err := workload.RunBaseline(b, workload.Full, workload.WithWarmup())
			if err != nil {
				return nil, err
			}
			var rows [][]string
			for _, k := range []scheme.Kind{scheme.CHATLB, scheme.CHANoTLB, scheme.CoreIntegrated} {
				hw, err := workload.RunQEI(b, k, workload.Full, workload.WithWarmup())
				if err != nil {
					return nil, err
				}
				imp := (float64(sw.Cycles)/float64(hw.Cycles) - 1) * 100
				rows = append(rows, []string{b.Name(), k.String(), f("%.1f", imp)})
			}
			return rows, nil
		})
	t.Rows = rows
	return t, err
}

// fig10TupleSpace reproduces Fig. 10: tuple-space search with QUERY_NB
// over 5/10/15 tuples, per scheme.
func fig10TupleSpace(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Fig. 10 — tuple-space search speedup with QUERY_NB",
		Headers: []string{"tuples", "scheme", "speedup_x"},
	}
	// QUERY_NB issue batch: large enough to keep every QST busy across
	// schemes (the device DPU has 240 entries; the software poll loop is
	// sized to this).
	const nbBatch = 32
	rows, err := mapJobs(par, []int{5, 10, 15},
		func(tuples int) ([][]string, error) {
			var b workload.Benchmark
			if s == FullScale {
				b = workload.DefaultTupleSpace(tuples)
			} else {
				b = workload.SmallTupleSpace(tuples)
			}
			sw, err := workload.RunBaseline(b, workload.Full, workload.WithWarmup())
			if err != nil {
				return nil, err
			}
			var rows [][]string
			for _, k := range scheme.Kinds() {
				hw, err := workload.RunQEINonBlocking(b, scheme.ForKind(k), nbBatch, workload.WithWarmup())
				if err != nil {
					return nil, err
				}
				if hw.Mismatches != 0 {
					return nil, fmt.Errorf("qei: tuple-%d/%s produced %d wrong results", tuples, k, hw.Mismatches)
				}
				sp := float64(sw.Cycles) / float64(hw.Cycles)
				rows = append(rows, []string{f("%d", tuples), k.String(), f("%.2f", sp)})
			}
			return rows, nil
		})
	t.Rows = rows
	return t, err
}

// fig11InstrReduction reproduces Fig. 11: dynamic instructions executed
// by the core in the ROI, software vs QEI.
func fig11InstrReduction(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Fig. 11 — dynamic instruction count in ROIs",
		Headers: []string{"workload", "software_instrs", "qei_instrs", "reduction_pct"},
	}
	rows, err := mapJobs(par, benchesFor(s),
		func(b workload.Benchmark) ([][]string, error) {
			sw, err := workload.RunBaseline(b, workload.ROIOnly)
			if err != nil {
				return nil, err
			}
			hw, err := workload.RunQEI(b, scheme.CoreIntegrated, workload.ROIOnly)
			if err != nil {
				return nil, err
			}
			red := (1 - float64(hw.Core.Instructions)/float64(sw.Core.Instructions)) * 100
			return [][]string{{
				b.Name(),
				f("%d", sw.Core.Instructions),
				f("%d", hw.Core.Instructions),
				f("%.1f", red),
			}}, nil
		})
	t.Rows = rows
	return t, err
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
func fig12DynamicPower(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Fig. 12 — QEI dynamic energy per query vs software (paper: <40%)",
		Headers: []string{"workload", "scheme", "energy_pct_of_software"},
	}
	model := hwdesc.Default().PowerModel()
	rows, err := mapJobs(par, benchesFor(s),
		func(b workload.Benchmark) ([][]string, error) {
			sw, err := workload.RunBaseline(b, workload.ROIOnly, workload.WithWarmup())
			if err != nil {
				return nil, err
			}
			swE := model.DynamicEnergyNJ(sw.Activity()) / float64(sw.Queries)
			var rows [][]string
			for _, k := range []scheme.Kind{scheme.CHATLB, scheme.CHANoTLB, scheme.DeviceDirect, scheme.DeviceIndirect, scheme.CoreIntegrated} {
				hw, err := workload.RunQEI(b, k, workload.ROIOnly, workload.WithWarmup())
				if err != nil {
					return nil, err
				}
				hwE := model.DynamicEnergyNJ(hw.Activity()) / float64(hw.Queries)
				rows = append(rows, []string{b.Name(), k.String(), f("%.1f", hwE/swE*100)})
			}
			return rows, nil
		})
	t.Rows = rows
	return t, err
}

// tailLatency runs the open-loop latency study (an extension of the
// paper's Sec. II-B QoS argument): queries arrive at a fixed rate and
// per-query latency percentiles are recorded. Device schemes show their
// long access latency directly in the distribution; overload pushes the
// tail out for every scheme.
func tailLatency(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Extension — open-loop query latency (cycles)",
		Headers: []string{"scheme", "interarrival", "avg", "p50", "p95", "p99"},
	}
	var b workload.Benchmark = workload.SmallDPDK()
	queries := 150
	if s == FullScale {
		b = workload.DefaultDPDK()
		queries = 1000
	}
	type point struct {
		k   scheme.Kind
		gap uint64
	}
	var points []point
	for _, k := range []scheme.Kind{scheme.CoreIntegrated, scheme.CHATLB, scheme.DeviceIndirect} {
		for _, gap := range []uint64{2000, 200, 20} {
			points = append(points, point{k, gap})
		}
	}
	rows, err := mapJobs(par, points,
		func(pt point) ([][]string, error) {
			p, err := workload.OpenLoopLatency(b, pt.k, pt.gap, queries)
			if err != nil {
				return nil, err
			}
			return [][]string{{
				pt.k.String(), f("%d", pt.gap), f("%.0f", p.AvgLatency),
				f("%d", p.P50), f("%d", p.P95), f("%d", p.P99),
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
			if err != nil {
				return nil, err
			}
			if r.Mismatches != 0 {
				return nil, fmt.Errorf("qei: scalability %s/%d produced %d wrong results", pt.k, pt.cores, r.Mismatches)
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
			hw, err := workload.RunQEI(b, k, workload.ROIOnly, workload.WithNoCWindow())
			if err != nil {
				return nil, err
			}
			return [][]string{{b.Name(), k.String(),
				f("%.1f", hw.PeakLinkUtil*100), f("%.1f", hw.MeanUtil*100)}}, nil
		})
	t.Rows = rows
	return t, err
}
