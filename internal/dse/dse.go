// Package dse is the design-space-exploration engine: it expands an
// axis grid (QST capacity, core count, mesh geometry, integration
// scheme, technology node) into concrete hwdesc machine descriptions,
// evaluates every valid point through the deterministic runner worker
// pool — one simulated machine per point, software baseline vs QEI on
// the same chip — and scores each point on three objectives: lookup
// speedup over the software baseline, total accelerator silicon (mm²),
// and dynamic energy per query (nJ). The non-dominated points form the
// Pareto frontier the cloud-provisioning argument of the paper turns
// on: which design points buy speedup without paying for silicon or
// energy that a cheaper point already delivers.
//
// Determinism contract: the grid expands in a fixed axis order, results
// are collected at their grid index by runner.Map, and nothing in a
// Point depends on wall clock — so the sweep's JSON output is
// byte-identical at any worker count (TestSweepSerialParallelIdentical
// pins it, and ci.sh's dse-smoke stage re-checks end to end).
package dse

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"qei/internal/hwdesc"
	"qei/internal/runner"
	"qei/internal/scheme"
	"qei/internal/workload"
)

// Axes is the sweep grid: the cross product of every non-empty axis,
// applied to a base description. An empty axis keeps the base value.
type Axes struct {
	// QST sweeps the per-instance QST entry count.
	QST []int `json:"qst,omitempty"`
	// Cores sweeps the core count (bounded above by each mesh's stops).
	Cores []int `json:"cores,omitempty"`
	// Mesh sweeps the NoC geometry as {cols, rows} pairs.
	Mesh [][2]int `json:"mesh,omitempty"`
	// Schemes sweeps integration schemes by name ("core", "cha-tlb", ...).
	Schemes []string `json:"schemes,omitempty"`
	// Nodes sweeps the technology node in nm.
	Nodes []int `json:"nodes,omitempty"`
}

// DefaultAxes is the standard provisioning sweep: two integration
// schemes, four QST depths, chips from 8 to 32 cores on two mesh
// geometries, at three technology nodes — 120 valid design points out
// of 192 grid cells (24 cores do not fit the 4x4 mesh and 32 cores fit
// neither, so 72 cells are skipped as invalid; a core needs a mesh stop
// of its own).
func DefaultAxes() Axes {
	return Axes{
		QST:     []int{8, 16, 32, 64},
		Cores:   []int{8, 16, 24, 32},
		Mesh:    [][2]int{{6, 4}, {4, 4}},
		Schemes: []string{"core", "cha-tlb"},
		Nodes:   []int{22, 14, 7},
	}
}

// ParseAxes parses a compact axis spec of the form
//
//	"qst=8,16,32;cores=8,24;mesh=6x4,4x4;scheme=core,cha-tlb;node=22,7"
//
// Unknown axis names and malformed values are errors wrapping
// hwdesc.ErrBadConfig. An empty spec returns empty Axes (base only).
func ParseAxes(spec string) (Axes, error) {
	var a Axes
	if strings.TrimSpace(spec) == "" {
		return a, nil
	}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, vals, ok := strings.Cut(part, "=")
		if !ok {
			return a, fmt.Errorf("%w: axis %q is not name=v1,v2,...", hwdesc.ErrBadConfig, part)
		}
		items := strings.Split(vals, ",")
		switch strings.TrimSpace(name) {
		case "qst":
			ints, err := parseInts("qst", items)
			if err != nil {
				return a, err
			}
			a.QST = ints
		case "cores":
			ints, err := parseInts("cores", items)
			if err != nil {
				return a, err
			}
			a.Cores = ints
		case "node":
			ints, err := parseInts("node", items)
			if err != nil {
				return a, err
			}
			a.Nodes = ints
		case "mesh":
			for _, it := range items {
				c, r, ok := strings.Cut(strings.TrimSpace(it), "x")
				if !ok {
					return a, fmt.Errorf("%w: mesh %q is not COLSxROWS", hwdesc.ErrBadConfig, it)
				}
				cols, err1 := strconv.Atoi(c)
				rows, err2 := strconv.Atoi(r)
				if err1 != nil || err2 != nil {
					return a, fmt.Errorf("%w: mesh %q is not COLSxROWS", hwdesc.ErrBadConfig, it)
				}
				a.Mesh = append(a.Mesh, [2]int{cols, rows})
			}
		case "scheme":
			for _, it := range items {
				s := strings.TrimSpace(it)
				if _, err := scheme.Parse(s); err != nil {
					return a, fmt.Errorf("%w: %v", hwdesc.ErrBadConfig, err)
				}
				a.Schemes = append(a.Schemes, s)
			}
		default:
			return a, fmt.Errorf("%w: unknown axis %q (have qst, cores, mesh, scheme, node)",
				hwdesc.ErrBadConfig, name)
		}
	}
	return a, nil
}

func parseInts(axis string, items []string) ([]int, error) {
	out := make([]int, 0, len(items))
	for _, it := range items {
		v, err := strconv.Atoi(strings.TrimSpace(it))
		if err != nil {
			return nil, fmt.Errorf("%w: %s value %q is not an integer", hwdesc.ErrBadConfig, axis, it)
		}
		out = append(out, v)
	}
	return out, nil
}

// memStopsFor spreads n memory controllers evenly over a stops-stop
// mesh — the deterministic placement used when a swept mesh geometry
// invalidates the base description's controller stops.
func memStopsFor(stops int) []int {
	n := stops / 4
	if n < 2 {
		n = 2
	}
	if n > stops {
		n = stops
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i * stops / n
	}
	return out
}

// Expand applies the grid to base in a fixed axis order — scheme, node,
// mesh, cores, QST, innermost last — and returns every valid design
// point plus the count of grid cells skipped because they do not
// validate (e.g. more cores than mesh stops). Each point gets a
// deterministic name encoding its coordinates.
func (a Axes) Expand(base hwdesc.Description) (points []hwdesc.Description, skipped int) {
	orBase := func(vals []int, b int) []int {
		if len(vals) == 0 {
			return []int{b}
		}
		return vals
	}
	schemes := a.Schemes
	if len(schemes) == 0 {
		schemes = []string{base.Scheme}
	}
	meshes := a.Mesh
	if len(meshes) == 0 {
		meshes = [][2]int{{base.Mesh.Cols, base.Mesh.Rows}}
	}
	for _, sch := range schemes {
		for _, node := range orBase(a.Nodes, base.TechNodeNM) {
			for _, mesh := range meshes {
				for _, cores := range orBase(a.Cores, base.Cores) {
					for _, qst := range orBase(a.QST, base.QST.Entries) {
						d := base
						d.Scheme = sch
						d.TechNodeNM = node
						d.Mesh.Cols, d.Mesh.Rows = mesh[0], mesh[1]
						d.Cores = cores
						d.QST.Entries = qst
						if mesh[0] != base.Mesh.Cols || mesh[1] != base.Mesh.Rows {
							d.MemStops = memStopsFor(mesh[0] * mesh[1])
						} else {
							// Fresh slice even when geometry matches: sweep
							// points must never share MemStops storage.
							d.MemStops = append([]int(nil), base.MemStops...)
						}
						d.Name = fmt.Sprintf("%s/q%d/c%d/m%dx%d/n%d",
							sch, qst, cores, mesh[0], mesh[1], node)
						if d.Validate() != nil {
							skipped++
							continue
						}
						points = append(points, d)
					}
				}
			}
		}
	}
	return points, skipped
}

// Config selects what a sweep evaluates.
type Config struct {
	// Workload names the benchmark: dpdk, jvm, rocksdb, snort, flann.
	Workload string
	// FullScale uses the paper-scale benchmark population (default is
	// the small, fast population).
	FullScale bool
	// Base is the description the axes mutate; the zero value means
	// hwdesc.Default().
	Base hwdesc.Description
	// Axes is the sweep grid; the zero value evaluates only Base.
	Axes Axes
	// Parallelism is the worker count (<= 0 means GOMAXPROCS; 1 forces
	// the serial path). Output is byte-identical at any value.
	Parallelism int
}

// BenchFor resolves a workload name for sweeping.
func BenchFor(name string, full bool) (workload.Benchmark, error) {
	pick := func(f, s workload.Benchmark) workload.Benchmark {
		if full {
			return f
		}
		return s
	}
	switch name {
	case "dpdk", "":
		return pick(workload.DefaultDPDK(), workload.SmallDPDK()), nil
	case "jvm":
		return pick(workload.DefaultJVM(), workload.SmallJVM()), nil
	case "rocksdb":
		return pick(workload.DefaultRocksDB(), workload.SmallRocksDB()), nil
	case "snort":
		return pick(workload.DefaultSnort(), workload.SmallSnort()), nil
	case "flann":
		return pick(workload.DefaultFLANN(), workload.SmallFLANN()), nil
	}
	return nil, fmt.Errorf("%w: unknown workload %q (have dpdk, jvm, rocksdb, snort, flann)",
		hwdesc.ErrBadConfig, name)
}

// Point is one evaluated design point.
type Point struct {
	Desc hwdesc.Description `json:"desc"`
	// SpeedupX is ROI (lookup) speedup over the software baseline on
	// the same chip. Higher is better.
	SpeedupX float64 `json:"speedup_x"`
	// AreaMM2 / StaticMW are the total accelerator cost across all
	// instances at the point's technology node. Lower is better.
	AreaMM2  float64 `json:"area_mm2"`
	StaticMW float64 `json:"static_mw"`
	// EnergyNJPerQuery is the dynamic energy of one accelerated query.
	// Lower is better.
	EnergyNJPerQuery float64 `json:"energy_nj_per_query"`
	BaselineCycles   uint64  `json:"baseline_cycles"`
	QEICycles        uint64  `json:"qei_cycles"`
	Queries          int     `json:"queries"`
	// Dominated marks points some other point beats on every objective.
	Dominated bool `json:"dominated"`
}

// Result is a completed sweep.
type Result struct {
	Workload string `json:"workload"`
	// Points holds every evaluated design point in grid order.
	Points []Point `json:"points"`
	// Frontier indexes the non-dominated points, ascending.
	Frontier []int `json:"frontier"`
	// DominatedCount is len(Points) - len(Frontier).
	DominatedCount int `json:"dominated_count"`
	// SkippedInvalid counts grid cells that failed validation.
	SkippedInvalid int `json:"skipped_invalid"`
}

// JSON renders the result as indented, deterministic JSON.
func (r *Result) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// machineKey identifies the chip-topology half of a description — the
// part the software baseline depends on. Scheme, QST, and node are
// excluded: points differing only there share one baseline measurement.
func machineKey(d hwdesc.Description) string {
	d.Name = ""
	d.Scheme = "core"
	d.QST = hwdesc.QST{Entries: 1, Comparators: 1}
	d.AccelTLB = hwdesc.TLB{}
	d.ExtraDataLatency = 0
	d.TechNodeNM = 22
	data, err := json.Marshal(d)
	if err != nil {
		panic(err) // plain struct of scalars and int slices cannot fail
	}
	return string(data)
}

// Sweep expands cfg's grid and evaluates every valid point: phase one
// measures the software baseline once per distinct chip topology, phase
// two runs QEI on every point, both fanned across the worker pool in
// grid order. Points with result mismatches fail the sweep.
func Sweep(ctx context.Context, cfg Config) (*Result, error) {
	base := cfg.Base
	if base.Cores == 0 {
		base = hwdesc.Default()
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	bench, err := BenchFor(cfg.Workload, cfg.FullScale)
	if err != nil {
		return nil, err
	}
	points, skipped := cfg.Axes.Expand(base)
	if len(points) == 0 {
		return nil, fmt.Errorf("%w: sweep grid is empty after validation (%d cells skipped)",
			hwdesc.ErrBadConfig, skipped)
	}

	// Phase 1: one baseline run per distinct chip topology, in order of
	// first appearance (deterministic).
	var keys []string
	keyIdx := make(map[string]int)
	for _, d := range points {
		k := machineKey(d)
		if _, ok := keyIdx[k]; !ok {
			keyIdx[k] = len(keys)
			keys = append(keys, k)
		}
	}
	firstDesc := make([]hwdesc.Description, len(keys))
	seen := make(map[string]bool)
	for _, d := range points {
		k := machineKey(d)
		if !seen[k] {
			seen[k] = true
			firstDesc[keyIdx[k]] = d
		}
	}
	baselines, err := runner.Map(ctx, cfg.Parallelism, firstDesc,
		func(_ context.Context, _ int, d hwdesc.Description) (workload.Run, error) {
			return workload.RunBaseline(bench, workload.ROIOnly,
				workload.WithWarmup(), workload.WithMachine(d))
		})
	if err != nil {
		return nil, err
	}

	// Phase 2: QEI on every point, scored against its chip's baseline.
	evaluated, err := runner.Map(ctx, cfg.Parallelism, points,
		func(_ context.Context, _ int, d hwdesc.Description) (Point, error) {
			params, err := d.SchemeParams()
			if err != nil {
				return Point{}, err
			}
			hw, err := workload.RunQEIWithParams(bench, params, workload.ROIOnly,
				workload.WithWarmup(), workload.WithMachine(d))
			if err != nil {
				return Point{}, fmt.Errorf("dse %s: %w", d.Name, err)
			}
			if hw.Mismatches != 0 {
				return Point{}, fmt.Errorf("dse %s: %d wrong results", d.Name, hw.Mismatches)
			}
			sw := baselines[keyIdx[machineKey(d)]]
			area, static, err := d.Area()
			if err != nil {
				return Point{}, err
			}
			p := Point{
				Desc:           d,
				AreaMM2:        area,
				StaticMW:       static,
				BaselineCycles: sw.Cycles,
				QEICycles:      hw.Cycles,
				Queries:        hw.Queries,
			}
			if hw.Cycles > 0 {
				p.SpeedupX = float64(sw.Cycles) / float64(hw.Cycles)
			}
			if hw.Queries > 0 {
				p.EnergyNJPerQuery = d.PowerModel().DynamicEnergyNJ(hw.Activity()) / float64(hw.Queries)
			}
			return p, nil
		})
	if err != nil {
		return nil, err
	}

	res := &Result{Workload: bench.Name(), Points: evaluated, SkippedInvalid: skipped}
	markPareto(res.Points)
	for i, p := range res.Points {
		if !p.Dominated {
			res.Frontier = append(res.Frontier, i)
		}
	}
	sort.Ints(res.Frontier)
	res.DominatedCount = len(res.Points) - len(res.Frontier)
	return res, nil
}

// dominates reports whether a beats b: no worse on all three
// objectives and strictly better on at least one.
func dominates(a, b Point) bool {
	if a.SpeedupX < b.SpeedupX || a.AreaMM2 > b.AreaMM2 || a.EnergyNJPerQuery > b.EnergyNJPerQuery {
		return false
	}
	return a.SpeedupX > b.SpeedupX || a.AreaMM2 < b.AreaMM2 || a.EnergyNJPerQuery < b.EnergyNJPerQuery
}

// markPareto flags dominated points in place (O(n²), n is sweep-sized).
func markPareto(points []Point) {
	for i := range points {
		for j := range points {
			if i != j && dominates(points[j], points[i]) {
				points[i].Dominated = true
				break
			}
		}
	}
}
