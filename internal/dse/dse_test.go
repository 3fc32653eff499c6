package dse

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"qei/internal/hwdesc"
	"qei/internal/workload"
)

func TestParseAxes(t *testing.T) {
	a, err := ParseAxes("qst=8,16;cores=8,24;mesh=6x4,4x4;scheme=core,cha-tlb;node=22,7")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.QST) != 2 || a.QST[0] != 8 || a.QST[1] != 16 {
		t.Errorf("QST = %v", a.QST)
	}
	if len(a.Mesh) != 2 || a.Mesh[1] != [2]int{4, 4} {
		t.Errorf("Mesh = %v", a.Mesh)
	}
	if len(a.Schemes) != 2 || a.Schemes[1] != "cha-tlb" {
		t.Errorf("Schemes = %v", a.Schemes)
	}
	if len(a.Nodes) != 2 || a.Nodes[1] != 7 {
		t.Errorf("Nodes = %v", a.Nodes)
	}

	empty, err := ParseAxes("  ")
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.QST)+len(empty.Cores)+len(empty.Mesh)+len(empty.Schemes)+len(empty.Nodes) != 0 {
		t.Errorf("empty spec produced %+v", empty)
	}

	for _, bad := range []string{
		"qst=ten", "mesh=6by4", "scheme=warp", "unknown=1", "qst",
	} {
		if _, err := ParseAxes(bad); !errors.Is(err, hwdesc.ErrBadConfig) {
			t.Errorf("ParseAxes(%q) error = %v, want ErrBadConfig", bad, err)
		}
	}
}

func TestExpandSkipsInvalidAndNamesPoints(t *testing.T) {
	a := Axes{
		Cores: []int{8, 32},
		Mesh:  [][2]int{{6, 4}, {4, 4}},
	}
	points, skipped := a.Expand(hwdesc.Default())
	// 32 cores fit neither the 24-stop 6x4 mesh nor the 16-stop 4x4:
	// 2 valid, 2 skipped.
	if len(points) != 2 || skipped != 2 {
		t.Fatalf("got %d points, %d skipped; want 2 and 2", len(points), skipped)
	}
	seen := map[string]bool{}
	for _, d := range points {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
		if seen[d.Name] {
			t.Errorf("duplicate point name %q", d.Name)
		}
		seen[d.Name] = true
		if !strings.Contains(d.Name, "core/") {
			t.Errorf("name %q should encode the scheme", d.Name)
		}
	}
}

func TestExpandPointsDoNotAliasMemStops(t *testing.T) {
	points, _ := Axes{QST: []int{8, 16}}.Expand(hwdesc.Default())
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	points[0].MemStops[0] = 99
	if points[1].MemStops[0] == 99 {
		t.Fatal("sweep points share MemStops storage")
	}
}

func TestDefaultAxesGridSize(t *testing.T) {
	points, skipped := DefaultAxes().Expand(hwdesc.Default())
	if len(points) < 100 {
		t.Errorf("default sweep has %d valid points, want >= 100", len(points))
	}
	if skipped == 0 {
		t.Errorf("default sweep should skip the 24/32-core x 4x4-mesh cells")
	}
	if len(points)+skipped != 2*4*4*2*3 {
		t.Errorf("points %d + skipped %d != grid %d", len(points), skipped, 2*4*4*2*3)
	}
}

func TestMemStopsFor(t *testing.T) {
	for _, tc := range []struct {
		stops int
		want  int
	}{{16, 4}, {24, 6}, {4, 2}, {2, 2}, {1, 1}} {
		got := memStopsFor(tc.stops)
		if len(got) != tc.want {
			t.Errorf("memStopsFor(%d) = %v, want %d stops", tc.stops, got, tc.want)
		}
		for _, s := range got {
			if s < 0 || s >= tc.stops {
				t.Errorf("memStopsFor(%d) stop %d out of range", tc.stops, s)
			}
		}
	}
}

func TestDominates(t *testing.T) {
	base := Point{SpeedupX: 2, AreaMM2: 1, EnergyNJPerQuery: 10}
	cases := []struct {
		name string
		a, b Point
		want bool
	}{
		{"strictly better on one axis", Point{SpeedupX: 3, AreaMM2: 1, EnergyNJPerQuery: 10}, base, true},
		{"better everywhere", Point{SpeedupX: 3, AreaMM2: 0.5, EnergyNJPerQuery: 5}, base, true},
		{"equal", base, base, false},
		{"tradeoff", Point{SpeedupX: 3, AreaMM2: 2, EnergyNJPerQuery: 10}, base, false},
		{"worse", Point{SpeedupX: 1, AreaMM2: 2, EnergyNJPerQuery: 20}, base, false},
	}
	for _, tc := range cases {
		if got := dominates(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: dominates = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestMarkPareto(t *testing.T) {
	pts := []Point{
		{SpeedupX: 2, AreaMM2: 1, EnergyNJPerQuery: 10},  // frontier
		{SpeedupX: 3, AreaMM2: 2, EnergyNJPerQuery: 12},  // frontier (fastest)
		{SpeedupX: 1, AreaMM2: 2, EnergyNJPerQuery: 15},  // dominated by 0
		{SpeedupX: 2, AreaMM2: 1, EnergyNJPerQuery: 10},  // duplicate of 0: neither dominates
		{SpeedupX: 1, AreaMM2: 0.5, EnergyNJPerQuery: 9}, // frontier (cheapest)
	}
	markPareto(pts)
	wantDominated := []bool{false, false, true, false, false}
	for i, p := range pts {
		if p.Dominated != wantDominated[i] {
			t.Errorf("point %d: Dominated = %v, want %v", i, p.Dominated, wantDominated[i])
		}
	}
}

// TestSweepSerialParallelIdentical is the determinism pin: the same
// tiny sweep at one worker and at eight must render byte-identical
// JSON, and its frontier must be non-empty and correct.
func TestSweepSerialParallelIdentical(t *testing.T) {
	axes := Axes{QST: []int{8, 16}, Cores: []int{16, 24}}

	serial, err := Sweep(Config{Bench: workload.SmallDPDK(), Axes: axes, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(Config{Bench: workload.SmallDPDK(), Axes: axes, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	sj, err := serial.JSON()
	if err != nil {
		t.Fatal(err)
	}
	pj, err := parallel.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Fatal("serial and parallel sweep JSON differ")
	}

	if len(serial.Points) != 4 {
		t.Fatalf("got %d points, want 4", len(serial.Points))
	}
	if len(serial.Frontier) == 0 {
		t.Fatal("empty Pareto frontier")
	}
	if serial.DominatedCount != len(serial.Points)-len(serial.Frontier) {
		t.Errorf("DominatedCount %d inconsistent with %d points / %d frontier",
			serial.DominatedCount, len(serial.Points), len(serial.Frontier))
	}
	for _, p := range serial.Points {
		if p.SpeedupX <= 1 {
			t.Errorf("%s: speedup %.2fx, want > 1 (QEI beats software)", p.Desc.Name, p.SpeedupX)
		}
		if p.AreaMM2 <= 0 || p.EnergyNJPerQuery <= 0 || p.Queries == 0 {
			t.Errorf("%s: degenerate point %+v", p.Desc.Name, p)
		}
	}
	// Bigger QSTs cost more silicon at equal core count.
	var q8, q16 *Point
	for i := range serial.Points {
		p := &serial.Points[i]
		if p.Desc.Cores == 24 {
			switch p.Desc.QST.Entries {
			case 8:
				q8 = p
			case 16:
				q16 = p
			}
		}
	}
	if q8 == nil || q16 == nil {
		t.Fatal("missing expected sweep points")
	}
	if q16.AreaMM2 <= q8.AreaMM2 {
		t.Errorf("area should grow with QST: q16 %.4f <= q8 %.4f", q16.AreaMM2, q8.AreaMM2)
	}
}

func TestSweepBaselineSharing(t *testing.T) {
	// Points differing only in QST share a chip topology, so their
	// baseline cycles must be identical.
	res, err := Sweep(Config{
		Bench: workload.SmallDPDK(),
		Axes:  Axes{QST: []int{8, 32}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points", len(res.Points))
	}
	if res.Points[0].BaselineCycles != res.Points[1].BaselineCycles {
		t.Errorf("same-chip points measured different baselines: %d vs %d",
			res.Points[0].BaselineCycles, res.Points[1].BaselineCycles)
	}
}

func TestSweepErrors(t *testing.T) {
	bench := workload.SmallDPDK()
	if _, err := Sweep(Config{}); !errors.Is(err, hwdesc.ErrBadConfig) {
		t.Errorf("no benchmark: error = %v, want ErrBadConfig", err)
	}
	bad := hwdesc.Default()
	bad.Cores = 1000
	if _, err := Sweep(Config{Bench: bench, Base: bad}); !errors.Is(err, hwdesc.ErrBadConfig) {
		t.Errorf("invalid base: error = %v, want ErrBadConfig", err)
	}
	// A grid whose every cell is invalid must error, not return empty.
	if _, err := Sweep(Config{Bench: bench, Axes: Axes{Cores: []int{1000}}}); !errors.Is(err, hwdesc.ErrBadConfig) {
		t.Errorf("all-invalid grid: error = %v, want ErrBadConfig", err)
	}
}
