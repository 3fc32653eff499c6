package exp

// Shape tests: the paper's qualitative claims, asserted on the
// small-scale experiment runs. These are the guardrails that keep the
// reproduction honest — each test states the claim it checks.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func cell(t *testing.T, row []string, i int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[i], 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", row[i], err)
	}
	return v
}

// find returns the numeric value in col valueCol of the first row whose
// leading columns match the given keys.
func find(t *testing.T, td TableData, valueCol int, keys ...string) float64 {
	t.Helper()
	for _, r := range td.Rows {
		ok := true
		for i, k := range keys {
			if r[i] != k {
				ok = false
				break
			}
		}
		if ok {
			return cell(t, r, valueCol)
		}
	}
	t.Fatalf("row %v not found in %s", keys, td.Title)
	return 0
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	td, err := fig7Speedup(Small, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(td.Rows) != 25 {
		t.Fatalf("Fig7 rows = %d, want 25 (5 workloads x 5 schemes)", len(td.Rows))
	}
	for _, wl := range []string{"DPDK", "JVM", "RocksDB", "Snort", "FLANN"} {
		chaT := find(t, td, 2, wl, "CHA-TLB")
		devI := find(t, td, 2, wl, "Device-indirect")
		core := find(t, td, 2, wl, "Core-integrated")

		// Claim: every integrated scheme beats software.
		if chaT <= 1 || core <= 1 {
			t.Errorf("%s: integrated schemes must beat software (chaT=%.2f core=%.2f)", wl, chaT, core)
		}
		// Claim: Device-indirect is the weakest scheme.
		if devI >= chaT || devI >= core {
			t.Errorf("%s: Device-indirect (%.2f) should trail CHA-TLB (%.2f) and Core-integrated (%.2f)",
				wl, devI, chaT, core)
		}
		// Claim: Core-integrated is competitive with CHA-TLB (the paper's
		// gap is 0.9%-15%). Small-scale structures partially fit the L2
		// that Core-integrated shares, inflating its advantage (Snort's
		// 2MB test trie especially), so allow a loose 3x band here; the
		// full-scale EXPERIMENTS.md runs show the tight grouping.
		if core < chaT/2 || core > chaT*3 {
			t.Errorf("%s: Core-integrated (%.2f) should be in CHA-TLB's neighbourhood (%.2f)", wl, core, chaT)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	td, err := fig8LatencySweep(Small, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Claim: speedup degrades monotonically (within noise) as the device
	// interface latency grows, for every workload.
	for _, wl := range []string{"DPDK", "JVM", "RocksDB", "Snort", "FLANN"} {
		at50 := find(t, td, 2, wl, "50")
		at2000 := find(t, td, 2, wl, "2000")
		if at2000 >= at50 {
			t.Errorf("%s: speedup at 2000 cycles (%.2f) should be below 50 cycles (%.2f)", wl, at2000, at50)
		}
	}
}

func TestFig9Band(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	td, err := fig9EndToEnd(Small, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Claim: integrated schemes improve end-to-end throughput. The paper
	// band is 36.2%-66.7% at full scale; small-scale structures are
	// cache-friendly, so the warm query share (and with it the Amdahl
	// headroom) shrinks — accept any clearly positive improvement here
	// and check the paper band in EXPERIMENTS.md's full-scale runs.
	for _, r := range td.Rows {
		imp := cell(t, r, 2)
		if imp < 3 || imp > 200 {
			t.Errorf("%s/%s end-to-end improvement %.1f%% outside plausible band", r[0], r[1], imp)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	td, err := fig10TupleSpace(Small, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Claim: speedup grows with the tuple count (more parallelism).
	for _, sch := range []string{"CHA-TLB", "Device-direct", "Core-integrated"} {
		s5 := find(t, td, 2, "5", sch)
		s15 := find(t, td, 2, "15", sch)
		if s15 <= s5 {
			t.Errorf("%s: speedup at 15 tuples (%.2f) should exceed 5 tuples (%.2f)", sch, s15, s5)
		}
	}
}

func TestFig12Band(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	td, err := fig12DynamicPower(Small, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Claim: QEI reduces per-query dynamic energy substantially; the
	// Core-integrated scheme is the most efficient placement.
	for _, wl := range []string{"DPDK", "JVM", "RocksDB", "Snort", "FLANN"} {
		core := find(t, td, 2, wl, "Core-integrated")
		if core >= 60 {
			t.Errorf("%s: Core-integrated energy %.1f%% of software — want a large cut", wl, core)
		}
	}
}

func TestTailLatencyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	td, err := tailLatency(Small, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Claim: overload (interarrival 20) inflates p99 for Core-integrated.
	relaxed := find(t, td, 5, "Core-integrated", "2000")
	slammed := find(t, td, 5, "Core-integrated", "20")
	if slammed <= relaxed {
		t.Errorf("p99 under overload (%.0f) should exceed relaxed p99 (%.0f)", slammed, relaxed)
	}
	// Claim: Device-indirect unloaded median exceeds Core-integrated's.
	devP50 := find(t, td, 3, "Device-indirect", "2000")
	coreP50 := find(t, td, 3, "Core-integrated", "2000")
	if devP50 <= coreP50 {
		t.Errorf("device median (%.0f) should exceed core-integrated (%.0f)", devP50, coreP50)
	}
}

func TestNoCUtilizationReported(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	td, err := nocUtilization(Small, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(td.Rows) != 2 {
		t.Fatalf("rows = %d", len(td.Rows))
	}
}

func TestExperimentTablesRender(t *testing.T) {
	tab1, _ := tabI(Small, 0)
	if len(tab1.Rows) != 5 {
		t.Fatalf("TabI rows = %d", len(tab1.Rows))
	}
	if !strings.Contains(tab1.String(), "Core-integrated") {
		t.Fatal("TabI text missing Core-integrated")
	}
	if !strings.Contains(tab1.CSV(), "scheme,") {
		t.Fatal("CSV header missing")
	}
	if tab2, _ := tabII(Small, 0); len(tab2.Rows) == 0 {
		t.Fatal("TabII empty")
	}
	if tab3, _ := tabIII(Small, 0); len(tab3.Rows) != 3 {
		t.Fatalf("TabIII rows = %d", len(tab3.Rows))
	}
}

func TestFig1SmallScale(t *testing.T) {
	res, err := fig1QueryTimeShare(Small, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("Fig1 rows = %d, want 5", len(res.Rows))
	}
	for _, r := range res.Rows {
		if len(r) != len(res.Headers) {
			t.Fatalf("%s: %d columns, want %d", r[0], len(r), len(res.Headers))
		}
		var pct, mispredicts, loads, ipc float64
		for i, v := range []*float64{&pct, &mispredicts, &loads, &ipc} {
			if _, err := fmt.Sscanf(r[i+1], "%f", v); err != nil {
				t.Fatalf("%s %s: %v", r[0], res.Headers[i+1], err)
			}
		}
		if pct < 15 || pct > 60 {
			t.Fatalf("%s query share %.1f%% outside plausible band", r[0], pct)
		}
		// Every query ends in a data-dependent branch and reads at least
		// one line; the ROI is memory-bound, so IPC stays well under the
		// core's width (Sec. II-A).
		if mispredicts < 1 || loads < 1 {
			t.Fatalf("%s: %.2f mispredicts and %.1f loads per query", r[0], mispredicts, loads)
		}
		if ipc <= 0 || ipc >= 1 {
			t.Fatalf("%s ROI IPC %.2f outside (0, 1)", r[0], ipc)
		}
	}
}

func TestFig11SmallScale(t *testing.T) {
	res, err := fig11InstrReduction(Small, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		var red float64
		fmt.Sscanf(r[3], "%f", &red)
		if red < 50 {
			t.Fatalf("%s instruction reduction only %.1f%%", r[0], red)
		}
	}
}
