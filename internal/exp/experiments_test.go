package exp

// The experiment pass: every registered table runs once at Small and is
// compared with its committed golden, and the paper's qualitative
// claims are then asserted on that same table. These are the guardrails
// that keep the reproduction honest — each shape states the claim it
// checks.

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"qei/internal/golden"
)

// TestExperimentTables runs each registry entry once at Small and
// compares its text with testdata/<name>.txt, then asserts the entry's
// shape (if any) on the same table. Goldens are written serially when
// golden.Updating and checked with several workers, so the pass also
// pins serial == parallel for every experiment. bench and batch are
// left to TestBenchGoldenCycles, which pins their records. After an
// intended change, regenerate the files as package golden describes.
func TestExperimentTables(t *testing.T) {
	par := 4
	if golden.Updating() {
		par = 1
	}
	unused := map[string]bool{}
	for name := range shapes {
		unused[name] = true
	}
	for _, e := range Experiments() {
		delete(unused, e.Name)
		if e.Name == "bench" || e.Name == "batch" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			if testing.Short() && multiRun[e.Name] {
				t.Skip("multi-run experiment")
			}
			td, err := e.Run(Small, par)
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", e.Name+".txt"), td.String())
			if shape := shapes[e.Name]; shape != nil {
				shape(t, td)
			}
		})
	}
	for name := range unused {
		t.Errorf("shape %q names no registered experiment", name)
	}
}

// TestFig1SmallScale asserts the fig1 shape on a run with the default
// worker count, apart from the golden pass's fixed one.
func TestFig1SmallScale(t *testing.T) {
	td, err := fig1QueryTimeShare(Small, 0)
	if err != nil {
		t.Fatal(err)
	}
	shapes["fig1"](t, td)
}

// multiRun lists the experiments -short skips.
var multiRun = map[string]bool{
	"fig7": true, "fig8": true, "fig9": true, "fig10": true, "fig12": true, "tail": true, "noc": true,
	"abl-qst": true, "abl-remote": true, "abl-translation": true, "abl-batch": true,
	"abl-skew": true, "abl-index": true, "abl-hugepage": true,
}

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

var paperWorkloads = []string{"DPDK", "JVM", "RocksDB", "Snort", "FLANN"}

// shapes holds each experiment's claims, asserted on its Small table.
var shapes = map[string]func(t *testing.T, td TableData){
	"fig1": func(t *testing.T, td TableData) {
		if len(td.Rows) != 5 {
			t.Fatalf("Fig1 rows = %d, want 5", len(td.Rows))
		}
		for _, r := range td.Rows {
			if len(r) != len(td.Headers) {
				t.Fatalf("%s: %d columns, want %d", r[0], len(r), len(td.Headers))
			}
			var pct, mispredicts, loads, ipc float64
			for i, v := range []*float64{&pct, &mispredicts, &loads, &ipc} {
				if _, err := fmt.Sscanf(r[i+1], "%f", v); err != nil {
					t.Fatalf("%s %s: %v", r[0], td.Headers[i+1], err)
				}
			}
			if pct < 15 || pct > 60 {
				t.Fatalf("%s query share %.1f%% outside plausible band", r[0], pct)
			}
			// Every query ends in a data-dependent branch and reads at
			// least one line; the ROI is memory-bound, so IPC stays well
			// under the core's width (Sec. II-A).
			if mispredicts < 1 || loads < 1 {
				t.Fatalf("%s: %.2f mispredicts and %.1f loads per query", r[0], mispredicts, loads)
			}
			if ipc <= 0 || ipc >= 1 {
				t.Fatalf("%s ROI IPC %.2f outside (0, 1)", r[0], ipc)
			}
		}
	},
	"tab1": func(t *testing.T, td TableData) {
		if len(td.Rows) != 5 {
			t.Fatalf("TabI rows = %d", len(td.Rows))
		}
		if !strings.Contains(td.String(), "Core-integrated") {
			t.Fatal("TabI text missing Core-integrated")
		}
		if !strings.Contains(td.CSV(), "scheme,") {
			t.Fatal("CSV header missing")
		}
	},
	"tab2": func(t *testing.T, td TableData) {
		if len(td.Rows) == 0 {
			t.Fatal("TabII empty")
		}
	},
	"tab3": func(t *testing.T, td TableData) {
		if len(td.Rows) != 3 {
			t.Fatalf("TabIII rows = %d", len(td.Rows))
		}
	},
	"fig7": func(t *testing.T, td TableData) {
		if len(td.Rows) != 25 {
			t.Fatalf("Fig7 rows = %d, want 25 (5 workloads x 5 schemes)", len(td.Rows))
		}
		for _, wl := range paperWorkloads {
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
			// Claim: Core-integrated is competitive with CHA-TLB (the
			// paper's gap is 0.9%-15%). Small-scale structures partially
			// fit the L2 that Core-integrated shares, inflating its
			// advantage (Snort's 2MB test trie especially), so allow a
			// loose 3x band here; the full-scale EXPERIMENTS.md runs show
			// the tight grouping.
			if core < chaT/2 || core > chaT*3 {
				t.Errorf("%s: Core-integrated (%.2f) should be in CHA-TLB's neighbourhood (%.2f)", wl, core, chaT)
			}
		}
	},
	// Claim: speedup degrades monotonically (within noise) as the
	// device interface latency grows, for every workload.
	"fig8": func(t *testing.T, td TableData) {
		for _, wl := range paperWorkloads {
			at50 := find(t, td, 2, wl, "50")
			at2000 := find(t, td, 2, wl, "2000")
			if at2000 >= at50 {
				t.Errorf("%s: speedup at 2000 cycles (%.2f) should be below 50 cycles (%.2f)", wl, at2000, at50)
			}
		}
	},
	// Claim: integrated schemes improve end-to-end throughput. The
	// paper band is 36.2%-66.7% at full scale; small-scale structures
	// are cache-friendly, so the warm query share (and with it the
	// Amdahl headroom) shrinks — accept any clearly positive improvement
	// here and check the paper band in EXPERIMENTS.md's full-scale runs.
	"fig9": func(t *testing.T, td TableData) {
		for _, r := range td.Rows {
			imp := cell(t, r, 2)
			if imp < 3 || imp > 200 {
				t.Errorf("%s/%s end-to-end improvement %.1f%% outside plausible band", r[0], r[1], imp)
			}
		}
	},
	// Claim: speedup grows with the tuple count (more parallelism).
	"fig10": func(t *testing.T, td TableData) {
		for _, sch := range []string{"CHA-TLB", "Device-direct", "Core-integrated"} {
			s5 := find(t, td, 2, "5", sch)
			s15 := find(t, td, 2, "15", sch)
			if s15 <= s5 {
				t.Errorf("%s: speedup at 15 tuples (%.2f) should exceed 5 tuples (%.2f)", sch, s15, s5)
			}
		}
	},
	"fig11": func(t *testing.T, td TableData) {
		for _, r := range td.Rows {
			var red float64
			fmt.Sscanf(r[3], "%f", &red)
			if red < 50 {
				t.Fatalf("%s instruction reduction only %.1f%%", r[0], red)
			}
		}
	},
	// Claim: QEI reduces per-query dynamic energy substantially; the
	// Core-integrated scheme is the most efficient placement.
	"fig12": func(t *testing.T, td TableData) {
		for _, wl := range paperWorkloads {
			core := find(t, td, 2, wl, "Core-integrated")
			if core >= 60 {
				t.Errorf("%s: Core-integrated energy %.1f%% of software — want a large cut", wl, core)
			}
		}
	},
	"tail": func(t *testing.T, td TableData) {
		// Columns: scheme, interarrival, mean, p50, p99, p999.
		if len(td.Rows) != 9 {
			t.Fatalf("rows = %d, want 3 schemes x 3 gaps", len(td.Rows))
		}
		for _, r := range td.Rows {
			// p999 is the histogram quantile clamped to the exact
			// maximum, so this is p50 <= p99 <= max.
			mean, p50, p99, p999 := cell(t, r, 2), cell(t, r, 3), cell(t, r, 4), cell(t, r, 5)
			if mean <= 0 || p50 > p99 || p99 > p999 {
				t.Errorf("%v: inconsistent percentiles", r)
			}
		}
		// Claim: overload (interarrival 20) inflates the mean and p99
		// for every scheme.
		for _, k := range []string{"Core-integrated", "CHA-TLB", "Device-indirect"} {
			if slammed, relaxed := find(t, td, 4, k, "20"), find(t, td, 4, k, "2000"); slammed <= relaxed {
				t.Errorf("%s: p99 under overload (%.0f) should exceed relaxed p99 (%.0f)", k, slammed, relaxed)
			}
			if slammed, relaxed := find(t, td, 2, k, "20"), find(t, td, 2, k, "2000"); slammed <= relaxed {
				t.Errorf("%s: mean under overload (%.0f) should exceed relaxed mean (%.0f)", k, slammed, relaxed)
			}
		}
		// Claim: Device-indirect unloaded median exceeds
		// Core-integrated's.
		devP50 := find(t, td, 3, "Device-indirect", "2000")
		coreP50 := find(t, td, 3, "Core-integrated", "2000")
		if devP50 <= coreP50 {
			t.Errorf("device median (%.0f) should exceed core-integrated (%.0f)", devP50, coreP50)
		}
	},
	"noc": func(t *testing.T, td TableData) {
		if len(td.Rows) != 2 {
			t.Fatalf("rows = %d", len(td.Rows))
		}
	},
	"dse": func(t *testing.T, td TableData) {
		// 8 design points plus the totals row.
		if len(td.Rows) != 9 {
			t.Fatalf("got %d rows, want 9", len(td.Rows))
		}
		frontier := 0
		for _, r := range td.Rows[:8] {
			if len(r) != len(td.Headers) {
				t.Fatalf("row width %d != header width %d", len(r), len(td.Headers))
			}
			if r[len(r)-1] == "frontier" {
				frontier++
			}
		}
		if frontier == 0 {
			t.Error("no frontier points in the experiment table")
		}
	},
	"abl-qst": func(t *testing.T, td TableData) {
		// More QST entries never cost cycles, and the paper's 10
		// entries run 50-90% occupied (Sec. VI-A).
		for i := 1; i < len(td.Rows); i++ {
			if prev, cur := cell(t, td.Rows[i-1], 1), cell(t, td.Rows[i], 1); cur > prev {
				t.Errorf("%s entries: %.0f ROI cycles, more than %.0f at %s", td.Rows[i][0], cur, prev, td.Rows[i-1][0])
			}
		}
		if occ := find(t, td, 2, "10"); occ < 5 || occ > 9 {
			t.Errorf("occupancy at 10 entries = %.2f, want 5-9", occ)
		}
	},
	"abl-remote": func(t *testing.T, td TableData) {
		// CHA comparators compare remotely and fetch fewer lines.
		// Which row is faster is not asserted: see EXPERIMENTS.md.
		if n := find(t, td, 2, "remote (CHA)"); n == 0 {
			t.Error("no remote compares with CHA comparators")
		}
		if n := find(t, td, 2, "local (fetch)"); n != 0 {
			t.Errorf("%.0f remote compares without CHA comparators", n)
		}
		if remote, local := find(t, td, 3, "remote (CHA)"), find(t, td, 3, "local (fetch)"); remote >= local {
			t.Errorf("mem lines: remote %.0f, local %.0f; want remote lower", remote, local)
		}
	},
	"abl-translation": func(t *testing.T, td TableData) {
		if tlb, mmu := find(t, td, 1, "dedicated TLB"), find(t, td, 1, "core MMU round-trip"); tlb >= mmu {
			t.Errorf("dedicated TLB %.0f cycles, core MMU round trip %.0f; want the TLB faster", tlb, mmu)
		}
	},
	"abl-batch": func(t *testing.T, td TableData) {
		if b1, b10 := find(t, td, 1, "1"), find(t, td, 1, "10"); b1 <= b10 {
			t.Errorf("batch 1 %.0f cycles, batch 10 %.0f; want batching to save cycles", b1, b10)
		}
	},
	"abl-skew": func(t *testing.T, td TableData) {
		// Hot keys stay in the software walker's private caches.
		if zipf, uni := find(t, td, 1, "DPDK-zipf"), find(t, td, 1, "DPDK"); zipf >= uni {
			t.Errorf("software cycles per query: zipf %.1f, uniform %.1f; want zipf lower", zipf, uni)
		}
	},
	"abl-index": func(t *testing.T, td TableData) {
		if bt, sl := find(t, td, 1, "btree"), find(t, td, 1, "skiplist"); bt >= sl {
			t.Errorf("accel cycles per query: btree %.0f, skiplist %.0f; want btree lower", bt, sl)
		}
	},
	"abl-hugepage": func(t *testing.T, td TableData) {
		frag, huge := td.Rows[0], td.Rows[1]
		if frag[1] != "false" || huge[1] != "true" {
			t.Errorf("contiguous: fragmented %s, huge-page %s; want false, true", frag[1], huge[1])
		}
		if frag[2] != huge[2] {
			t.Errorf("pages mapped: fragmented %s, huge-page %s; want equal", frag[2], huge[2])
		}
	},
}
