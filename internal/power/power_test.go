package power

import (
	"math"
	"testing"
)

func within(got, want, tol float64) bool {
	return math.Abs(got-want)/want <= tol
}

func TestTableIIIMatchesPaper(t *testing.T) {
	rows := Default().TableIII()
	if len(rows) != 3 {
		t.Fatalf("TableIII has %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if !within(r.AreaMM2, r.PaperAreaMM2, 0.03) {
			t.Errorf("%s: area %.4f mm², paper %.4f (off by >3%%)", r.Config, r.AreaMM2, r.PaperAreaMM2)
		}
		if !within(r.StaticMW, r.PaperStaticMW, 0.03) {
			t.Errorf("%s: static %.4f mW, paper %.4f (off by >3%%)", r.Config, r.StaticMW, r.PaperStaticMW)
		}
	}
}

func TestTLBDominatesQEI10Area(t *testing.T) {
	m := Default()
	base, _ := m.QEIArea(10, 2, false)
	tlbA, _ := m.tlbArea()
	// Sec. VII-D: "the extra TLB incurs significant overhead" — the TLB
	// is bigger than the whole QEI-10 accelerator.
	if tlbA <= base {
		t.Fatalf("TLB area %.4f should exceed QEI-10 area %.4f", tlbA, base)
	}
}

func TestAreaScalesWithQST(t *testing.T) {
	m := Default()
	a10, p10 := m.QEIArea(10, 2, false)
	a240, p240 := m.QEIArea(240, 10, false)
	if a240 <= a10 || p240 <= p10 {
		t.Fatal("larger configuration must cost more")
	}
	// Total overhead remains negligible vs an 18 mm² core tile (Sec. VII-D).
	if a240 > 18*0.1 {
		t.Fatalf("QEI-240 area %.4f mm² exceeds 10%% of a core tile", a240)
	}
}

func TestDynamicEnergyMonotonic(t *testing.T) {
	m := Default()
	small := m.DynamicEnergyNJ(Activity{Instructions: 100, L1Accesses: 30})
	big := m.DynamicEnergyNJ(Activity{Instructions: 1000, L1Accesses: 300})
	if big <= small {
		t.Fatal("more activity must cost more energy")
	}
	if m.DynamicEnergyNJ(Activity{}) != 0 {
		t.Fatal("no activity should cost nothing")
	}
}

func TestDRAMDominatesPerAccess(t *testing.T) {
	m := Default()
	if !(m.DRAMAccessEnergy > m.LLCAccessEnergy &&
		m.LLCAccessEnergy > m.L2AccessEnergy &&
		m.L2AccessEnergy > m.L1AccessEnergy) {
		t.Fatal("per-access energy must grow down the hierarchy")
	}
}

func TestQEIQueryCheaperThanSoftwareQuery(t *testing.T) {
	m := Default()
	// Representative per-query activity: software spends ~300 µops and
	// ~40 L1 + 10 L2 + 6 LLC accesses; QEI spends ~40 transitions, the
	// same downstream accesses, no L1, no frontend.
	sw := m.DynamicEnergyNJ(Activity{
		Instructions: 300, Mispredicts: 2,
		L1Accesses: 40, L2Accesses: 10, LLCAccesses: 6, DRAMAccesses: 1,
	})
	hw := m.DynamicEnergyNJ(Activity{
		Transitions: 40, Compare8Bs: 8, Hash8Bs: 2, TLBLookups: 12,
		L2Accesses: 10, LLCAccesses: 6, DRAMAccesses: 1, NoCBytes: 200,
	})
	ratio := hw / sw
	// Fig. 12: accelerators cut >60% of per-query dynamic power.
	if ratio > 0.4 {
		t.Fatalf("QEI/software energy ratio = %.2f, want <= 0.4", ratio)
	}
}

// TestQEIAreaDegenerateCounts pins the edge behaviour the sweep engine
// relies on: zero and negative QST/comparator counts cost exactly the
// fixed CEE/DPU logic, never negative silicon.
func TestQEIAreaDegenerateCounts(t *testing.T) {
	m := Default()
	zeroA, zeroP := m.QEIArea(0, 0, false)
	if zeroA != m.CEEDPUFixedArea || zeroP != m.CEEDPUFixedLeak {
		t.Errorf("QEIArea(0,0) = %.4f mm², %.4f mW; want the fixed block %.4f, %.4f",
			zeroA, zeroP, m.CEEDPUFixedArea, m.CEEDPUFixedLeak)
	}
	negA, negP := m.QEIArea(-5, -3, false)
	if negA != zeroA || negP != zeroP {
		t.Errorf("negative counts: got %.4f mm², %.4f mW; want clamped to the zero point %.4f, %.4f",
			negA, negP, zeroA, zeroP)
	}
	if a, p := m.QEIArea(-1, -1, true); a <= zeroA || p <= zeroP {
		t.Errorf("degenerate point with TLB should still pay the TLB: %.4f mm², %.4f mW", a, p)
	}
}

// TestQEIAreaMonotonic is the property test behind the Pareto sweep:
// area and static power never decrease as QST entries or comparators
// grow, across a grid spanning negative to device-sized counts.
func TestQEIAreaMonotonic(t *testing.T) {
	m := Default()
	counts := []int{-4, 0, 1, 2, 8, 10, 64, 240}
	for _, withTLB := range []bool{false, true} {
		for i := 1; i < len(counts); i++ {
			for _, cmp := range counts {
				aLo, pLo := m.QEIArea(counts[i-1], cmp, withTLB)
				aHi, pHi := m.QEIArea(counts[i], cmp, withTLB)
				if aHi < aLo || pHi < pLo {
					t.Errorf("entries %d->%d (cmp %d, tlb %v): area %.4f->%.4f, power %.4f->%.4f not monotonic",
						counts[i-1], counts[i], cmp, withTLB, aLo, aHi, pLo, pHi)
				}
				aLo, pLo = m.QEIArea(cmp, counts[i-1], withTLB)
				aHi, pHi = m.QEIArea(cmp, counts[i], withTLB)
				if aHi < aLo || pHi < pLo {
					t.Errorf("comparators %d->%d (entries %d, tlb %v): area %.4f->%.4f, power %.4f->%.4f not monotonic",
						counts[i-1], counts[i], cmp, withTLB, aLo, aHi, pLo, pHi)
				}
			}
		}
	}
}

func TestDynamicEnergyEmptyActivity(t *testing.T) {
	if e := Default().DynamicEnergyNJ(Activity{}); e != 0 {
		t.Errorf("empty activity costs %.4f nJ, want exactly 0", e)
	}
}

// TestAtNode pins the technology-scaling contract: identity at the
// 22 nm calibration point (and for non-positive nodes), quadratic area
// and dynamic shrink, linear leakage shrink.
func TestAtNode(t *testing.T) {
	m := Default()
	if m.AtNode(22) != m {
		t.Error("AtNode(22) must be the identity")
	}
	if m.AtNode(0) != m || m.AtNode(-3) != m {
		t.Error("non-positive nodes must behave as the 22 nm calibration")
	}
	h := m.AtNode(11)
	s := 0.5
	if !within(h.CEEDPUFixedArea, m.CEEDPUFixedArea*s*s, 1e-12) {
		t.Errorf("area at 11 nm = %.6f, want quarter of %.6f", h.CEEDPUFixedArea, m.CEEDPUFixedArea)
	}
	if !within(h.CEEDPUFixedLeak, m.CEEDPUFixedLeak*s, 1e-12) {
		t.Errorf("leakage at 11 nm = %.6f, want half of %.6f", h.CEEDPUFixedLeak, m.CEEDPUFixedLeak)
	}
	if !within(h.DRAMAccessEnergy, m.DRAMAccessEnergy*s*s, 1e-12) {
		t.Errorf("dynamic energy at 11 nm = %.6f, want quarter of %.6f", h.DRAMAccessEnergy, m.DRAMAccessEnergy)
	}
	// Scaling preserves the Fig. 12 shape: a full-model scale factor
	// cancels in software-vs-QEI energy ratios.
	a := Activity{Instructions: 100, L1Accesses: 10, LLCAccesses: 3, Transitions: 40}
	if !within(h.DynamicEnergyNJ(a), m.DynamicEnergyNJ(a)*s*s, 1e-9) {
		t.Error("DynamicEnergyNJ must scale uniformly with the node")
	}
}
