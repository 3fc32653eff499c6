// Package power provides the analytic area/power model standing in for
// the paper's McPAT [50] + CACTI [6] flow (Sec. VI-A): component-level
// area and static power at 22 nm for the QEI configurations of Tab. III,
// and per-event dynamic energies for the Fig. 12 per-query power
// comparison.
//
// Coefficients are calibrated so the three Tab. III configurations
// reproduce the published numbers to within a few percent:
//
//	QEI-10      0.1752 mm², 10.8984 mW   (one CHA/Core-integrated instance)
//	QEI-10+TLB  0.5730 mm², 30.9049 mW   (adds a dedicated 1024-entry TLB)
//	QEI-240     1.0901 mm², 20.8764 mW   (centralized device accelerator)
//
// The calibration mirrors the paper's incremental methodology: the QST is
// a heavily multi-ported register-file-like array (hence the high per-bit
// cost), the TLB is CAM tags plus SRAM data (hence its outsized area —
// the paper's argument against per-CHA TLBs), and the CEE/DPU are fixed
// logic blocks.
package power

import "fmt"

// Model holds the technology coefficients (22 nm).
type Model struct {
	// QSTBitsPerEntry is the QST entry width: key_address (8 B),
	// result_address (8 B), type (1 B), state (1 B), intermediate data
	// (64 B), query_mode + ready (2 b) — Sec. IV-B.
	QSTBitsPerEntry int
	// RFAreaPerBit is the multi-ported QST array cost (µm²/bit).
	RFAreaPerBit float64
	// RFLeakPerBit is QST leakage (mW/bit).
	RFLeakPerBit float64
	// CEEDPUFixedArea covers the CFA Execution Engine microcode store,
	// scheduler, queues, five ALUs, and the hashing unit (mm²).
	CEEDPUFixedArea float64
	// CEEDPUFixedLeak is the matching static power (mW).
	CEEDPUFixedLeak float64
	// ComparatorArea is one 64-bit comparator with routing (mm²).
	ComparatorArea float64
	// ComparatorLeak is one comparator's static power (mW).
	ComparatorLeak float64
	// BaseComparators is the comparator count included in the fixed DPU
	// (two per site, Tab. II).
	BaseComparators int

	// TLB coefficients: CAM tags (virtual page number, 40 b) and SRAM
	// data (frame number + permissions, 28 b).
	TLBEntries     int
	TLBTagBits     int
	TLBDataBits    int
	CAMAreaPerBit  float64 // µm²/bit
	SRAMAreaPerBit float64 // µm²/bit
	CAMLeakPerBit  float64 // mW/bit
	SRAMLeakPerBit float64 // mW/bit

	// Dynamic energy per event (nJ).
	CoreEnergyPerInstr float64 // frontend+rename+ROB+commit per µop
	ComparatorLineRead float64 // CHA comparator streaming one line from the LLC data array
	TransitionEnergy   float64 // one CEE transition
	CompareEnergyPer8B float64
	HashEnergyPer8B    float64
	L1AccessEnergy     float64
	L2AccessEnergy     float64
	LLCAccessEnergy    float64
	DRAMAccessEnergy   float64
	NoCEnergyPerByte   float64
	TLBLookupEnergy    float64
	PageWalkEnergy     float64
	MispredictEnergy   float64 // wasted fetch/decode on a flush
}

// Default returns the calibrated 22 nm model.
func Default() Model {
	return Model{
		QSTBitsPerEntry: 658,
		RFAreaPerBit:    5.85,    // µm²/bit — ~6-ported array
		RFLeakPerBit:    60e-6,   // mW/bit
		CEEDPUFixedArea: 0.13671, // mm²
		CEEDPUFixedLeak: 10.5036, // mW
		ComparatorArea:  0.004,
		ComparatorLeak:  0.1,
		BaseComparators: 2,

		TLBEntries:     1024,
		TLBTagBits:     40,
		TLBDataBits:    28,
		CAMAreaPerBit:  8.0,
		SRAMAreaPerBit: 2.44,
		CAMLeakPerBit:  0.00043,
		SRAMLeakPerBit: 0.00008,

		CoreEnergyPerInstr: 1.0, // Skylake-class OoO pipeline per µop
		ComparatorLineRead: 0.6, // no tag path, no fill, no transfer
		TransitionEnergy:   0.04,
		CompareEnergyPer8B: 0.008,
		HashEnergyPer8B:    0.03,
		L1AccessEnergy:     0.12,
		L2AccessEnergy:     0.45,
		LLCAccessEnergy:    1.3,
		DRAMAccessEnergy:   18.0,
		NoCEnergyPerByte:   0.0015, // per byte-hop (link traversal)
		TLBLookupEnergy:    0.02,
		PageWalkEnergy:     2.0,
		MispredictEnergy:   1.8,
	}
}

// AtNode returns the model scaled from its 22 nm calibration to the
// given technology node with first-order shrink factors: area scales
// with the square of the feature size, static (leakage) power linearly,
// and dynamic energy per event with the square (capacitance times a
// voltage that tracks the node). The factors are deliberately coarse —
// they rank design points in a sweep, they are not a sign-off flow —
// and AtNode(22) returns the model unchanged. Non-positive nodes are
// treated as the 22 nm calibration point.
func (m Model) AtNode(nm int) Model {
	if nm <= 0 {
		nm = 22
	}
	s := float64(nm) / 22.0
	area, leak, dyn := s*s, s, s*s

	m.RFAreaPerBit *= area
	m.CEEDPUFixedArea *= area
	m.ComparatorArea *= area
	m.CAMAreaPerBit *= area
	m.SRAMAreaPerBit *= area

	m.RFLeakPerBit *= leak
	m.CEEDPUFixedLeak *= leak
	m.ComparatorLeak *= leak
	m.CAMLeakPerBit *= leak
	m.SRAMLeakPerBit *= leak

	m.CoreEnergyPerInstr *= dyn
	m.ComparatorLineRead *= dyn
	m.TransitionEnergy *= dyn
	m.CompareEnergyPer8B *= dyn
	m.HashEnergyPer8B *= dyn
	m.L1AccessEnergy *= dyn
	m.L2AccessEnergy *= dyn
	m.LLCAccessEnergy *= dyn
	m.DRAMAccessEnergy *= dyn
	m.NoCEnergyPerByte *= dyn
	m.TLBLookupEnergy *= dyn
	m.PageWalkEnergy *= dyn
	m.MispredictEnergy *= dyn
	return m
}

// QEIArea returns the silicon area (mm²) and static power (mW) of one
// QEI accelerator with the given QST capacity and comparator count,
// optionally including a dedicated TLB. Negative counts are clamped to
// zero (a degenerate design point costs the fixed logic, never negative
// silicon), so area and power are monotonically non-decreasing in both
// arguments.
func (m Model) QEIArea(qstEntries, comparators int, withTLB bool) (mm2, mW float64) {
	if qstEntries < 0 {
		qstEntries = 0
	}
	if comparators < 0 {
		comparators = 0
	}
	bits := float64(qstEntries * m.QSTBitsPerEntry)
	mm2 = bits*m.RFAreaPerBit/1e6 + m.CEEDPUFixedArea
	mW = bits*m.RFLeakPerBit + m.CEEDPUFixedLeak
	extraComp := comparators - m.BaseComparators
	if extraComp > 0 {
		mm2 += float64(extraComp) * m.ComparatorArea
		mW += float64(extraComp) * m.ComparatorLeak
	}
	if withTLB {
		ta, tp := m.tlbArea()
		mm2 += ta
		mW += tp
	}
	return mm2, mW
}

// tlbArea returns the dedicated 1024-entry TLB's area (mm²) and static
// power (mW) — the hardware the CHA-TLB scheme pays 24 times for.
func (m Model) tlbArea() (mm2, mW float64) {
	cam := float64(m.TLBEntries * m.TLBTagBits)
	data := float64(m.TLBEntries * m.TLBDataBits)
	mm2 = (cam*m.CAMAreaPerBit + data*m.SRAMAreaPerBit) / 1e6
	mW = cam*m.CAMLeakPerBit + data*m.SRAMLeakPerBit
	return mm2, mW
}

// TableIIIRow is one configuration of the Tab. III reproduction.
type TableIIIRow struct {
	Config   string
	AreaMM2  float64
	StaticMW float64
	// Paper columns for side-by-side reporting.
	PaperAreaMM2  float64
	PaperStaticMW float64
}

// TableIII computes the three configurations of Tab. III.
func (m Model) TableIII() []TableIIIRow {
	a10, p10 := m.QEIArea(10, 2, false)
	a10t, p10t := m.QEIArea(10, 2, true)
	a240, p240 := m.QEIArea(240, 10, false)
	return []TableIIIRow{
		{Config: "QEI-10", AreaMM2: a10, StaticMW: p10, PaperAreaMM2: 0.1752, PaperStaticMW: 10.8984},
		{Config: "QEI-10+TLB", AreaMM2: a10t, StaticMW: p10t, PaperAreaMM2: 0.5730, PaperStaticMW: 30.9049},
		{Config: "QEI-240", AreaMM2: a240, StaticMW: p240, PaperAreaMM2: 1.0901, PaperStaticMW: 20.8764},
	}
}

// Activity is the event tally of one measured region, used for dynamic
// energy accounting (Fig. 12).
type Activity struct {
	// Core-side events (software baseline; also the polling/issue work in
	// accelerated runs).
	Instructions uint64
	Mispredicts  uint64
	// Accelerator-side events.
	Transitions uint64
	Compare8Bs  uint64 // 8-byte comparator operations
	// ComparatorLineReads counts LLC data-array lines streamed by CHA
	// comparators (cheaper than a full LLC access: no tag lookup, no
	// fill, no NoC transfer).
	ComparatorLineReads uint64
	Hash8Bs             uint64 // 8-byte hash-unit operations
	TLBLookups          uint64
	PageWalks           uint64
	// Memory-system events, shared vocabulary for both sides.
	L1Accesses   uint64
	L2Accesses   uint64
	LLCAccesses  uint64
	DRAMAccesses uint64
	NoCBytes     uint64
}

// DynamicEnergyNJ returns the total dynamic energy of the activity in
// nanojoules.
func (m Model) DynamicEnergyNJ(a Activity) float64 {
	return float64(a.ComparatorLineReads)*m.ComparatorLineRead +
		float64(a.Instructions)*m.CoreEnergyPerInstr +
		float64(a.Mispredicts)*m.MispredictEnergy +
		float64(a.Transitions)*m.TransitionEnergy +
		float64(a.Compare8Bs)*m.CompareEnergyPer8B +
		float64(a.Hash8Bs)*m.HashEnergyPer8B +
		float64(a.TLBLookups)*m.TLBLookupEnergy +
		float64(a.PageWalks)*m.PageWalkEnergy +
		float64(a.L1Accesses)*m.L1AccessEnergy +
		float64(a.L2Accesses)*m.L2AccessEnergy +
		float64(a.LLCAccesses)*m.LLCAccessEnergy +
		float64(a.DRAMAccesses)*m.DRAMAccessEnergy +
		float64(a.NoCBytes)*m.NoCEnergyPerByte
}

// String renders a Tab. III row.
func (r TableIIIRow) String() string {
	return fmt.Sprintf("%-12s area %.4f mm² (paper %.4f), static %.4f mW (paper %.4f)",
		r.Config, r.AreaMM2, r.PaperAreaMM2, r.StaticMW, r.PaperStaticMW)
}
