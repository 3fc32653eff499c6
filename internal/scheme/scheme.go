// Package scheme defines the five accelerator integration schemes the
// paper evaluates (Sec. V, Sec. VI-A) as parameter sets: where the
// accelerator sits on the chip, how many in-flight queries it supports,
// how it translates addresses, how it reaches data, and whether it can
// dispatch key comparisons to the CHAs.
//
// It is the only package that knows what a scheme is: every name, every
// parameter, and every Tab. I label lives in one table indexed by Kind.
// The rest of the simulator reads the Params and never branches on a
// Kind.
package scheme

import (
	"fmt"
	"strings"

	"qei/internal/tlb"
)

// Kind enumerates the integration schemes.
type Kind int

const (
	// CoreIntegrated is the paper's proposal: QST/CEE/DPU beside each
	// core's L2 and L2-TLB, comparators distributed into the CHAs.
	CoreIntegrated Kind = iota
	// CHATLB is the HALO-style scheme: accelerators in every CHA, each
	// with a dedicated 1024-entry TLB.
	CHATLB
	// CHANoTLB places accelerators in the CHAs but routes every
	// translation to the core's MMU.
	CHANoTLB
	// DeviceDirect attaches one accelerator to the NoC as a special core
	// (DASX-style).
	DeviceDirect
	// DeviceIndirect attaches the accelerator behind a standard device
	// interface (CXL/OpenCAPI-style), adding interface latency to every
	// access.
	DeviceIndirect
)

// Kinds lists all schemes in the paper's presentation order.
func Kinds() []Kind {
	return []Kind{CHATLB, CHANoTLB, DeviceDirect, DeviceIndirect, CoreIntegrated}
}

// Placement is where the accelerator's instances sit on the chip.
type Placement int

const (
	// PlaceCore puts the accelerator beside the serving core's L2: the
	// core reaches its QST without crossing the NoC.
	PlaceCore Placement = iota
	// PlaceTile puts one instance in every CHA/LLC tile, instance i at
	// mesh stop i, so the instance count follows the core count.
	PlaceTile
	// PlaceDevice puts one centralized instance at the last mesh stop (a
	// corner, maximizing average distance): every query crosses the NoC
	// to the same stop, the hotspot of Tab. I.
	PlaceDevice
)

// TranslationPath selects how the accelerator translates virtual
// addresses (the crux of Challenge 3, Sec. II-B).
type TranslationPath int

const (
	// TransL2TLB shares the core's L2-TLB (Core-integrated).
	TransL2TLB TranslationPath = iota
	// TransDedicated uses a private TLB at the accelerator (CHA-TLB,
	// device schemes' IOMMU-ish TLB).
	TransDedicated
	// TransCoreMMU round-trips every translation to the core's MMU
	// (CHA-noTLB).
	TransCoreMMU
)

func (t TranslationPath) String() string {
	switch t {
	case TransL2TLB:
		return "shared L2-TLB"
	case TransDedicated:
		return "dedicated TLB"
	case TransCoreMMU:
		return "core MMU round-trip"
	default:
		return "?"
	}
}

// DataPath selects how the accelerator's memory micro-ops reach data.
type DataPath int

const (
	// DataViaL2 goes through the issuing core's L2 then the LLC
	// (Core-integrated: shares L2, avoids L1 pollution).
	DataViaL2 DataPath = iota
	// DataViaLLC goes straight to the owning LLC slice from the
	// accelerator's mesh stop (CHA and device schemes).
	DataViaLLC
)

// Params is the complete description of one integration scheme.
type Params struct {
	Kind Kind
	// Placement is where the instances sit on the chip.
	Placement Placement
	// QSTEntriesPerInstance is the in-flight query capacity of one
	// accelerator instance (10 for CHA/core schemes, 240 for devices —
	// Sec. VI-A).
	QSTEntriesPerInstance int
	// Instances is the number of accelerator instances on the chip (24
	// for CHA schemes, 1 otherwise; the Core-integrated scheme has one
	// per core but a single-threaded workload exercises one).
	Instances int
	// PortOverhead is the fixed cost of handing a request from the core
	// to the accelerator beyond NoC traversal (queueing, protocol).
	PortOverhead uint64
	// ReplyOverhead is the fixed cost of delivering the result back.
	ReplyOverhead uint64
	// Translation picks the translation path; DedicatedTLB holds its
	// geometry when Translation == TransDedicated.
	Translation  TranslationPath
	DedicatedTLB tlb.Config
	// Data picks the data-access path.
	Data DataPath
	// ExtraDataLatency is charged on every accelerator data access
	// (device-interface overhead; the Fig. 8 sweep varies it).
	ExtraDataLatency uint64
	// RemoteCompare enables dispatching comparisons of non-staged data to
	// the CHA owning it (near-data comparison, Sec. V-A).
	RemoteCompare bool
	// ComparatorsPerSite bounds concurrent comparisons per CHA (2) or per
	// device DPU (10) — Tab. II.
	ComparatorsPerSite int
}

// info is one scheme's row of the table.
type info struct {
	// display is the paper's name; name is the CLI/JSON name.
	display, name string
	params        Params
	// tab carries the scheme's Tab. I labels; TableI fills in the
	// Scheme and NoCHotspot columns.
	tab TableIRow
}

// table holds every scheme, indexed by Kind (Sec. VI-A, Tab. I, Tab. II).
var table = [...]info{
	CoreIntegrated: {
		display: "Core-integrated", name: "core",
		params: Params{
			Placement:             PlaceCore,
			QSTEntriesPerInstance: 10,
			Instances:             1,
			PortOverhead:          8, // Tab. I: 10–25 cycles core↔accel
			ReplyOverhead:         4,
			Translation:           TransL2TLB,
			Data:                  DataViaL2,
			RemoteCompare:         true,
			ComparatorsPerSite:    2,
		},
		tab: TableIRow{AccelCoreCycles: "10-25", AccelDataCycles: "20-40",
			HardwareCost: "Low", MemMgmt: "Shared", PrivatePollute: "No", Scalability: "Good"},
	},
	CHATLB: {
		display: "CHA-TLB", name: "cha-tlb",
		params: Params{
			Placement:             PlaceTile,
			QSTEntriesPerInstance: 10,
			Instances:             24,
			PortOverhead:          18, // Tab. I: 40–60 with NoC traversal
			ReplyOverhead:         10,
			Translation:           TransDedicated,
			DedicatedTLB:          tlb.Config{Entries: 1024, Ways: 8, HitLatency: 7}, // "same as the L2-TLB size"
			Data:                  DataViaLLC,
			RemoteCompare:         true,
			ComparatorsPerSite:    2,
		},
		tab: TableIRow{AccelCoreCycles: "40-60", AccelDataCycles: "10-50",
			HardwareCost: "Low (TLB-heavy)", MemMgmt: "Dedicated", PrivatePollute: "No", Scalability: "Good"},
	},
	CHANoTLB: {
		display: "CHA-noTLB", name: "cha-notlb",
		params: Params{
			Placement:             PlaceTile,
			QSTEntriesPerInstance: 10,
			Instances:             24,
			PortOverhead:          18,
			ReplyOverhead:         10,
			Translation:           TransCoreMMU,
			Data:                  DataViaLLC,
			RemoteCompare:         true,
			ComparatorsPerSite:    2,
		},
		tab: TableIRow{AccelCoreCycles: "40-60", AccelDataCycles: "10-50",
			HardwareCost: "Low", MemMgmt: "Shared", PrivatePollute: "No", Scalability: "Good"},
	},
	DeviceDirect: {
		display: "Device-direct", name: "device-direct",
		params: Params{
			Placement:             PlaceDevice,
			QSTEntriesPerInstance: 240, // 10 × 24 cores, Sec. VI-A
			Instances:             1,
			PortOverhead:          90, // Tab. I: 100–500 core↔accel
			ReplyOverhead:         60,
			Translation:           TransDedicated,
			DedicatedTLB:          tlb.Config{Entries: 1024, Ways: 8, HitLatency: 12},
			Data:                  DataViaLLC,
			RemoteCompare:         false,
			ComparatorsPerSite:    10,
		},
		tab: TableIRow{AccelCoreCycles: "100-500", AccelDataCycles: "100-500",
			HardwareCost: "Medium/High", MemMgmt: "Dedicated", PrivatePollute: "No", Scalability: "Medium"},
	},
	DeviceIndirect: {
		display: "Device-indirect", name: "device-indirect",
		params: Params{
			Placement:             PlaceDevice,
			QSTEntriesPerInstance: 240,
			Instances:             1,
			PortOverhead:          280, // device-interface request path
			ReplyOverhead:         180,
			Translation:           TransDedicated,
			DedicatedTLB:          tlb.Config{Entries: 1024, Ways: 8, HitLatency: 16},
			Data:                  DataViaLLC,
			ExtraDataLatency:      300, // swept 50–2000 in Fig. 8
			RemoteCompare:         false,
			ComparatorsPerSite:    10,
		},
		tab: TableIRow{AccelCoreCycles: "100-500", AccelDataCycles: "100-500",
			HardwareCost: "Medium/High", MemMgmt: "Dedicated", PrivatePollute: "No", Scalability: "Medium"},
	},
}

// row returns k's table row, or nil for a value that names no scheme.
func (k Kind) row() *info {
	if k < 0 || int(k) >= len(table) {
		return nil
	}
	return &table[k]
}

// String returns the paper's display name ("Core-integrated").
func (k Kind) String() string {
	if r := k.row(); r != nil {
		return r.display
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Name returns the CLI/JSON name ("core", "cha-tlb", ...).
func (k Kind) Name() string {
	if r := k.row(); r != nil {
		return r.name
	}
	return fmt.Sprintf("scheme(%d)", int(k))
}

// Names lists the CLI/JSON names in Kind order.
func Names() []string {
	out := make([]string, len(table))
	for i, r := range table {
		out[i] = r.name
	}
	return out
}

// Parse resolves a CLI/JSON name to its scheme.
func Parse(name string) (Kind, error) {
	for i, r := range table {
		if r.name == name {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q (have %s)", name, strings.Join(Names(), ", "))
}

// ForKind returns the paper's configuration for a scheme (Sec. VI-A,
// Tab. I, Tab. II).
func ForKind(k Kind) Params {
	r := k.row()
	if r == nil {
		panic(fmt.Sprintf("scheme: unknown kind %d", int(k)))
	}
	p := r.params
	p.Kind = k
	return p
}

// TableIRow summarizes a scheme for the Tab. I reproduction.
type TableIRow struct {
	Scheme          string
	AccelCoreCycles string
	AccelDataCycles string
	HardwareCost    string
	MemMgmt         string
	NoCHotspot      string
	PrivatePollute  string
	Scalability     string
}

// TableI returns the qualitative comparison of Tab. I in the paper's
// order; the NoC-hotspot column follows from each scheme's placement.
func TableI() []TableIRow {
	var rows []TableIRow
	for _, k := range Kinds() {
		r := k.row()
		row := r.tab
		row.Scheme = r.display
		row.NoCHotspot = "No"
		if r.params.Placement == PlaceDevice {
			row.NoCHotspot = "Yes"
		}
		rows = append(rows, row)
	}
	return rows
}
