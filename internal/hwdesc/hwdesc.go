// Package hwdesc is the declarative machine + accelerator description:
// one JSON-encodable value that names everything the simulator needs to
// build a chip — core count, mesh geometry and link timing, memory-
// controller placement, cache and TLB sizing, page-walk cost, the QST
// capacity and comparator count of the accelerator, its integration
// scheme, and the technology node for the area/power model.
//
// It is the only description of the chip: machine.New builds from a
// Description, Default() is the Tab. II chip every experiment simulates,
// and "what if the QST were bigger / the mesh smaller / the node 7 nm"
// is an edit to data, not to Go. Files loaded from disk are validated
// with errors wrapping ErrBadConfig, and the dse package sweeps grids
// of Descriptions through the deterministic runner.
//
// The Config methods on Mesh, Cache and TLB turn each block into the
// component's own configuration; machine.New copies MemStops, so a
// built machine never aliases the Description it came from.
package hwdesc

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"

	"qei/internal/cache"
	"qei/internal/mem"
	"qei/internal/noc"
	"qei/internal/power"
	"qei/internal/scheme"
	"qei/internal/tlb"
)

// ErrBadConfig is the sentinel wrapped by every validation and decode
// failure in this package; callers branch with errors.Is.
var ErrBadConfig = errors.New("hwdesc: bad machine description")

// Mesh describes the NoC geometry and link timing.
type Mesh struct {
	Cols              int     `json:"cols"`
	Rows              int     `json:"rows"`
	HopLatency        uint64  `json:"hop_latency"`
	RouterLatency     uint64  `json:"router_latency"`
	LinkBytesPerCycle float64 `json:"link_bytes_per_cycle"`
}

// Cache describes one cache array (line size is fixed at mem.LineSize).
type Cache struct {
	SizeBytes  uint64 `json:"size_bytes"`
	Ways       int    `json:"ways"`
	HitLatency uint64 `json:"hit_latency"`
}

// TLB describes one translation array.
type TLB struct {
	Entries    int    `json:"entries"`
	Ways       int    `json:"ways"`
	HitLatency uint64 `json:"hit_latency"`
}

// Config is the mesh's noc configuration.
func (m Mesh) Config() noc.Config {
	return noc.Config{Cols: m.Cols, Rows: m.Rows, HopLatency: m.HopLatency,
		RouterLatency: m.RouterLatency, LinkBytesPerCycle: m.LinkBytesPerCycle}
}

// Config is the cache array's geometry with mem.LineSize lines.
func (c Cache) Config() cache.Config {
	return cache.Config{SizeBytes: c.SizeBytes, Ways: c.Ways, LineSize: mem.LineSize, HitLatency: c.HitLatency}
}

// Config is the TLB array's geometry.
func (t TLB) Config() tlb.Config {
	return tlb.Config{Entries: t.Entries, Ways: t.Ways, HitLatency: t.HitLatency}
}

// QST describes the accelerator's query-status-table capacity and the
// comparator count per site (per CHA for distributed schemes, per DPU
// for device schemes) — the Tab. III area knobs.
type QST struct {
	Entries     int `json:"entries"`
	Comparators int `json:"comparators"`
}

// Description is one complete machine + accelerator design point.
// The zero value is not valid; start from Default(), a preset, or a
// decoded file and adjust.
type Description struct {
	Name  string `json:"name"`
	Cores int    `json:"cores"`
	Mesh  Mesh   `json:"mesh"`
	// MemStops are the mesh stops hosting memory controllers.
	MemStops []int `json:"mem_stops"`
	// PageWalkLatency is the per-level cost of a hardware page walk.
	PageWalkLatency uint64 `json:"page_walk_latency"`
	// ContiguousFrames lays data out physically contiguously (the
	// huge-page ablation); default false (fragmented, Sec. II-B).
	ContiguousFrames bool `json:"contiguous_frames,omitempty"`

	L1D      Cache `json:"l1d"`
	L2       Cache `json:"l2"`
	LLCSlice Cache `json:"llc_slice"`
	L1TLB    TLB   `json:"l1_tlb"`
	L2TLB    TLB   `json:"l2_tlb"`

	// Scheme is the integration scheme by CLI name: "core", "cha-tlb",
	// "cha-notlb", "device-direct", "device-indirect".
	Scheme string `json:"scheme"`
	QST    QST    `json:"qst"`
	// AccelTLB overrides the dedicated accelerator TLB geometry for
	// schemes that have one; the zero value keeps the scheme's default.
	AccelTLB TLB `json:"accel_tlb,omitempty"`
	// ExtraDataLatency is charged on every accelerator data access
	// (device-interface overhead; the Fig. 8 sweep varies it). Zero
	// keeps the scheme's default.
	ExtraDataLatency uint64 `json:"extra_data_latency,omitempty"`

	// TechNodeNM is the process node for the area/power model; the
	// calibration point is 22 (Tab. III).
	TechNodeNM int `json:"tech_node_nm"`
}

// schemeKind resolves the description's scheme name; "" means the
// Core-integrated default.
func (d Description) schemeKind() (scheme.Kind, error) {
	if d.Scheme == "" {
		return scheme.CoreIntegrated, nil
	}
	k, err := scheme.Parse(d.Scheme)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return k, nil
}

// Default returns the Tab. II machine — 24 Skylake-SP-like cores on a
// 6x4 mesh, 6 memory controllers, the paper's cache/TLB hierarchy — with
// the Core-integrated accelerator (QST 10, 2 comparators/CHA) at 22 nm.
// Its accelerator half reproduces scheme.ForKind(CoreIntegrated)
// exactly (pinned by tests).
func Default() Description {
	return Description{
		Name:  "tab2",
		Cores: 24,
		Mesh: Mesh{
			Cols: 6, Rows: 4,
			// Calibrated per-hop costs: core→CHA round trips land in Tab.
			// I's 40–60 cycle band (avg ~4 hops from a corner core:
			// 2×(4×1 + 5×2) ≈ 28 cycles round trip + port overheads).
			HopLatency:        1,
			RouterLatency:     2,
			LinkBytesPerCycle: 32,
		},
		MemStops:        []int{0, 5, 9, 14, 18, 23},
		PageWalkLatency: 30,
		L1D:             Cache{SizeBytes: 32 << 10, Ways: 8, HitLatency: 4},
		L2:              Cache{SizeBytes: 1 << 20, Ways: 16, HitLatency: 14},
		LLCSlice:        Cache{SizeBytes: (33 << 20) / 24, Ways: 11, HitLatency: 20},
		L1TLB:           TLB{Entries: 64, Ways: 4, HitLatency: 1},
		L2TLB:           TLB{Entries: 1024, Ways: 8, HitLatency: 7},
		Scheme:          "core",
		QST:             QST{Entries: 10, Comparators: 2},
		TechNodeNM:      22,
	}
}

// ForScheme returns the Tab. II machine with the accelerator integrated
// under the given scheme, matching scheme.ForKind(k) exactly.
func ForScheme(k scheme.Kind) Description {
	d := Default()
	d.Scheme = k.Name()
	d.Name = "tab2-" + d.Scheme
	p := scheme.ForKind(k)
	d.QST = QST{Entries: p.QSTEntriesPerInstance, Comparators: p.ComparatorsPerSite}
	return d
}

// WithDataLatency returns a copy with the device-interface data-access
// latency overridden — the Fig. 8 sweep knob.
func (d Description) WithDataLatency(lat uint64) Description {
	d.ExtraDataLatency = lat
	d.Name = fmt.Sprintf("%s-lat%d", d.Name, lat)
	return d
}

// Presets lists the named machine descriptions: "default", then one
// Tab. II machine per integration scheme, in scheme.Kind order.
func Presets() []string {
	return append([]string{"default"}, scheme.Names()...)
}

// Preset returns a named description: "default" (== "core") or one of
// the per-scheme Tab. II machines.
func Preset(name string) (Description, error) {
	if name == "default" {
		return Default(), nil
	}
	if k, err := scheme.Parse(name); err == nil {
		return ForScheme(k), nil
	}
	return Description{}, fmt.Errorf("%w: unknown preset %q (have %s)",
		ErrBadConfig, name, strings.Join(Presets(), ", "))
}

// Load resolves a preset name or a JSON file path into a validated
// Description. Decode and validation failures wrap ErrBadConfig.
func Load(presetOrPath string) (Description, error) {
	for _, p := range Presets() {
		if presetOrPath == p {
			return Preset(presetOrPath)
		}
	}
	data, err := os.ReadFile(presetOrPath)
	if err != nil {
		return Description{}, fmt.Errorf("%w: %q is neither a preset (%s) nor a readable file: %v",
			ErrBadConfig, presetOrPath, strings.Join(Presets(), ", "), err)
	}
	return Decode(data)
}

// Decode parses a JSON description, rejecting unknown fields, and
// validates it.
func Decode(data []byte) (Description, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var d Description
	if err := dec.Decode(&d); err != nil {
		return Description{}, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if err := d.Validate(); err != nil {
		return Description{}, err
	}
	return d, nil
}

// Encode renders the description as indented JSON with a trailing
// newline. Encode∘Decode is byte-identical (the golden round-trip).
func (d Description) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func bad(format string, v ...any) error {
	return fmt.Errorf("%w: %s", ErrBadConfig, fmt.Sprintf(format, v...))
}

// maxEntries bounds every array a description makes the simulator
// build: the mesh's stops (four directed links each), and per field the
// cache lines or TLB or QST entries summed over the chip. It admits an
// LLC nearly eight times Tab. II's 540,672 lines and keeps a file from
// asking for an allocation Go cannot make.
const maxEntries = 1 << 22

// bounded rejects count arrays of per entries each when their total
// exceeds maxEntries; field names the offender. Both operands are
// checked first, so the product cannot overflow.
func bounded(field string, count, per uint64) error {
	if count > maxEntries || per > maxEntries || count*per > maxEntries {
		return bad("%s: %d × %d entries exceed the %d-entry bound", field, count, per, maxEntries)
	}
	return nil
}

func validCache(name string, c Cache, cores int) error {
	if c.SizeBytes == 0 || c.Ways <= 0 {
		return bad("%s: size %d bytes / %d ways must be positive", name, c.SizeBytes, c.Ways)
	}
	lines := c.SizeBytes / mem.LineSize
	if err := bounded(name, uint64(cores), lines); err != nil {
		return err
	}
	// More ways than lines cannot divide; checking it first keeps the
	// product below from overflowing.
	if uint64(c.Ways) > lines || c.SizeBytes%(mem.LineSize*uint64(c.Ways)) != 0 {
		return bad("%s: %d bytes not divisible by %d ways of %d-byte lines",
			name, c.SizeBytes, c.Ways, mem.LineSize)
	}
	return nil
}

func validTLB(name string, t TLB, cores int) error {
	if t.Entries <= 0 || t.Ways <= 0 {
		return bad("%s: %d entries / %d ways must be positive", name, t.Entries, t.Ways)
	}
	if t.Entries%t.Ways != 0 {
		return bad("%s: %d entries not divisible by %d ways", name, t.Entries, t.Ways)
	}
	return bounded(name, uint64(cores), uint64(t.Entries))
}

// Validate checks the description for internal consistency; every
// failure wraps ErrBadConfig with the offending field spelled out.
func (d Description) Validate() error {
	if d.Cores < 1 {
		return bad("cores %d < 1", d.Cores)
	}
	if d.Mesh.Cols < 1 || d.Mesh.Rows < 1 {
		return bad("mesh %dx%d: dimensions must be positive", d.Mesh.Cols, d.Mesh.Rows)
	}
	if err := bounded("mesh", uint64(d.Mesh.Cols), uint64(d.Mesh.Rows)); err != nil {
		return err
	}
	stops := d.Mesh.Cols * d.Mesh.Rows
	if d.Cores > stops {
		return bad("cores %d exceed the %dx%d mesh's %d stops", d.Cores, d.Mesh.Cols, d.Mesh.Rows, stops)
	}
	if d.Mesh.LinkBytesPerCycle <= 0 {
		return bad("mesh link bandwidth %.3f bytes/cycle must be positive", d.Mesh.LinkBytesPerCycle)
	}
	if len(d.MemStops) == 0 {
		return bad("no memory-controller stops")
	}
	for _, s := range d.MemStops {
		if s < 0 || s >= stops {
			return bad("memory stop %d outside the %d-stop mesh", s, stops)
		}
	}
	if err := validCache("l1d", d.L1D, d.Cores); err != nil {
		return err
	}
	if err := validCache("l2", d.L2, d.Cores); err != nil {
		return err
	}
	if err := validCache("llc_slice", d.LLCSlice, d.Cores); err != nil {
		return err
	}
	if err := validTLB("l1_tlb", d.L1TLB, d.Cores); err != nil {
		return err
	}
	if err := validTLB("l2_tlb", d.L2TLB, d.Cores); err != nil {
		return err
	}
	if d.AccelTLB != (TLB{}) {
		if err := validTLB("accel_tlb", d.AccelTLB, d.Cores); err != nil {
			return err
		}
	}
	if _, err := d.schemeKind(); err != nil {
		return err
	}
	if d.QST.Entries < 1 {
		return bad("qst entries %d < 1", d.QST.Entries)
	}
	// Every scheme has at most one QST per core.
	if err := bounded("qst", uint64(d.Cores), uint64(d.QST.Entries)); err != nil {
		return err
	}
	if d.QST.Comparators < 1 {
		return bad("qst comparators %d < 1", d.QST.Comparators)
	}
	if d.TechNodeNM < 1 {
		return bad("tech node %d nm < 1", d.TechNodeNM)
	}
	return nil
}

// SchemeParams materializes the accelerator half: the named scheme's
// paper parameter set with the description's QST capacity, comparator
// count, accelerator-TLB geometry, and device-interface latency applied.
// Tile-placed schemes get one instance per LLC slice, so the instance
// count follows the core count.
func (d Description) SchemeParams() (scheme.Params, error) {
	k, err := d.schemeKind()
	if err != nil {
		return scheme.Params{}, err
	}
	p := scheme.ForKind(k)
	if d.QST.Entries > 0 {
		p.QSTEntriesPerInstance = d.QST.Entries
	}
	if d.QST.Comparators > 0 {
		p.ComparatorsPerSite = d.QST.Comparators
	}
	if d.AccelTLB != (TLB{}) {
		p.DedicatedTLB = d.AccelTLB.Config()
	}
	if d.ExtraDataLatency > 0 {
		p.ExtraDataLatency = d.ExtraDataLatency
	}
	// There is one tile per core, so a smaller chip has fewer
	// distributed instances.
	if p.Placement == scheme.PlaceTile {
		p.Instances = d.Cores
	}
	return p, nil
}

// PowerModel materializes the area/power half: the calibrated 22 nm
// model scaled to the description's technology node.
func (d Description) PowerModel() power.Model {
	return power.Default().AtNode(d.TechNodeNM)
}

// Area returns the total accelerator silicon (mm²) and static power
// (mW) of the design point: the per-instance Tab. III cost — including
// a dedicated TLB where the scheme carries one — times the instance
// count, at the description's technology node.
func (d Description) Area() (mm2, mW float64, err error) {
	p, err := d.SchemeParams()
	if err != nil {
		return 0, 0, err
	}
	model := d.PowerModel()
	withTLB := p.Translation == scheme.TransDedicated
	a, w := model.QEIArea(p.QSTEntriesPerInstance, p.ComparatorsPerSite, withTLB)
	return a * float64(p.Instances), w * float64(p.Instances), nil
}
