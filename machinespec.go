package qei

import "qei/internal/hwdesc"

// MachineSpec is a validated, declarative machine + accelerator
// description: the chip the simulator builds (cores, mesh, memory
// controllers, cache/TLB hierarchy) and the accelerator sitting on it
// (QST capacity, comparators, integration scheme, technology node).
// Specs come from DefaultMachineSpec, a named preset, or a JSON file
// (LoadMachineSpec) — every constructor validates, so a MachineSpec in
// hand always materializes. The zero value acts like
// DefaultMachineSpec().
type MachineSpec struct {
	d hwdesc.Description
}

// DefaultMachineSpec returns the Tab. II machine — the same chip every
// experiment simulates by default.
func DefaultMachineSpec() MachineSpec {
	return MachineSpec{d: hwdesc.Default()}
}

// LoadMachineSpec resolves a preset name ("default", or an integration
// scheme name such as "cha-tlb") or a JSON file path into a validated
// spec. Unknown presets, unreadable files, unknown fields, and
// inconsistent geometry all fail with errors wrapping ErrBadConfig.
func LoadMachineSpec(presetOrPath string) (MachineSpec, error) {
	d, err := hwdesc.Load(presetOrPath)
	if err != nil {
		return MachineSpec{}, err
	}
	return MachineSpec{d: d}, nil
}

// Name returns the description's name ("tab2" for the default).
func (s MachineSpec) Name() string { return s.desc().Name }

// JSON renders the spec in the hwdesc wire format — what LoadMachineSpec
// reads back, byte-identical round trip.
func (s MachineSpec) JSON() ([]byte, error) { return s.desc().Encode() }

// desc resolves the zero value to the default description.
func (s MachineSpec) desc() hwdesc.Description {
	if s.d.Cores == 0 {
		return hwdesc.Default()
	}
	return s.d
}

// WithMachineSpec builds the System on the spec's chip instead of the
// Tab. II default. The integration scheme remains NewSystem's argument;
// the spec contributes the topology, the QST sizing, and the
// accelerator-TLB/device-latency overrides.
func WithMachineSpec(spec MachineSpec) Option {
	return func(c *sysConfig) { c.spec = &spec }
}
