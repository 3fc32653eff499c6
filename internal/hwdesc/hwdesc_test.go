package hwdesc

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"qei/internal/scheme"
)

// TestGoldenRoundTrip pins the wire format: encode → decode → encode
// must be byte-identical for every preset.
func TestGoldenRoundTrip(t *testing.T) {
	for _, name := range Presets() {
		d, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		first, err := d.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		back, err := Decode(first)
		if err != nil {
			t.Fatalf("%s: decode of own encoding: %v", name, err)
		}
		second, err := back.Encode()
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: round trip not byte-identical:\nfirst:\n%s\nsecond:\n%s", name, first, second)
		}
		if !reflect.DeepEqual(d, back) {
			t.Errorf("%s: decoded value differs: %+v vs %+v", name, d, back)
		}
	}
}

// TestForSchemeMatchesSchemeTable pins the accelerator half of every
// per-scheme Tab. II description to the scheme table. The chip half is
// pinned in package machine (TestDefaultIsTabII), which builds it.
func TestForSchemeMatchesSchemeTable(t *testing.T) {
	for _, k := range scheme.Kinds() {
		p, err := ForScheme(k).SchemeParams()
		if err != nil {
			t.Fatalf("%v: SchemeParams: %v", k, err)
		}
		if !reflect.DeepEqual(p, scheme.ForKind(k)) {
			t.Errorf("%v: SchemeParams() = %+v, want scheme.ForKind = %+v", k, p, scheme.ForKind(k))
		}
	}
}

func TestPresetsAndLoad(t *testing.T) {
	if _, err := Preset("nope"); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Preset(nope) error = %v, want ErrBadConfig", err)
	}
	if _, err := Load("no-such-file.json"); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Load(missing file) error = %v, want ErrBadConfig", err)
	}
	for _, k := range scheme.Kinds() {
		d, err := Preset(k.Name())
		if err != nil || d.Scheme != k.Name() {
			t.Errorf("Preset(%q) = %q, %v", k.Name(), d.Scheme, err)
		}
	}

	// A preset written to disk loads back equal.
	d := ForScheme(scheme.CHATLB)
	data, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load(%s): %v", path, err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Errorf("Load(file) = %+v, want %+v", got, d)
	}

	// Preset names resolve before file paths.
	fromPreset, err := Load("cha-tlb")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromPreset, d) {
		t.Errorf("Load(cha-tlb) = %+v, want ForScheme(CHATLB)", fromPreset)
	}
}

func TestDecodeRejectsUnknownFieldsAndBadValues(t *testing.T) {
	if _, err := Decode([]byte(`{"cores": 24, "bogus": 1}`)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown field: error = %v, want ErrBadConfig", err)
	}
	if _, err := Decode([]byte(`not json`)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad json: error = %v, want ErrBadConfig", err)
	}
}

func TestValidate(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Description)
	}{
		{"zero cores", func(d *Description) { d.Cores = 0 }},
		{"cores exceed stops", func(d *Description) { d.Cores = 25 }},
		{"zero mesh", func(d *Description) { d.Mesh.Cols = 0 }},
		{"no link bandwidth", func(d *Description) { d.Mesh.LinkBytesPerCycle = 0 }},
		{"no mem stops", func(d *Description) { d.MemStops = nil }},
		{"mem stop out of range", func(d *Description) { d.MemStops = []int{24} }},
		{"negative mem stop", func(d *Description) { d.MemStops = []int{-1} }},
		{"l1d not line-divisible", func(d *Description) { d.L1D.SizeBytes = 1000 }},
		{"zero l2 ways", func(d *Description) { d.L2.Ways = 0 }},
		{"llc slice zero size", func(d *Description) { d.LLCSlice.SizeBytes = 0 }},
		{"l1 tlb entries not way-divisible", func(d *Description) { d.L1TLB.Entries = 63 }},
		{"zero l2 tlb", func(d *Description) { d.L2TLB.Entries = 0 }},
		{"bad accel tlb", func(d *Description) { d.AccelTLB = TLB{Entries: 7, Ways: 2, HitLatency: 1} }},
		{"unknown scheme", func(d *Description) { d.Scheme = "warp-drive" }},
		{"zero qst", func(d *Description) { d.QST.Entries = 0 }},
		{"zero comparators", func(d *Description) { d.QST.Comparators = 0 }},
		{"zero node", func(d *Description) { d.TechNodeNM = 0 }},
		// Chips too large for the simulator to allocate.
		{"llc slice of 2^57 bytes", func(d *Description) { d.LLCSlice = Cache{SizeBytes: 1 << 57, Ways: 1, HitLatency: 20} }},
		{"mesh 2^30x2^30", func(d *Description) { d.Mesh.Cols, d.Mesh.Rows = 1<<30, 1<<30 }},
		{"mesh stops overflow int", func(d *Description) { d.Mesh.Cols, d.Mesh.Rows = 1<<40, 1<<40 }},
		{"l1d ways overflow the set size", func(d *Description) { d.L1D.Ways = 1 << 58 }},
		{"l2 tlb over the bound", func(d *Description) { d.L2TLB = TLB{Entries: 1 << 20, Ways: 8, HitLatency: 7} }},
		{"accel tlb over the bound", func(d *Description) { d.AccelTLB = TLB{Entries: 1 << 40, Ways: 1, HitLatency: 1} }},
		{"qst over the bound", func(d *Description) { d.QST.Entries = 1 << 62 }},
	}
	for _, tc := range mutations {
		d := Default()
		tc.mut(&d)
		if err := d.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: Validate() = %v, want ErrBadConfig", tc.name, err)
		}
	}
	for _, name := range Presets() {
		d, _ := Preset(name)
		if err := d.Validate(); err != nil {
			t.Errorf("Preset(%q).Validate() = %v, want nil", name, err)
		}
	}
}

func TestWithDataLatency(t *testing.T) {
	d := ForScheme(scheme.DeviceIndirect).WithDataLatency(500)
	if d.ExtraDataLatency != 500 {
		t.Errorf("ExtraDataLatency = %d, want 500", d.ExtraDataLatency)
	}
	p, err := d.SchemeParams()
	if err != nil {
		t.Fatal(err)
	}
	if p.ExtraDataLatency != 500 {
		t.Errorf("SchemeParams().ExtraDataLatency = %d, want 500", p.ExtraDataLatency)
	}
	if d.Name != "tab2-device-indirect-lat500" {
		t.Errorf("Name = %q", d.Name)
	}
}

// TestCHAInstancesTrackCores pins the placement constraint: distributed
// CHA schemes get one instance per slice tile, so a smaller chip must
// have fewer instances.
func TestCHAInstancesTrackCores(t *testing.T) {
	d := ForScheme(scheme.CHATLB)
	d.Cores = 8
	d.Mesh = Mesh{Cols: 4, Rows: 4, HopLatency: 1, RouterLatency: 2, LinkBytesPerCycle: 32}
	d.MemStops = []int{0, 15}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := d.SchemeParams()
	if err != nil {
		t.Fatal(err)
	}
	if p.Instances != 8 {
		t.Errorf("Instances = %d, want 8 (one per slice tile)", p.Instances)
	}
}

func TestAreaScalesWithNodeAndInstances(t *testing.T) {
	core, _, err := Default().Area()
	if err != nil {
		t.Fatal(err)
	}
	cha, _, err := ForScheme(scheme.CHATLB).Area()
	if err != nil {
		t.Fatal(err)
	}
	if cha <= core*20 {
		t.Errorf("CHA-TLB total area %.4f should dwarf one core-integrated instance %.4f (24 instances + TLBs)", cha, core)
	}
	small := Default()
	small.TechNodeNM = 7
	shrunk, _, err := small.Area()
	if err != nil {
		t.Fatal(err)
	}
	if shrunk >= core {
		t.Errorf("7 nm area %.4f should shrink below 22 nm %.4f", shrunk, core)
	}
}

// FuzzDecode feeds arbitrary bytes to Decode. It must never panic, every
// rejection must wrap ErrBadConfig, and an accepted description must
// validate and survive Encode then Decode unchanged, in value and in
// bytes. The seed corpus (testdata/fuzz/FuzzDecode) holds every preset's
// encoding and Tab. II files with one size too large to allocate.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Decode error %v does not wrap ErrBadConfig", err)
			}
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("Decode accepted a description Validate rejects: %v", err)
		}
		first, err := d.Encode()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		back, err := Decode(first)
		if err != nil {
			t.Fatalf("decode of own encoding: %v\n%s", err, first)
		}
		if !reflect.DeepEqual(d, back) {
			t.Fatalf("round trip changed the value: %+v vs %+v", d, back)
		}
		second, err := back.Encode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip not byte-identical:\n%s\n%s", first, second)
		}
	})
}
