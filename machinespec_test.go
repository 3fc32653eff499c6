package qei

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"qei/internal/hwdesc"
)

func TestLoadMachineSpecPresetsAndErrors(t *testing.T) {
	for _, name := range hwdesc.Presets() {
		spec, err := LoadMachineSpec(name)
		if err != nil {
			t.Fatalf("LoadMachineSpec(%q): %v", name, err)
		}
		if cores := spec.desc().Cores; cores != 24 {
			t.Errorf("%s: %d cores, want 24 (Tab. II)", name, cores)
		}
	}
	if _, err := LoadMachineSpec("not-a-preset"); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown preset: error = %v, want ErrBadConfig", err)
	}

	// A bad file fails with the offending field, wrapping ErrBadConfig.
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"cores": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMachineSpec(path); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad file: error = %v, want ErrBadConfig", err)
	}
}

func TestMachineSpecJSONRoundTrip(t *testing.T) {
	spec := DefaultMachineSpec()
	data, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadMachineSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("spec JSON round trip not byte-identical")
	}
	if back.Name() != "tab2" {
		t.Errorf("Name() = %q, want tab2", back.Name())
	}
}

// TestWithMachineSpecDefaultIdentical pins that building a System on
// the default spec behaves exactly like the literal default machine.
func TestWithMachineSpecDefaultIdentical(t *testing.T) {
	keys := [][]byte{[]byte("aaaaaaaa"), []byte("bbbbbbbb"), []byte("cccccccc")}
	vals := []uint64{1, 2, 3}
	run := func(opts ...Option) (Result, error) {
		sys := NewSystem(CoreIntegrated, opts...)
		tab, err := sys.Build(KindCuckoo, keys, vals)
		if err != nil {
			return Result{}, err
		}
		return sys.Query(tab, keys[1])
	}
	plain, err := run()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := run(WithMachineSpec(DefaultMachineSpec()))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Latency != spec.Latency || plain.Value != spec.Value || plain.Found != spec.Found {
		t.Errorf("default spec drifts from the literal default: %+v vs %+v", plain, spec)
	}
	// The zero value behaves like the default spec too.
	zero, err := run(WithMachineSpec(MachineSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	if zero.Latency != plain.Latency {
		t.Errorf("zero-value spec latency %d != default %d", zero.Latency, plain.Latency)
	}
}

// TestWithMachineSpecCustomChip runs a query on a smaller swept chip.
func TestWithMachineSpecCustomChip(t *testing.T) {
	d := DefaultMachineSpec().desc()
	d.Cores = 8
	d.Mesh.Cols, d.Mesh.Rows = 4, 4
	d.MemStops = []int{0, 15}
	spec := MachineSpec{d: d}

	sys := NewSystem(CHATLB, WithMachineSpec(spec))
	keys := [][]byte{[]byte("aaaaaaaa"), []byte("bbbbbbbb")}
	tab, err := sys.Build(KindSkipList, keys, []uint64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(tab, keys[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Value != 10 {
		t.Errorf("query on 8-core chip: %+v", res)
	}
}

func TestServingOnMachineSpec(t *testing.T) {
	cfg := DefaultServingConfig()
	cfg.Backend = "qei"
	cfg.Requests = 40
	cfg.Tenants = 2
	spec := DefaultMachineSpec()
	cfg.Machine = &spec
	rep, err := RunServing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 40 {
		t.Errorf("served %d requests, want 40", rep.Requests)
	}
}
