package main

import (
	"testing"

	"qei/internal/hwdesc"
	"qei/internal/scheme"
)

// The Tab. II default description must size every -scheme all row
// exactly as the run without -machine does.
func TestSchemeAllDefaultMachineMatchesNoMachine(t *testing.T) {
	d, err := hwdesc.Load("default")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range scheme.Kinds() {
		if got, want := schemeParams(k, rowDescription(&d, k)), scheme.ForKind(k); got != want {
			t.Errorf("%s: -machine default sized %+v, want %+v", k, got, want)
		}
	}
}

// A resized accelerator block reaches the row of the scheme the
// description names, and only that row.
func TestSchemeAllSizesOnlyTheNamedScheme(t *testing.T) {
	d := hwdesc.Default()
	d.QST = hwdesc.QST{Entries: 2, Comparators: 1}
	for _, k := range scheme.Kinds() {
		got := schemeParams(k, rowDescription(&d, k))
		if k == scheme.CoreIntegrated {
			if got.QSTEntriesPerInstance != 2 || got.ComparatorsPerSite != 1 {
				t.Errorf("core row kept QST %d/%d, want 2/1", got.QSTEntriesPerInstance, got.ComparatorsPerSite)
			}
			continue
		}
		if want := scheme.ForKind(k); got != want {
			t.Errorf("%s: sized %+v, want its defaults %+v", k, got, want)
		}
	}
}
