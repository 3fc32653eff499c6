package exp

import "testing"

// TestExperimentParallelDeterminism is the tentpole guarantee: an
// experiment fanned across workers renders byte-identically to its
// serial run. Each simulates afresh, on its own memo.
func TestExperimentParallelDeterminism(t *testing.T) {
	serial, err := new(memo).fig1QueryTimeShare(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := new(memo).fig1QueryTimeShare(Small, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := serial.String(), parallel.String(); s != p {
		t.Fatalf("parallel output diverges from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
	}
	if s, p := serial.CSV(), parallel.CSV(); s != p {
		t.Fatal("parallel CSV diverges from serial")
	}
}

func TestExperimentsRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if e.Name == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete registry entry %+v", e)
		}
		if seen[e.Name] {
			t.Fatalf("duplicate experiment name %q", e.Name)
		}
		seen[e.Name] = true
	}
	// The static tables run through the same signature.
	for _, name := range []string{"tab1", "tab2", "tab3"} {
		if !seen[name] {
			t.Fatalf("registry missing %s", name)
		}
	}
	tab, err := Experiments()[1].Run(Small, 1) // tab1
	if err != nil || len(tab.Rows) == 0 {
		t.Fatalf("static experiment: %v, %d rows", err, len(tab.Rows))
	}
}

func TestDSERegisteredBeforeBench(t *testing.T) {
	exps := Experiments()
	names := make(map[string]int)
	for i, e := range exps {
		names[e.Name] = i
	}
	di, ok := names["dse"]
	if !ok {
		t.Fatal("dse experiment not registered")
	}
	if bi := names["bench"]; bi != len(exps)-1 || di >= bi {
		t.Errorf("ordering wrong: dse at %d, bench at %d of %d (bench must stay last)",
			di, bi, len(exps))
	}
}
