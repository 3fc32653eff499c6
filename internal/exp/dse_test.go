package exp

import "testing"

func TestDSEFrontierExperiment(t *testing.T) {
	tab, err := dseFrontier(Small, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 8 design points plus the totals row.
	if len(tab.Rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(tab.Rows))
	}
	frontier := 0
	for _, r := range tab.Rows[:8] {
		if len(r) != len(tab.Headers) {
			t.Fatalf("row width %d != header width %d", len(r), len(tab.Headers))
		}
		if r[len(r)-1] == "frontier" {
			frontier++
		}
	}
	if frontier == 0 {
		t.Error("no frontier points in the experiment table")
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
