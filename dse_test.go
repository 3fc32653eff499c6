package qei

import (
	"testing"

	"qei/internal/dse"
	"qei/internal/hwdesc"
	"qei/internal/workload"
)

// TestRunDSETinySweep runs a two-point sweep the way qeidse does: the
// workload resolved through the catalogue, the axes parsed from their
// compact spec, the Tab. II default as the base machine.
func TestRunDSETinySweep(t *testing.T) {
	bench, err := workload.Lookup("dpdk", false)
	if err != nil {
		t.Fatal(err)
	}
	axes, err := dse.ParseAxes("qst=8,32;cores=24")
	if err != nil {
		t.Fatal(err)
	}
	res, err := dse.Sweep(dse.Config{Bench: bench, Base: hwdesc.Default(), Axes: axes})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty Pareto frontier")
	}
	for _, p := range res.Points {
		if p.SpeedupX <= 1 {
			t.Errorf("%s: speedup %.2f, want > 1", p.Desc.Name, p.SpeedupX)
		}
	}
}
