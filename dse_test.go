package qei

import (
	"errors"
	"testing"
)

func TestRunDSETinySweep(t *testing.T) {
	res, err := RunDSE(DSEConfig{
		Axes: "qst=8,32;cores=24",
	})
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

func TestRunDSEBadInputs(t *testing.T) {
	if _, err := RunDSE(DSEConfig{Axes: "bogus=1"}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad axes: error = %v, want ErrBadConfig", err)
	}
	if _, err := RunDSE(DSEConfig{Base: "not-a-preset"}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad base: error = %v, want ErrBadConfig", err)
	}
	if _, err := RunDSE(DSEConfig{Workload: "quake", Axes: "qst=8"}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad workload: error = %v, want ErrBadConfig", err)
	}
}
