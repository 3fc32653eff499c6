package workload

import (
	"testing"

	"qei/internal/scheme"
)

// TestNoCWindowEveryDriver checks that WithNoCWindow reports the
// measured window's mesh utilization on the software and QUERY_NB
// drivers too, not only on blocking QUERY_B runs.
func TestNoCWindowEveryDriver(t *testing.T) {
	runs := map[string]func() (Run, error){
		"nb/tuple5/core": func() (Run, error) {
			return RunQEINonBlocking(SmallTupleSpace(5), scheme.ForKind(scheme.CoreIntegrated), WithNoCWindow())
		},
		"baseline/flann/roi": func() (Run, error) {
			return RunBaseline(SmallFLANN(), ROIOnly, WithNoCWindow())
		},
	}
	for name, run := range runs {
		r, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.PeakLinkUtil <= 0 || r.MeanUtil <= 0 {
			t.Errorf("%s: PeakLinkUtil = %g, MeanUtil = %g; want both > 0", name, r.PeakLinkUtil, r.MeanUtil)
		}
	}
}
