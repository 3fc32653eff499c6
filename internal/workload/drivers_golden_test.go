package workload

import (
	"encoding/json"
	"os"
	"testing"

	"qei/internal/scheme"
)

const driversGoldenPath = "testdata/drivers_golden.json"

// TestDriversGolden pins every driver in this package — software,
// blocking QUERY_B, QUERY_NB and multi-core — to the simulated outputs
// recorded in testdata/drivers_golden.json: the full Run (Metrics
// cleared, since the registry is only attached on request) and the
// MultiCoreResult. It covers cold and warmed
// windows, every Mode, the batch override and the NoC window, which the
// root package's bench golden (warmed Full runs only) does not. If it
// fails after an intentional model change, regenerate the file with:
//
//	QEI_UPDATE_GOLDEN=1 go test -run '^TestDriversGolden$' ./internal/workload
func TestDriversGolden(t *testing.T) {
	got := map[string]any{}
	record := func(name string, v any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r, ok := v.(Run); ok {
			r.Metrics = nil
			v = r
		}
		got[name] = v
	}

	modes := []struct {
		name string
		mode Mode
	}{{"full", Full}, {"roi", ROIOnly}, {"nonroi", NonROIOnly}}
	for _, m := range modes {
		r, err := RunBaseline(SmallDPDK(), m.mode, WithWarmup())
		record("baseline/dpdk/"+m.name+"/warm", r, err)
		r, err = RunQEI(SmallDPDK(), scheme.CHATLB, m.mode, WithWarmup())
		record("qei/dpdk/cha-tlb/"+m.name+"/warm", r, err)
	}
	r, err := RunBaseline(SmallDPDK(), ROIOnly)
	record("baseline/dpdk/roi/cold", r, err)
	r, err = RunQEI(SmallDPDK(), scheme.CHATLB, ROIOnly)
	record("qei/dpdk/cha-tlb/roi/cold", r, err)
	r, err = RunQEI(SmallDPDK(), scheme.DeviceIndirect, Full, WithWarmup(), WithBatch(4))
	record("qei/dpdk/device-indirect/full/warm/batch4", r, err)
	for _, k := range []scheme.Kind{scheme.CoreIntegrated, scheme.DeviceIndirect} {
		r, err := RunQEI(SmallFLANN(), k, ROIOnly, WithNoCWindow())
		record("qei/flann/"+k.Name()+"/roi/nocwindow", r, err)
	}

	for _, k := range scheme.Kinds() {
		r, err := RunQEINonBlocking(SmallTupleSpace(5), scheme.ForKind(k), WithWarmup())
		record("nb/tuple5/"+k.Name()+"/warm", r, err)
	}
	r, err = RunQEINonBlocking(SmallTupleSpace(5), scheme.ForKind(scheme.CoreIntegrated))
	record("nb/tuple5/core/cold", r, err)

	for _, k := range []scheme.Kind{scheme.CoreIntegrated, scheme.DeviceIndirect} {
		mc, err := RunMultiCore(SmallDPDK(), k, 4)
		record("multicore/dpdk/"+k.Name()+"/4", mc, err)
	}

	gotJSON, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')
	if os.Getenv("QEI_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(driversGoldenPath, gotJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantJSON, err := os.ReadFile(driversGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	var want, have map[string]json.RawMessage
	if err := json.Unmarshal(wantJSON, &want); err != nil {
		t.Fatalf("golden file: %v", err)
	}
	if err := json.Unmarshal(gotJSON, &have); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		h, ok := have[name]
		if !ok {
			t.Errorf("%s: in golden, not run", name)
			continue
		}
		if string(h) != string(w) {
			t.Errorf("%s diverges from golden:\n got: %s\nwant: %s", name, h, w)
		}
	}
	for name := range have {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: run, not in golden", name)
		}
	}
}
