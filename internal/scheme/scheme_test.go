package scheme

import "testing"

func TestAllKindsHaveParams(t *testing.T) {
	for _, k := range Kinds() {
		p := ForKind(k)
		if p.Kind != k {
			t.Fatalf("%s: Kind mismatch", k)
		}
		if p.QSTEntriesPerInstance <= 0 || p.Instances <= 0 {
			t.Fatalf("%s: bad capacity %+v", k, p)
		}
		if p.ComparatorsPerSite <= 0 {
			t.Fatalf("%s: no comparators", k)
		}
	}
}

func TestPaperCapacities(t *testing.T) {
	// Sec. VI-A: 10 in-flight per accelerator for CHA/core schemes;
	// 10 x 24 for the device schemes.
	for _, k := range []Kind{CoreIntegrated, CHATLB, CHANoTLB} {
		if got := ForKind(k).QSTEntriesPerInstance; got != 10 {
			t.Fatalf("%s QST entries = %d, want 10", k, got)
		}
	}
	for _, k := range []Kind{DeviceDirect, DeviceIndirect} {
		if got := ForKind(k).QSTEntriesPerInstance; got != 240 {
			t.Fatalf("%s QST entries = %d, want 240", k, got)
		}
	}
	if ForKind(CHATLB).Instances != 24 {
		t.Fatal("CHA schemes should have 24 instances")
	}
}

func TestTranslationPaths(t *testing.T) {
	if ForKind(CoreIntegrated).Translation != TransL2TLB {
		t.Fatal("Core-integrated must share the L2-TLB")
	}
	if ForKind(CHATLB).Translation != TransDedicated {
		t.Fatal("CHA-TLB must use a dedicated TLB")
	}
	if ForKind(CHATLB).DedicatedTLB.Entries != 1024 {
		t.Fatalf("CHA-TLB size = %d, want 1024 (same as L2-TLB)", ForKind(CHATLB).DedicatedTLB.Entries)
	}
	if ForKind(CHANoTLB).Translation != TransCoreMMU {
		t.Fatal("CHA-noTLB must round-trip to the core MMU")
	}
}

func TestRemoteCompareOnlyForIntegratedSchemes(t *testing.T) {
	for _, k := range []Kind{CoreIntegrated, CHATLB, CHANoTLB} {
		if !ForKind(k).RemoteCompare {
			t.Fatalf("%s should have CHA comparators", k)
		}
	}
	for _, k := range []Kind{DeviceDirect, DeviceIndirect} {
		if ForKind(k).RemoteCompare {
			t.Fatalf("%s should not have CHA comparators", k)
		}
	}
}

func TestComparatorCountsMatchTableII(t *testing.T) {
	// Tab. II: two comparators per CHA for CHA-based/Core-integrated,
	// ten per DPU for Device-based.
	for _, k := range []Kind{CoreIntegrated, CHATLB, CHANoTLB} {
		if got := ForKind(k).ComparatorsPerSite; got != 2 {
			t.Fatalf("%s comparators = %d, want 2", k, got)
		}
	}
	for _, k := range []Kind{DeviceDirect, DeviceIndirect} {
		if got := ForKind(k).ComparatorsPerSite; got != 10 {
			t.Fatalf("%s comparators = %d, want 10", k, got)
		}
	}
}

func TestLatencyOverheadOrdering(t *testing.T) {
	ci := ForKind(CoreIntegrated)
	cha := ForKind(CHATLB)
	dd := ForKind(DeviceDirect)
	di := ForKind(DeviceIndirect)
	if !(ci.PortOverhead < cha.PortOverhead && cha.PortOverhead < dd.PortOverhead && dd.PortOverhead < di.PortOverhead) {
		t.Fatal("port overheads must grow Core < CHA < Device-direct < Device-indirect")
	}
	if di.ExtraDataLatency == 0 {
		t.Fatal("Device-indirect must pay interface latency per data access")
	}
	if dd.ExtraDataLatency != 0 {
		t.Fatal("Device-direct accesses cache like a core — no extra data latency")
	}
}

// TestSchemeTable checks every row of the scheme table: names round-trip
// through Parse, ForKind returns the row's own kind, and placement
// matches the paper (one centralized device stop for the two device
// schemes, the core's L2 only for Core-integrated).
func TestSchemeTable(t *testing.T) {
	for _, k := range Kinds() {
		if got, err := Parse(k.Name()); err != nil || got != k {
			t.Fatalf("Parse(%q) = %v, %v; want %s", k.Name(), got, err, k)
		}
		p := ForKind(k)
		if p.Kind != k {
			t.Fatalf("ForKind(%s).Kind = %s", k, p.Kind)
		}
		device := k == DeviceDirect || k == DeviceIndirect
		if (p.Placement == PlaceDevice) != device {
			t.Fatalf("%s placement %d: device placement is for the device schemes only", k, p.Placement)
		}
		if (p.Placement == PlaceCore) != (k == CoreIntegrated) {
			t.Fatalf("%s placement %d: core placement is Core-integrated's alone", k, p.Placement)
		}
	}
	if _, err := Parse("nosuch"); err == nil {
		t.Fatal("Parse accepted an unknown name")
	}
}

func TestTableIShape(t *testing.T) {
	rows := TableI()
	if len(rows) != 5 {
		t.Fatalf("Tab. I has %d rows, want 5", len(rows))
	}
	for _, r := range rows {
		if r.Scheme == "" || r.AccelCoreCycles == "" || r.Scalability == "" {
			t.Fatalf("incomplete row %+v", r)
		}
	}
}
