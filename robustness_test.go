package qei

// Robustness tests for the fault-injection harness and the recovery
// machinery behind it: the zero-cycle-impact guarantee when injection
// is disabled, the chaos soak over every structure kind, and the public
// cycle-budget watchdog. Routing a faulted query to software is the
// serving layer's job (serving_resilience_test.go).

import (
	"errors"
	"fmt"
	"testing"
)

// TestFaultInjectionZeroCycleImpact is the CI-enforced guard for the
// robustness layer: a system carrying the full fault-injection +
// watchdog apparatus with every rate at zero must produce
// the exact same simulated timeline as a plain system. Recovery
// machinery observes the query; it must never tax it.
func TestFaultInjectionZeroCycleImpact(t *testing.T) {
	keys, vals := testKeys(300, 16, 11)
	zero := MustParseFaultSpec("9:flip=0,nocdelay=0,nocdrop=0,shootdown=0,spurious=0,evict=0")
	for _, r := range zero.sched.Rate {
		if r != 0 {
			t.Fatalf("all-zero spec parsed to rates %v", zero.sched.Rate)
		}
	}
	for _, sch := range Schemes() {
		sch := sch
		t.Run(sch.String(), func(t *testing.T) {
			plain := NewSystem(sch)
			armed := NewSystem(sch,
				WithFaultInjection(zero),
				WithQueryCycleBudget(1<<60))
			pl, pn := queryAll(t, plain, keys, vals)
			al, an := queryAll(t, armed, keys, vals)
			if pn != an {
				t.Fatalf("disabled fault injection changed the clock: %d vs %d cycles", pn, an)
			}
			for i := range pl {
				if pl[i] != al[i] {
					t.Fatalf("query %d latency changed: %d vs %d", i, pl[i], al[i])
				}
			}
			if armed.FaultsInjected() != 0 {
				t.Fatalf("zero-rate system injected %d faults", armed.FaultsInjected())
			}
		})
	}
}

// chaosOutcome classifies a blocking query's architectural ending.
type chaosOutcome struct{ ok, fault int }

func (c chaosOutcome) total() int { return c.ok + c.fault }

// chaosRun drives a randomized fault schedule across all five built-in
// structure kinds and returns the outcome tally plus a byte-exact
// rendering of the metrics snapshot for replay comparison.
func chaosRun(t *testing.T, spec string) (chaosOutcome, string) {
	t.Helper()
	sys := NewSystem(CoreIntegrated,
		WithMetrics(),
		WithFaultInjection(MustParseFaultSpec(spec)),
		WithQueryCycleBudget(2_000_000))

	keys, vals := testKeys(48, 16, 31)
	absent, _ := testKeys(8, 16, 32)

	var out chaosOutcome
	classify := func(res Result, err error) {
		if err != nil {
			t.Fatalf("blocking query escaped the architectural interface: %v", err)
		}
		if res.Err != nil {
			out.fault++
		} else {
			out.ok++
		}
	}

	for _, kind := range []StructKind{KindLinkedList, KindCuckoo, KindSkipList, KindBST} {
		table, err := sys.Build(kind, keys, vals)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			classify(sys.Query(table, k))
		}
		for _, k := range absent {
			classify(sys.Query(table, k))
		}
	}

	// Fifth kind: the Aho-Corasick trie, driven through Scan.
	kws := [][]byte{[]byte("fault"), []byte("inject"), []byte("chaos"), []byte("soak")}
	trie, err := sys.Build(KindTrie, kws, []uint64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]byte{
		[]byte("a chaos soak injects faults into every layer"),
		[]byte("no keyword here at all"),
		[]byte("faultfaultfault"),
	}
	for _, in := range inputs {
		classify(sys.Scan(trie, in))
	}

	return out, fmt.Sprintf("%+v", sys.Metrics())
}

// TestChaosSoak throws randomized-but-replayable fault schedules at all
// five structure kinds and asserts the architectural contract: no panic
// escapes System, every blocking query ends in exactly one of
// {accelerator result, architectural fault}, and an identical seed
// replays to a byte-identical metrics snapshot.
func TestChaosSoak(t *testing.T) {
	specs := []string{
		"101:flip=0.02,nocdelay=0.05,nocdrop=0.02,shootdown=0.05,spurious=0.02,evict=0.05",
		"202:flip=0.1,spurious=0.05",
		"303:nocdrop=0.2,shootdown=0.2,evict=0.2",
		"404:flip=0.3,nocdelay=0.3,nocdrop=0.3,shootdown=0.3,spurious=0.3,evict=0.3",
		"7:flip=0.05,nocdelay=0.1,nocdrop=0.05,shootdown=0.1,spurious=0.05,evict=0.1",
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			out, snap := chaosRun(t, spec)
			if out.total() == 0 {
				t.Fatal("soak ran no queries")
			}
			out2, snap2 := chaosRun(t, spec)
			if out != out2 {
				t.Fatalf("same seed, different outcomes: %+v vs %+v", out, out2)
			}
			if snap != snap2 {
				t.Fatalf("same seed, different metrics snapshots:\n%s\nvs\n%s", snap, snap2)
			}
			t.Logf("outcomes: %+v", out)
		})
	}
}

// TestPublicWatchdogTimeout exercises WithQueryCycleBudget through the
// public API: a miss that walks a long linked list end to end blows the
// budget and surfaces ErrQueryTimeout; a front-of-list hit fits.
func TestPublicWatchdogTimeout(t *testing.T) {
	sys := NewSystem(CoreIntegrated, WithQueryCycleBudget(3000))
	keys, vals := testKeys(400, 16, 51)
	table, err := sys.Build(KindLinkedList, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(table, keys[0])
	if err != nil || res.Err != nil {
		t.Fatalf("front-of-list hit failed under budget: %v / %v", err, res.Err)
	}
	absent := make([]byte, 16)
	res, err = sys.Query(table, absent)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, ErrQueryTimeout) {
		t.Fatalf("full-list miss returned %v, want ErrQueryTimeout", res.Err)
	}
	if st := sys.Stats(); st.Timeouts != 1 {
		t.Fatalf("Stats().Timeouts = %d, want 1", st.Timeouts)
	}
}

// FuzzParseFaultSpec feeds arbitrary text to ParseFaultSpec. It must
// never panic, and an accepted spec's String must parse back to an
// equal schedule: every accepted rate is a probability String can
// print. The seed corpus (testdata/fuzz/FuzzParseFaultSpec) holds
// documented specs, hex seeds, mixed-case kinds and a NaN rate.
func FuzzParseFaultSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		fs, err := ParseFaultSpec(spec)
		if err != nil {
			return
		}
		back, err := ParseFaultSpec(fs.String())
		if err != nil {
			t.Fatalf("String() %q of accepted spec %q does not parse: %v", fs, spec, err)
		}
		if back != fs {
			t.Fatalf("spec %q round-tripped through %q to seed %d rates %v, want seed %d rates %v",
				spec, fs, back.Seed(), back.sched.Rate, fs.Seed(), fs.sched.Rate)
		}
	})
}
