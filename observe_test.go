package qei

import (
	"encoding/json"
	"strings"
	"testing"
)

// queryAll runs the same deterministic query sequence on sys and
// returns the per-query latencies plus the final clock.
func queryAll(t *testing.T, sys *System, keys [][]byte, vals []uint64) ([]uint64, uint64) {
	t.Helper()
	table := mustBuild(t, sys, KindCuckoo, keys, vals)
	lats := make([]uint64, 0, len(keys))
	for i, k := range keys {
		res, err := sys.Query(table, k)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != vals[i] {
			t.Fatalf("key %d: %+v want %d", i, res, vals[i])
		}
		lats = append(lats, res.Latency)
	}
	return lats, sys.Now()
}

// TestObservabilityZeroCycleImpact is the CI-enforced zero-overhead
// guard: attaching the metrics registry and the tracer must not change
// a single simulated cycle. Instrumentation observes the timeline; it
// must never participate in it.
func TestObservabilityZeroCycleImpact(t *testing.T) {
	keys, vals := testKeys(300, 16, 11)
	for _, sch := range Schemes() {
		sch := sch
		t.Run(sch.String(), func(t *testing.T) {
			plain := NewSystem(sch)
			observed := NewSystem(sch, WithMetrics(), WithTimeline())
			pl, pn := queryAll(t, plain, keys, vals)
			ol, on := queryAll(t, observed, keys, vals)
			if pn != on {
				t.Fatalf("observability changed the clock: %d vs %d cycles", pn, on)
			}
			for i := range pl {
				if pl[i] != ol[i] {
					t.Fatalf("query %d latency changed: %d vs %d", i, pl[i], ol[i])
				}
			}
		})
	}
}

func TestSystemMetricsReadout(t *testing.T) {
	sys := NewSystem(CoreIntegrated, WithMetrics())
	keys, vals := testKeys(200, 16, 12)
	queryAll(t, sys, keys, vals)

	ms := sys.Metrics()
	if len(ms) == 0 {
		t.Fatal("no metrics from a WithMetrics system")
	}
	byName := map[string]uint64{}
	for i, m := range ms {
		byName[m.Name] = m.Value
		if i > 0 && ms[i-1].Name >= m.Name {
			t.Fatalf("metrics unsorted: %q before %q", ms[i-1].Name, m.Name)
		}
	}
	if byName["qei/queries"] != 200 {
		t.Fatalf("qei/queries = %d, want 200", byName["qei/queries"])
	}
	// The accelerator touched memory through the hierarchy and the page
	// tables through a TLB; those component counters must be live too.
	for _, want := range []string{"qei/cee/transitions", "qei/mem/lines", "dram/accesses"} {
		if byName[want] == 0 {
			t.Fatalf("%s = 0 after 200 queries", want)
		}
	}
	// Systems without the option pay nothing and read nothing.
	if NewSystem(CoreIntegrated).Metrics() != nil {
		t.Fatal("Metrics() non-nil without WithMetrics")
	}
}

// TestRemoteOpsSumToRemoteCompares checks a counter law: every remote
// compare is counted once in the aggregate qei/cmp/remote and once on
// the LLC slice that served it, so the per-slice cha<i>/cmp/remote_ops
// sum to the aggregate. 100 B skip-list keys do not fit in a fetched
// node line, so CHA-TLB compares them remotely.
func TestRemoteOpsSumToRemoteCompares(t *testing.T) {
	sys := NewSystem(CHATLB, WithMetrics())
	keys, vals := testKeys(120, 100, 14)
	table := mustBuild(t, sys, KindSkipList, keys, vals)
	for i, k := range keys {
		res, err := sys.Query(table, k)
		if err != nil || !res.Found || res.Value != vals[i] {
			t.Fatalf("key %d: %+v, %v; want %d", i, res, err, vals[i])
		}
	}
	var remote, perSlice, slices uint64
	for _, m := range sys.Metrics() {
		switch {
		case m.Name == "qei/cmp/remote":
			remote = m.Value
		case strings.HasPrefix(m.Name, "cha") && strings.HasSuffix(m.Name, "/cmp/remote_ops"):
			perSlice += m.Value
			slices++
		}
	}
	if slices == 0 {
		t.Fatal("no cha<i>/cmp/remote_ops metrics published")
	}
	if remote == 0 || perSlice != remote {
		t.Fatalf("sum of %d cha<i>/cmp/remote_ops = %d, qei/cmp/remote = %d; want equal and > 0", slices, perSlice, remote)
	}
}

func TestSystemUnifiedTraceExport(t *testing.T) {
	sys := NewSystem(CoreIntegrated, WithTimeline())
	keys, vals := testKeys(100, 16, 13)
	queryAll(t, sys, keys, vals)

	doc := sys.ExportTrace()
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(doc), &parsed); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("empty unified trace")
	}
	cats := map[string]bool{}
	for _, e := range parsed.TraceEvents {
		cats[e.Cat] = true
		if e.Ph != "X" && e.Ph != "i" {
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	// One timeline, many components: queries, cache accesses, and page
	// walks must all be present for a cuckoo workload.
	for _, want := range []string{"qst", "cache", "tlb"} {
		if !cats[want] {
			t.Fatalf("category %q missing from unified trace (have %v)", want, cats)
		}
	}
}
