package trace

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"qei/internal/golden"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	// None of these may panic.
	tr.Emit(Event{Name: "x"})
	tr.Span("cpu", "query", 0, 10, 0, 0, nil)
	tr.Point("mem", "page_map", 5, 0, 0, nil)
	if tr.Events() != nil || tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer recorded events")
	}
}

func TestSpanAndPoint(t *testing.T) {
	tr := New(8)
	tr.Span("qst", "query", 100, 150, 1, 2, map[string]string{"slot": "2"})
	tr.Point("tlb", "page_walk", 120, 1, 0, nil)
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("len(events) = %d, want 2", len(evs))
	}
	if evs[0].Phase != Complete || evs[0].Dur != 50 {
		t.Fatalf("span event = %+v", evs[0])
	}
	if evs[1].Phase != Instant || evs[1].TS != 120 {
		t.Fatalf("point event = %+v", evs[1])
	}
	// End before start clamps to zero duration rather than underflowing.
	tr.Span("qst", "clamped", 10, 5, 0, 0, nil)
	evs = tr.Events()
	if evs[2].Dur != 0 {
		t.Fatalf("clamped dur = %d, want 0", evs[2].Dur)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Point("cpu", "e", uint64(i), 0, 0, nil)
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	for i, e := range evs {
		want := uint64(6 + i)
		if e.TS != want {
			t.Fatalf("event[%d].TS = %d, want %d (oldest-first after wrap)", i, e.TS, want)
		}
	}
}

func TestExportValidJSONSchema(t *testing.T) {
	tr := New(0)
	tr.Span("qst", "query", 10, 60, 0, 3, map[string]string{"instance": "0"})
	tr.Span("cha", "remote_cmp", 20, 35, 102, 0, nil)
	tr.Point("tlb", "page_walk", 15, 0, 0, map[string]string{"addr": "0x1000"})
	out := tr.Export()

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, out)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("exported %d events, want 3", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		for _, key := range []string{"name", "cat", "ph", "ts", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event missing %q: %v", key, e)
			}
		}
		switch e["ph"] {
		case "X":
			if _, ok := e["dur"]; !ok {
				t.Fatalf("complete event missing dur: %v", e)
			}
		case "i":
			if e["s"] != "t" {
				t.Fatalf("instant event missing scope: %v", e)
			}
		default:
			t.Fatalf("unexpected phase %v", e["ph"])
		}
	}
}

func TestExportSortedByTimestamp(t *testing.T) {
	tr := New(0)
	tr.Point("cpu", "late", 300, 0, 0, nil)
	tr.Point("cpu", "early", 100, 0, 0, nil)
	tr.Point("cpu", "mid", 200, 0, 0, nil)
	out := tr.Export()
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	prev := float64(-1)
	for _, e := range doc.TraceEvents {
		if e.TS < prev {
			t.Fatalf("events not sorted by ts: %v", doc.TraceEvents)
		}
		prev = e.TS
	}
}

// TestExportGolden pins the exact export bytes: field order, arg-key
// order, and event sort must never drift, or previously saved traces
// would stop diffing cleanly. After an intentional format change,
// regenerate the file as package golden describes.
func TestExportGolden(t *testing.T) {
	tr := New(0)
	tr.Span("qst", "query", 10, 60, 0, 3, map[string]string{"instance": "0", "slot": "3"})
	tr.Point("tlb", "page_walk", 15, 0, 1, map[string]string{"addr": "0x7f001000"})
	tr.Span("cha", "remote_cmp", 20, 35, 102, 0, map[string]string{"slice": "2"})
	tr.Span("noc", "xfer", 22, 26, 200, 0, nil)
	tr.Point("mem", "page_map", 40, 300, 0, nil)
	golden.Check(t, filepath.Join("testdata", "export_golden.json"), tr.Export())
}
