package qei

import (
	"strings"
	"testing"

	"qei/internal/dstruct"
	"qei/internal/isa"
	"qei/internal/scheme"
	"qei/internal/trace"
)

// qstSpans returns the query spans (category "qst") a tracer recorded.
func qstSpans(tr *trace.Tracer) []trace.Event {
	var out []trace.Event
	for _, e := range tr.Events() {
		if e.Cat == "qst" {
			out = append(out, e)
		}
	}
	return out
}

func TestTracingSpansAndExport(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	tr := trace.New(0)
	a.SetTracer(tr)
	keys, vals := genKeys(50, 16, 60)
	ck := dstruct.BuildCuckoo(m.AS, 64, 4, 5, keys, vals)
	for i := 0; i < 20; i++ {
		qd := &isa.QueryDesc{HeaderAddr: ck.HeaderAddr, KeyAddr: stage(m, keys[i]), Tag: uint64(i)}
		if _, err := a.IssueBlocking(qd, 0); err != nil {
			t.Fatal(err)
		}
	}
	spans := qstSpans(tr)
	if len(spans) != 20 {
		t.Fatalf("spans = %d, want 20", len(spans))
	}
	for i, s := range spans {
		if s.Phase != trace.Complete {
			t.Fatalf("span %d has phase %c, want a complete span", i, s.Phase)
		}
		if s.Name != "query" {
			t.Fatalf("span %d named %q — unexpectedly faulted?", i, s.Name)
		}
		if s.Tid < 0 || s.Tid >= 10 {
			t.Fatalf("span %d in slot %d — QST has 10", i, s.Tid)
		}
	}
	// Overlap: with all 20 issued at cycle 0, at least two spans overlap.
	overlap := false
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].TS < spans[j].TS+spans[j].Dur && spans[j].TS < spans[i].TS+spans[i].Dur {
				overlap = true
			}
		}
	}
	if !overlap {
		t.Fatal("no overlapping spans — QST parallelism invisible")
	}
}

func TestTracingFaultMarked(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	tr := trace.New(0)
	a.SetTracer(tr)
	key := stage(m, make([]byte, 8))
	if _, err := a.IssueBlocking(&isa.QueryDesc{HeaderAddr: 0xbad0000, KeyAddr: key, Tag: 9}, 0); err != nil {
		t.Fatal(err)
	}
	spans := qstSpans(tr)
	if len(spans) != 1 || !strings.HasSuffix(spans[0].Name, "!EXCEPTION") {
		t.Fatalf("faulting span not marked: %+v", spans)
	}
	if !strings.Contains(tr.Export(), "EXCEPTION") {
		t.Fatal("fault not visible in export")
	}
}

// TestTracingOffByDefault checks that queries emit spans only while a
// tracer is attached: none before SetTracer, none after SetTracer(nil).
func TestTracingOffByDefault(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	keys, vals := genKeys(5, 16, 61)
	ck := dstruct.BuildCuckoo(m.AS, 16, 4, 5, keys, vals)
	tr := trace.New(0)
	for i, attach := range []*trace.Tracer{nil, tr, nil} {
		a.SetTracer(attach)
		qd := &isa.QueryDesc{HeaderAddr: ck.HeaderAddr, KeyAddr: stage(m, keys[i]), Tag: uint64(i)}
		if _, err := a.IssueBlocking(qd, 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(qstSpans(tr)); n != 1 {
		t.Fatalf("recorded %d query spans, want only the traced query's", n)
	}
}
