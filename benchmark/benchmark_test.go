package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"qei"
	"qei/internal/serve"
	"qei/internal/workload"
)

// tiny returns the named workload shrunk to test size: the same kinds,
// rates, SLOs and fault schedules over short streams and small tables.
func tiny(t *testing.T, name string, seed int64) spec {
	t.Helper()
	s, err := lookup(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	if s.paper != nil {
		off := seed
		s.paper = []workload.Benchmark{
			workload.DPDK{Keys: 256, Queries: 20, Seed: 101 + off},
			workload.JVM{Objects: 400, Queries: 20, Seed: 202 + off},
			workload.RocksDB{Items: 200, Queries: 10, Seed: 303 + off},
			workload.Snort{Keywords: 200, PayloadLen: 64, Queries: 2, Seed: 404 + off},
			workload.FLANN{Items: 240, Tables: 12, Queries: 4, Seed: 505 + off},
		}
		return s
	}
	s.serving.Requests = 2000
	s.serving.KeysPerTenant /= 16
	s.probeRequests = 400
	return s
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogMatchesBenchmarkJSON pins BENCHMARK.json to the metrics and
// workloads this program has: every declared name, unit and direction,
// in order, and nothing more.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, err := lookup(w.Name, 1); err != nil {
			t.Errorf("declared workload: %v", err)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	var e2e []metricDef
	maxBound := 0.0
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name != "setup_s" && m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound < maxBound {
			t.Errorf("setup_s bound %v is below another metric's (%v)", m.Bound, maxBound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v,\nprogram prints %v", e2e, endToEnd)
	}
	var layer []metricDef
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer %v,\nprogram prints %v", layer, perLayer)
	}
}

// printed parses a result's JSON line into metric name -> unit.
func printed(t *testing.T, r *result, defs []metricDef) map[string]string {
	t.Helper()
	var line struct {
		Correct   bool
		Attempted uint64
		Failed    uint64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(r.json(defs)), &line); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for n, m := range line.Metrics {
		units[n] = m.Unit
	}
	return units
}

// checkPrinted asserts a run printed exactly the declared metrics with
// their units and computed no undeclared one.
func checkPrinted(t *testing.T, r *result, defs []metricDef) {
	t.Helper()
	units := printed(t, r, defs)
	if len(units) != len(defs) {
		t.Errorf("printed %d metrics, declared %d", len(units), len(defs))
	}
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.name] = true
		if units[d.name] != d.unit {
			t.Errorf("%s printed with unit %q, declared %q", d.name, units[d.name], d.unit)
		}
	}
	var extra []string
	for n := range r.values {
		if !declared[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("undeclared metrics computed: %v", extra)
	}
}

// TestWorkloadsPassChecks runs every workload at test size, untraced and
// traced, and requires every check to pass, no operation to fail, every
// declared metric to be printed, and every end-to-end metric non-zero.
func TestWorkloadsPassChecks(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			s := tiny(t, name, 1)
			r, err := runUntraced(s, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct || r.failed != 0 || r.attempted == 0 {
				t.Fatalf("untraced: correct=%t attempted=%d failed=%d\n%s", r.correct, r.attempted, r.failed, strings.Join(r.notes, "\n"))
			}
			checkPrinted(t, r, endToEnd)
			for _, d := range endToEnd {
				if r.values[d.name] <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, r.values[d.name])
				}
			}
			file := filepath.Join(t.TempDir(), "trace.json")
			tr, err := runTraced(s, 0, file)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.correct || tr.failed != 0 {
				t.Fatalf("traced: correct=%t failed=%d\n%s", tr.correct, tr.failed, strings.Join(tr.notes, "\n"))
			}
			checkPrinted(t, tr, perLayer)
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("trace is not JSON: %v", err)
			}
			if len(doc.TraceEvents) == 0 {
				t.Fatal("trace has no spans")
			}
		})
	}
}

// simulatedOnly keeps a result's simulated end-to-end metrics.
func simulatedOnly(r *result) map[string]float64 {
	out := map[string]float64{}
	for n, v := range r.values {
		if strings.HasPrefix(n, "sim_") && n != "sim_qps" {
			out[n] = v
		}
	}
	return out
}

// TestFixedSeedRepeats pins that a seed fixes every simulated metric.
func TestFixedSeedRepeats(t *testing.T) {
	for _, name := range []string{"paper_matrix", "serve_rw"} {
		a, err := runUntraced(tiny(t, name, 3), 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runUntraced(tiny(t, name, 3), 0)
		if err != nil {
			t.Fatal(err)
		}
		if sa, sb := simulatedOnly(a), simulatedOnly(b); !reflect.DeepEqual(sa, sb) {
			t.Errorf("%s: seed 3 gave %v, then %v", name, sa, sb)
		}
	}
}

// TestSeedChangesInputs pins that the seed drives every generator.
func TestSeedChangesInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, b := tiny(t, name, 1), tiny(t, name, 2)
		if a.paper != nil {
			pa, err := runPaperPass(a.paper, false)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := runPaperPass(b.paper, false)
			if err != nil {
				t.Fatal(err)
			}
			if sameCells(pa, pb) {
				t.Errorf("%s: seeds 1 and 2 simulated the same matrix", name)
			}
			continue
		}
		ra, err := serve.Generate(a.serving.GenConfig())
		if err != nil {
			t.Fatal(err)
		}
		rb, err := serve.Generate(b.serving.GenConfig())
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(ra, rb) {
			t.Errorf("%s: seeds 1 and 2 generated the same stream", name)
		}
		if a.serving.Faults != nil && a.serving.Faults.Seed() == b.serving.Faults.Seed() {
			t.Errorf("%s: seeds 1 and 2 share the fault schedule's seed", name)
		}
	}
}

// plainBackend has no optional interface.
type plainBackend struct{ serve.Backend }

// TestDecoratorKeepsOptionalInterfaces pins that the decorator exposes
// exactly the optional interfaces of the backend it wraps, so serve.Run
// takes the same batch and write paths through it.
func TestDecoratorKeepsOptionalInterfaces(t *testing.T) {
	sys := qei.NewSystem(qei.CoreIntegrated)
	accel, err := qei.NewServingBackend("qei", sys)
	if err != nil {
		t.Fatal(err)
	}
	walker, err := qei.NewServingBackend("baseline", sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []serve.Backend{accel, walker, plainBackend{accel}} {
		d := decorate(b, newRecorder(true), callQuery)
		_, wantBatch := b.(serve.BatchBackend)
		_, wantMut := b.(serve.Mutator)
		if _, ok := d.(serve.BatchBackend); ok != wantBatch {
			t.Errorf("%T: BatchBackend %t, wrapped %t", b, ok, wantBatch)
		}
		if _, ok := d.(serve.Mutator); ok != wantMut {
			t.Errorf("%T: Mutator %t, wrapped %t", b, ok, wantMut)
		}
	}
}
