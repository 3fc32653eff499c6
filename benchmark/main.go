// Command benchmark is the repository benchmark. It runs one workload
// in its own process, measures it for a fixed host-time budget, checks
// every answer against a host-side oracle, and prints its metrics; the
// last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":800000,"failed":0,"metrics":{"sim_qps":{"value":71234.5,"unit":"1/s"},...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash benchmark/run.sh --workload serve_read --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it runs traced and untraced passes alternately, prints
// the per-layer metrics instead of the end-to-end ones, and writes the
// traced pass's spans as a Chrome trace. It exits non-zero when any
// check fails. README.md describes the workloads and every metric.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed of every input generator")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	traceFile := flag.String("trace-file", "", "Chrome trace output of a traced run (default .bench_build/traces/<workload>-<seed>.json)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	s, err := lookup(*name, *seed)
	if err != nil {
		fail(err)
	}
	if *traceFile == "" {
		*traceFile = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.json", *name, *seed))
	}
	// One thread for the simulator and its collector alike: with a second
	// CPU the collector's pacing depends on how fast that CPU happens to
	// run, and the peak RSS then varies by a quarter from run to run.
	runtime.GOMAXPROCS(1)
	budget := time.Duration(*seconds * float64(time.Second))
	var r *result
	if *trace == 1 {
		r, err = runTraced(s, budget, *traceFile)
	} else {
		r, err = runUntraced(s, budget)
	}
	if err != nil {
		fail(err)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	fmt.Println(r.json(defs))
	if !r.correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// result is one run's verdict and metrics.
type result struct {
	correct           bool
	attempted, failed uint64
	values            map[string]float64
	notes             []string
}

func newResult() *result {
	return &result{correct: true, values: map[string]float64{}}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// violation marks the run incorrect and says why.
func (r *result) violation(format string, args ...any) {
	r.correct = false
	r.notef("CHECK FAILED: "+format, args...)
}

// json renders the result line: the verdict and the listed metrics in
// catalog order, each value with all its digits.
func (r *result) json(defs []metricDef) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct":%t,"attempted":%d,"failed":%d,"metrics":{`, r.correct, r.attempted, r.failed)
	for i, d := range defs {
		if i > 0 {
			b.WriteByte(',')
		}
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(&b, `%q:{"value":%s,"unit":%q}`, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
	}
	b.WriteString("}}")
	return b.String()
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func runUntraced(s spec, budget time.Duration) (*result, error) {
	if s.paper != nil {
		return paperUntraced(s, budget)
	}
	return serveUntraced(s, budget)
}

func runTraced(s spec, budget time.Duration, traceFile string) (*result, error) {
	if s.paper != nil {
		return paperTraced(s, budget, traceFile)
	}
	return serveTraced(s, budget, traceFile)
}

// writeTrace saves a traced pass's spans.
func writeTrace(rec *recorder, file string) error {
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	if err := rec.writeChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
