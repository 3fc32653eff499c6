// Command qeisim runs one workload under one configuration and prints a
// detailed report: cycles, instruction counts, cache/TLB behaviour,
// accelerator activity, and verification status.
//
// Usage:
//
//	qeisim -workload dpdk|jvm|rocksdb|snort|flann|tuple5|tuple10|tuple15 \
//	       -scheme software|core|cha-tlb|cha-notlb|device-direct|device-indirect|all \
//	       [-mode full|roi|nonroi] [-nb] [-scale small|full] [-warm] [-parallel N] \
//	       [-machine preset|file.json] [-metrics] [-trace out.json]
//
// -scheme all runs the software baseline plus every integration scheme
// and prints a side-by-side comparison, fanning the runs across
// -parallel workers.
//
// -machine sets the machine for every run. Its accelerator block (QST
// entries, comparators, accelerator TLB, device latency) sizes the
// scheme a single run selects with -scheme, blocking or -nb; under
// -scheme all it sizes only the row of the scheme the description
// names, and the other rows keep their Tab. II sizing.
//
// -metrics appends the run's full counter snapshot (component-path
// names, one per line); -trace writes the unified cycle-stamped event
// timeline as Chrome trace-event JSON (open in Perfetto or
// chrome://tracing). Both apply to single-scheme, single-core runs.
//
// -cores N (N > 1) splits the measured query stream across N cores
// under one scheme, ROI-only and without a warm-up pass; -machine,
// -mode, -nb, -warm, -metrics and -trace are rejected there.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"qei/internal/hwdesc"
	"qei/internal/metrics"
	"qei/internal/runner"
	"qei/internal/scheme"
	"qei/internal/trace"
	"qei/internal/workload"
)

func main() {
	wlFlag := flag.String("workload", "dpdk", "workload: "+strings.Join(workload.Names(), ", "))
	schemeFlag := flag.String("scheme", "core", "scheme: software, core, cha-tlb, cha-notlb, device-direct, device-indirect, all")
	modeFlag := flag.String("mode", "full", "mode: full, roi, nonroi")
	nbFlag := flag.Bool("nb", false, "use non-blocking QUERY_NB (batch 32)")
	scaleFlag := flag.String("scale", "small", "scale: small or full")
	warmFlag := flag.Bool("warm", true, "run a warmup pass before measuring")
	coresFlag := flag.Int("cores", 1, "issue the query stream from this many cores (scalability mode)")
	parFlag := flag.Int("parallel", 0, "workers for -scheme all; 0 = GOMAXPROCS")
	metricsFlag := flag.Bool("metrics", false, "print the full metric snapshot after the run")
	traceFlag := flag.String("trace", "", "write the unified event trace to this file (Chrome trace-event JSON)")
	machineFlag := flag.String("machine", "", "machine description: a preset name (default, core, cha-tlb, ...) or a JSON file; empty = the Tab. II default")
	flag.Parse()

	if *scaleFlag != "small" && *scaleFlag != "full" {
		fail("unknown scale %q (want small or full)", *scaleFlag)
	}
	bench, err := workload.Lookup(*wlFlag, *scaleFlag == "full")
	if err != nil {
		fail("%v", err)
	}

	mode := workload.Full
	switch *modeFlag {
	case "full":
	case "roi":
		mode = workload.ROIOnly
	case "nonroi":
		mode = workload.NonROIOnly
	default:
		fail("unknown mode %q", *modeFlag)
	}

	var opts []workload.RunOption
	if *warmFlag {
		opts = append(opts, workload.WithWarmup())
	}

	// -machine swaps the simulated chip; the accelerator's integration
	// scheme stays -scheme. Bad descriptions fail here with the offending
	// field spelled out (hwdesc.ErrBadConfig).
	var desc *hwdesc.Description
	if *machineFlag != "" {
		d, err := hwdesc.Load(*machineFlag)
		if err != nil {
			fail("-machine: %v", err)
		}
		desc = &d
		opts = append(opts, workload.WithMachine(d))
	}

	if *coresFlag > 1 {
		// The multi-core driver plays the measured stream ROI-only with
		// blocking queries on the Tab. II machine, LLC-seeded and never
		// warmed, and reports no metrics or trace.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "machine", "mode", "nb", "warm", "metrics", "trace":
				fail("-%s is not supported with -cores > 1", f.Name)
			}
		})
		runMultiCore(bench, *schemeFlag, *coresFlag)
		return
	}
	if *schemeFlag == "all" {
		runAllSchemes(bench, mode, *nbFlag, *parFlag, desc, opts)
		return
	}

	var reg *metrics.Registry
	if *metricsFlag {
		reg = metrics.NewRegistry()
		opts = append(opts, workload.WithMetrics(reg))
	}
	var tr *trace.Tracer
	if *traceFlag != "" {
		tr = trace.New(0)
		opts = append(opts, workload.WithTrace(tr))
	}

	var run workload.Run
	switch *schemeFlag {
	case "software":
		run, err = workload.RunBaseline(bench, mode, opts...)
	default:
		k, perr := scheme.Parse(*schemeFlag)
		if perr != nil {
			fail("%v", perr)
		}
		run, err = runScheme(bench, schemeParams(k, desc), mode, *nbFlag, opts)
	}
	if err != nil {
		fail("run failed: %v", err)
	}

	fmt.Printf("workload   %s\n", run.Name)
	fmt.Printf("scheme     %s\n", run.Scheme)
	fmt.Printf("queries    %d (mismatches: %d)\n", run.Queries, run.Mismatches)
	fmt.Printf("cycles     %d\n", run.Cycles)
	if run.Queries > 0 {
		fmt.Printf("cyc/query  %.1f\n", float64(run.Cycles)/float64(run.Queries))
	}
	fmt.Printf("core       %d instrs, IPC %.2f, %d loads, %d mispredicts\n",
		run.Core.Instructions, run.Core.IPC(), run.Core.Loads, run.Core.Mispredicts)
	fmt.Printf("memory     L1 %d, L2 %d, LLC %d, DRAM %d accesses; %d NoC bytes\n",
		run.L1Accesses, run.L2Accesses, run.LLCAccesses, run.DRAMAccesses, run.NoCBytes)
	fmt.Printf("tlb        %d lookups, %d walks\n", run.TLBLookups, run.PageWalks)
	if run.Accel != nil {
		a := run.Accel
		fmt.Printf("qei        %d queries, %d transitions, %d lines, %d local / %d remote compares\n",
			a.Queries, a.Transitions, a.MemLines, a.LocalCompares, a.RemoteCompares)
		fmt.Printf("qei        occupancy %.2f, %d QST-stall cycles, %d exceptions\n",
			a.Occupancy(), a.QSTStallCycles, a.Exceptions)
	}
	if reg != nil {
		fmt.Printf("\nmetrics (%d non-zero counters)\n", len(run.Metrics.NonZero()))
		fmt.Print(run.Metrics.NonZero().String())
	}
	if tr != nil {
		doc := tr.Export()
		if err := os.WriteFile(*traceFlag, []byte(doc), 0o644); err != nil {
			fail("write trace: %v", err)
		}
		fmt.Printf("\nwrote %d trace events to %s (%d dropped)\n", tr.Len(), *traceFlag, tr.Dropped())
	}
	if run.Mismatches != 0 {
		os.Exit(1)
	}
}

// schemeParams sizes the accelerator for scheme k: from the -machine
// description (QST entries, comparators, TLB, device latency, tile
// count) when there is one, else the scheme's defaults.
func schemeParams(k scheme.Kind, desc *hwdesc.Description) scheme.Params {
	if desc == nil {
		return scheme.ForKind(k)
	}
	d := *desc
	d.Scheme = k.Name()
	p, err := d.SchemeParams()
	if err != nil {
		fail("-machine: %v", err)
	}
	return p
}

// rowDescription is the machine the -scheme all row for k runs on. The
// description's accelerator block (QST, accelerator TLB, device
// latency) sizes only the scheme it names; every other row keeps its
// own Tab. II sizing on the described machine, so -machine default
// matches the run without -machine.
func rowDescription(desc *hwdesc.Description, k scheme.Kind) *hwdesc.Description {
	if desc == nil {
		return nil
	}
	if named, err := desc.SchemeParams(); err == nil && named.Kind == k {
		return desc
	}
	d := *desc
	d.QST, d.AccelTLB, d.ExtraDataLatency = hwdesc.QST{}, hwdesc.TLB{}, 0
	return &d
}

// runScheme runs bench on the accelerator that params describe, with
// QUERY_NB (batch 32) when nb is set and QUERY_B otherwise.
func runScheme(bench workload.Benchmark, params scheme.Params, mode workload.Mode, nb bool, opts []workload.RunOption) (workload.Run, error) {
	if nb {
		return workload.RunQEINonBlocking(bench, params, opts...)
	}
	return workload.RunQEIWithParams(bench, params, mode, opts...)
}

// runAllSchemes fans the software baseline and every integration scheme
// across the worker pool and prints a side-by-side comparison; results
// are collected in a fixed order, so the table is deterministic.
func runAllSchemes(bench workload.Benchmark, mode workload.Mode, nb bool, par int, desc *hwdesc.Description, opts []workload.RunOption) {
	type job struct {
		name   string
		params *scheme.Params // nil = the software baseline
	}
	jobs := []job{{name: "software"}}
	for _, k := range scheme.Kinds() {
		p := schemeParams(k, rowDescription(desc, k))
		jobs = append(jobs, job{name: k.String(), params: &p})
	}
	runs, err := runner.Map(par, jobs,
		func(j job) (workload.Run, error) {
			if j.params == nil {
				return workload.RunBaseline(bench, mode, opts...)
			}
			return runScheme(bench, *j.params, mode, nb, opts)
		})
	if err != nil {
		fail("run failed: %v", err)
	}
	base := runs[0]
	fmt.Printf("workload %s — %d queries\n", bench.Name(), base.Queries)
	fmt.Printf("%-16s %14s %10s %10s %12s\n", "scheme", "cycles", "cyc/query", "speedup_x", "mismatches")
	bad := false
	for i, r := range runs {
		sp := float64(base.Cycles) / float64(r.Cycles)
		q := r.Queries
		if q < 1 {
			q = 1
		}
		fmt.Printf("%-16s %14d %10.1f %10.2f %12d\n",
			jobs[i].name, r.Cycles, float64(r.Cycles)/float64(q), sp, r.Mismatches)
		if r.Mismatches != 0 {
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}

func runMultiCore(bench workload.Benchmark, schemeName string, cores int) {
	k, err := scheme.Parse(schemeName)
	if err != nil {
		fail("multi-core mode needs an accelerator scheme: %v", err)
	}
	r, err := workload.RunMultiCore(bench, k, cores)
	if err != nil {
		fail("multi-core run failed: %v", err)
	}
	fmt.Printf("workload    %s\n", bench.Name())
	fmt.Printf("scheme      %s x %d cores\n", r.Scheme, r.Cores)
	fmt.Printf("queries     %d (mismatches: %d)\n", r.Queries, r.Mismatches)
	fmt.Printf("makespan    %d cycles\n", r.Makespan)
	fmt.Printf("throughput  %.2f queries/kilocycle\n", r.Throughput)
	if r.Mismatches != 0 {
		os.Exit(1)
	}
}

// fail reports an error and exits with status 1, as qeidse and qeiserve
// do; status 2 stays the mark of a panic or a flag-syntax error.
func fail(format string, v ...any) {
	fmt.Fprintf(os.Stderr, "qeisim: "+format+"\n", v...)
	os.Exit(1)
}
