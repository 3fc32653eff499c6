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
//	qeisim -faults "7:flip=0.05,spurious=0.1"
//	qeisim -stream [-scheme core] [-machine preset|file.json]
//
// -faults skips the workload entirely and runs the fault-injection
// chaos smoke: a replayable fault schedule driven through every
// built-in structure kind via the public API, asserting that every
// query resolves to a result or an architectural fault. It exits
// non-zero if any query fails to resolve.
//
// -stream runs the streaming epoch-consistency smoke instead: the
// default mixed read-write stream against every mutable structure kind
// on the selected scheme and machine, verified op-for-op against a host
// model, with a replay proving determinism. It exits non-zero on any
// mismatch, read-after-retire violation, or replay divergence.
//
// -scheme all runs the software baseline plus every integration scheme
// and prints a side-by-side comparison, fanning the runs across
// -parallel workers.
//
// -metrics appends the run's full counter snapshot (component-path
// names, one per line); -trace writes the unified cycle-stamped event
// timeline as Chrome trace-event JSON (open in Perfetto or
// chrome://tracing). Both apply to single-scheme, single-core runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"qei/internal/hwdesc"
	"qei/internal/metrics"
	"qei/internal/runner"
	"qei/internal/scheme"
	"qei/internal/trace"
	"qei/internal/workload"
)

func main() {
	wlFlag := flag.String("workload", "dpdk", "workload: dpdk, jvm, rocksdb, snort, flann, tuple5, tuple10, tuple15")
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
	faultsFlag := flag.String("faults", "", "run the fault-injection chaos smoke with this seed:kind=rate,... spec and exit")
	streamFlag := flag.Bool("stream", false, "run the streaming epoch-consistency smoke (honors -scheme and -machine) and exit")
	flag.Parse()

	if *faultsFlag != "" {
		runFaultSmoke(*faultsFlag)
		return
	}
	if *streamFlag {
		runStreamSmoke(*schemeFlag, *machineFlag)
		return
	}

	full := *scaleFlag == "full"
	var bench workload.Benchmark
	switch *wlFlag {
	case "dpdk":
		bench = pick(full, workload.DefaultDPDK(), workload.SmallDPDK())
	case "jvm":
		bench = pick(full, workload.DefaultJVM(), workload.SmallJVM())
	case "rocksdb":
		bench = pick(full, workload.DefaultRocksDB(), workload.SmallRocksDB())
	case "snort":
		bench = pick(full, workload.DefaultSnort(), workload.SmallSnort())
	case "flann":
		bench = pick(full, workload.DefaultFLANN(), workload.SmallFLANN())
	case "tuple5":
		bench = pick(full, workload.DefaultTupleSpace(5), workload.SmallTupleSpace(5))
	case "tuple10":
		bench = pick(full, workload.DefaultTupleSpace(10), workload.SmallTupleSpace(10))
	case "tuple15":
		bench = pick(full, workload.DefaultTupleSpace(15), workload.SmallTupleSpace(15))
	default:
		fail("unknown workload %q", *wlFlag)
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
		opts = append(opts, workload.WithMachine(d.MachineConfig()))
	}

	if *coresFlag > 1 {
		if desc != nil {
			fail("-machine is not supported with -cores > 1")
		}
		runMultiCore(bench, *schemeFlag, *coresFlag)
		return
	}
	if *schemeFlag == "all" {
		runAllSchemes(bench, mode, *nbFlag, *parFlag, opts)
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
	var err error
	switch *schemeFlag {
	case "software":
		run, err = workload.RunBaseline(bench, mode, opts...)
	default:
		k, perr := scheme.Parse(*schemeFlag)
		if perr != nil {
			fail("%v", perr)
		}
		if *nbFlag {
			run, err = workload.RunQEINonBlocking(bench, k, 32, opts...)
		} else if desc != nil {
			// The description also sizes the accelerator (QST entries,
			// comparators, TLB, device latency) under the chosen scheme.
			d := *desc
			d.Scheme = k.Name()
			params, perr := d.SchemeParams()
			if perr != nil {
				fail("-machine: %v", perr)
			}
			run, err = workload.RunQEIWithParams(bench, params, mode, opts...)
		} else {
			run, err = workload.RunQEI(bench, k, mode, opts...)
		}
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

// runAllSchemes fans the software baseline and every integration scheme
// across the worker pool and prints a side-by-side comparison; results
// are collected in a fixed order, so the table is deterministic.
func runAllSchemes(bench workload.Benchmark, mode workload.Mode, nb bool, par int, opts []workload.RunOption) {
	type job struct {
		name string
		kind scheme.Kind
		sw   bool
	}
	jobs := []job{{name: "software", sw: true}}
	for _, k := range scheme.Kinds() {
		jobs = append(jobs, job{name: k.String(), kind: k})
	}
	runs, err := runner.Map(context.Background(), par, jobs,
		func(_ context.Context, _ int, j job) (workload.Run, error) {
			if j.sw {
				return workload.RunBaseline(bench, mode, opts...)
			}
			if nb {
				return workload.RunQEINonBlocking(bench, j.kind, 32, opts...)
			}
			return workload.RunQEI(bench, j.kind, mode, opts...)
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

func pick(full bool, f, s workload.Benchmark) workload.Benchmark {
	if full {
		return f
	}
	return s
}

func fail(format string, v ...any) {
	fmt.Fprintf(os.Stderr, "qeisim: "+format+"\n", v...)
	os.Exit(2)
}
