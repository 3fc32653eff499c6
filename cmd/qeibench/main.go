// Command qeibench regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md for the experiment index).
//
// Independent experiment points fan out across -parallel workers; the
// tables are byte-identical at any worker count.
//
// Usage:
//
//	qeibench [-scale small|full] [-exp all|fig1|...|abl-hugepage|bench] [-parallel N] [-csv]
//	qeibench -json [-out DIR] [-scale small|full] [-parallel N]
//	qeibench -cpuprofile cpu.pprof -memprofile mem.pprof -exp bench
//
// An unknown -scale or -exp name exits 1, as in qeisim and qeidse.
//
// -json runs the bench experiment (the workload × scheme matrix with
// metrics attached) and writes machine-readable results to
// BENCH_bench.json in -out: one record per cell with cycles, speedup
// over the software baseline, and the key simulator counters — plus
// the batch experiment's level-wise vs windowed records.
//
// -cpuprofile and -memprofile write pprof profiles of the run for the
// wall-clock optimization workflow (see README "Performance"): profile
// a run, inspect with `go tool pprof`, fix the hot spot, then prove
// cycle outputs unchanged with TestBenchGoldenCycles.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"qei/internal/exp"
)

func main() {
	scaleFlag := flag.String("scale", "small", "experiment scale: small or full")
	expFlag := flag.String("exp", "all", "experiment to run: all or one of the registry names (fig1, tab1, ...)")
	parFlag := flag.Int("parallel", 1, "worker count for experiment jobs; 0 = GOMAXPROCS")
	csvFlag := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonFlag := flag.Bool("json", false, "run the bench matrix and write machine-readable BENCH_bench.json")
	outFlag := flag.String("out", ".", "directory for -json output")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qeibench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "qeibench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "qeibench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "qeibench: memprofile: %v\n", err)
			}
		}()
	}

	scale := exp.Small
	switch *scaleFlag {
	case "small":
	case "full":
		scale = exp.FullScale
	default:
		fmt.Fprintf(os.Stderr, "qeibench: unknown scale %q\n", *scaleFlag)
		os.Exit(1)
	}

	if *jsonFlag {
		rs, err := exp.RunBench(scale, *parFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qeibench: bench: %v\n", err)
			os.Exit(1)
		}
		// The JSON document also carries the batch experiment's
		// level-wise vs windowed records; TestBenchGoldenCycles pins both
		// record sets.
		brs, err := exp.RunBatchBench(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qeibench: batch bench: %v\n", err)
			os.Exit(1)
		}
		rs = append(rs, brs...)
		path, err := exp.WriteBenchJSON(*outFlag, "bench", rs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qeibench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d records to %s\n", len(rs), path)
		return
	}
	want := strings.ToLower(*expFlag)
	ran := 0
	for _, e := range exp.Experiments() {
		if want != "all" && want != e.Name {
			continue
		}
		t, err := e.Run(scale, *parFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qeibench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		if *csvFlag {
			fmt.Printf("# %s\n%s\n", e.Name, t.CSV())
		} else {
			fmt.Println(t.String())
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "qeibench: unknown experiment %q\n", *expFlag)
		os.Exit(1)
	}
}
