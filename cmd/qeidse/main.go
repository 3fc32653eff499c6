// Command qeidse runs a design-space-exploration sweep: it expands an
// axis grid over the machine description (QST capacity, core count,
// mesh geometry, integration scheme, technology node), simulates every
// valid design point — software baseline vs QEI on the same chip — and
// reports the Pareto frontier over (lookup speedup, accelerator silicon
// mm², dynamic energy nJ/query).
//
// Usage:
//
//	qeidse [-axes "qst=8,16,32,64;cores=8,16,24,32;mesh=6x4,4x4;scheme=core,cha-tlb;node=22,14,7"] \
//	       [-workload dpdk|jvm|rocksdb|snort|flann|tuple5|tuple10|tuple15] [-scale small|full] \
//	       [-preset NAME|file.json] [-parallel N] [-json [-out FILE]] [-frontier]
//
// The default grid is the standard 120-point provisioning sweep. Output
// is byte-identical at any -parallel value: the sweep fans design
// points across the deterministic worker pool and collects results in
// grid order. -json emits the full machine-readable result (every
// point, the frontier indices, dominated and skipped counts); -frontier
// restricts the human-readable table to Pareto-optimal points.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"qei/internal/dse"
	"qei/internal/hwdesc"
	"qei/internal/workload"
)

func fail(format string, v ...any) {
	fmt.Fprintf(os.Stderr, "qeidse: "+format+"\n", v...)
	os.Exit(1)
}

func main() {
	axesFlag := flag.String("axes", "", `sweep grid, e.g. "qst=8,32;cores=16,24;scheme=core,cha-tlb"; empty = the standard 120-point grid`)
	wlFlag := flag.String("workload", "dpdk", "workload scoring each point: "+strings.Join(workload.Names(), ", "))
	scaleFlag := flag.String("scale", "small", "benchmark population: small or full")
	presetFlag := flag.String("preset", "", "base machine description the axes mutate: a preset name or JSON file; empty = the Tab. II default")
	parFlag := flag.Int("parallel", 0, "sweep workers; 0 = GOMAXPROCS (output identical at any value)")
	jsonFlag := flag.Bool("json", false, "emit the full machine-readable result as JSON")
	outFlag := flag.String("out", "", "write the JSON result to this file instead of stdout (implies -json)")
	frontierFlag := flag.Bool("frontier", false, "print only Pareto-optimal points in the table")
	flag.Parse()

	if *scaleFlag != "small" && *scaleFlag != "full" {
		fail("unknown scale %q (want small or full)", *scaleFlag)
	}
	bench, err := workload.Lookup(*wlFlag, *scaleFlag == "full")
	if err != nil {
		fail("%v", err)
	}
	axes := dse.DefaultAxes()
	if *axesFlag != "" {
		if axes, err = dse.ParseAxes(*axesFlag); err != nil {
			fail("%v", err)
		}
	}
	base := hwdesc.Default()
	if *presetFlag != "" {
		if base, err = hwdesc.Load(*presetFlag); err != nil {
			fail("%v", err)
		}
	}
	res, err := dse.Sweep(dse.Config{Bench: bench, Base: base, Axes: axes, Parallelism: *parFlag})
	if err != nil {
		fail("%v", err)
	}

	if *jsonFlag || *outFlag != "" {
		data, err := res.JSON()
		if err != nil {
			fail("%v", err)
		}
		if *outFlag != "" {
			if err := os.WriteFile(*outFlag, data, 0o644); err != nil {
				fail("%v", err)
			}
			fmt.Fprintf(os.Stderr, "qeidse: wrote %d points (%d on the frontier) to %s\n",
				len(res.Points), len(res.Frontier), *outFlag)
		} else {
			os.Stdout.Write(data)
		}
		return
	}

	fmt.Printf("workload %s — %d design points evaluated, %d dominated, %d invalid grid cells skipped\n",
		res.Workload, len(res.Points), res.DominatedCount, res.SkippedInvalid)
	fmt.Printf("%-28s %10s %10s %10s %12s  %s\n",
		"design", "speedup_x", "area_mm2", "static_mw", "nj/query", "pareto")
	for _, p := range res.Points {
		verdict := "frontier"
		if p.Dominated {
			if *frontierFlag {
				continue
			}
			verdict = "-"
		}
		fmt.Printf("%-28s %10.2f %10.4f %10.4f %12.2f  %s\n",
			p.Desc.Name, p.SpeedupX, p.AreaMM2, p.StaticMW, p.EnergyNJPerQuery, verdict)
	}
	fmt.Printf("frontier: %d of %d points\n", len(res.Frontier), len(res.Points))
}
