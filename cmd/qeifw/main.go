// Command qeifw inspects the CEE firmware: it explores every built-in
// CFA program's state graph by symbolic execution over a miniature data
// structure, validates the firmware invariants (state budget, no dead
// ends, DONE reachable), and optionally emits Graphviz DOT for Fig. 3
// style diagrams.
//
// Usage:
//
//	qeifw            # validate all built-in programs, print summaries
//	qeifw -dot trie  # emit the trie CFA's state graph as DOT
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"qei/internal/cfa"
)

func main() {
	// The built-in programs, in type-code order.
	reg := cfa.DefaultRegistry()
	var programs []cfa.Program
	var names []string
	for tc := 0; tc < 256; tc++ {
		if p, ok := reg.Lookup(uint8(tc)); ok {
			programs = append(programs, p)
			names = append(names, p.Name())
		}
	}
	dotFlag := flag.String("dot", "", "emit DOT for one program ("+strings.Join(names, ", ")+")")
	flag.Parse()

	if *dotFlag != "" {
		for _, p := range programs {
			if p.Name() == *dotFlag {
				g, err := cfa.ExploreBuiltin(p)
				if err != nil {
					fmt.Fprintf(os.Stderr, "qeifw: %v\n", err)
					os.Exit(1)
				}
				fmt.Print(g.ToDOT())
				return
			}
		}
		fmt.Fprintf(os.Stderr, "qeifw: unknown program %q\n", *dotFlag)
		os.Exit(2)
	}

	fmt.Printf("%-12s %-8s %-8s %s\n", "program", "states", "edges", "status")
	failed := false
	for _, p := range programs {
		g, err := cfa.ExploreBuiltin(p)
		if err != nil {
			fmt.Printf("%-12s %-8s %-8s explore failed: %v\n", p.Name(), "-", "-", err)
			failed = true
			continue
		}
		status := "ok"
		if err := g.Validate(); err != nil {
			status = err.Error()
			failed = true
		}
		fmt.Printf("%-12s %-8d %-8d %s\n", p.Name(), len(g.States), len(g.Edges), status)
	}
	if failed {
		os.Exit(1)
	}
}
