// Command qeitrace records the simulator's unified event timeline for a
// short run and writes it as Chrome trace-event JSON (load in
// chrome://tracing or Perfetto). The run issues -queries random probes
// as non-blocking QUERY_NB queries, keeping a full QST's worth in
// flight and waiting on the oldest (the paper's List-2 loop). Query
// spans land on QST instance tracks (one row per slot — the staggered
// spans show the out-of-order, pipelined CFA execution of Sec. IV-B),
// alongside cache accesses, page walks, NoC transfers, and CHA remote
// compares on their own tracks.
//
// Usage:
//
//	qeitrace [-queries 64] [-scheme core|cha-tlb|...] [-table skiplist|cuckoo|...] [-o trace.json]
//
// -queries is the number of QUERY_NB probes; up to the QST capacity of
// them are in flight at once.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"qei"
	"qei/internal/exp"
	"qei/internal/scheme"
)

func main() {
	nFlag := flag.Int("queries", 64, "QUERY_NB probes to trace, a QST's worth in flight at a time")
	schemeFlag := flag.String("scheme", "core", "integration scheme")
	tableFlag := flag.String("table", "skiplist", "structure to trace: skiplist, cuckoo, hashtable, bst, btree, linkedlist")
	outFlag := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	sch, err := scheme.Parse(*schemeFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qeitrace: %v\n", err)
		os.Exit(2)
	}

	kind, err := qei.ParseStructKind(*tableFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qeitrace: %v\n", err)
		os.Exit(2)
	}

	sys := qei.NewSystem(sch, qei.WithTimeline())
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, 2048)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = make([]byte, 32)
		rng.Read(keys[i])
		vals[i] = uint64(i) + 1
	}
	if kind == qei.KindTrie || kind == qei.KindCustom {
		fmt.Fprintf(os.Stderr, "qeitrace: cannot trace a %s table\n", kind)
		os.Exit(2)
	}
	table, err := sys.Build(kind, keys, vals)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qeitrace: %v\n", err)
		os.Exit(1)
	}

	probes := make([][]byte, *nFlag)
	for i := range probes {
		probes[i] = keys[rng.Intn(len(keys))]
	}
	if _, err := exp.WindowedBatch(sys, table, probes); err != nil {
		fmt.Fprintf(os.Stderr, "qeitrace: %v\n", err)
		os.Exit(1)
	}

	doc := sys.ExportTrace()
	if *outFlag == "" {
		fmt.Print(doc)
		return
	}
	if err := os.WriteFile(*outFlag, []byte(doc), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "qeitrace: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote trace of %d queries to %s\n", *nFlag, *outFlag)
}
