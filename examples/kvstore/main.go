// KV store: a RocksDB-memtable-style scenario — a skip list of sorted
// string keys pointing at large values, read through the accelerator
// while the host thread does other work (get-heavy serving, Sec. VI-B).
//
// The example also demonstrates the exception path of Sec. IV-D: a query
// against a corrupted header faults architecturally, software observes
// the error, and the system keeps serving.
package main

import (
	"fmt"
	"math/rand"

	"qei"
)

func main() {
	sys := qei.NewSystem(qei.CoreIntegrated)
	rng := rand.New(rand.NewSource(3))

	// 10k items, 100-byte keys — the paper's db_bench configuration.
	const items = 10000
	keys := make([][]byte, items)
	valuePtrs := make([]uint64, items)
	for i := range keys {
		keys[i] = make([]byte, 100)
		rng.Read(keys[i])
		// The 900-byte values live in simulated memory; the memtable
		// stores pointers to them.
		payload := make([]byte, 900)
		rng.Read(payload)
		valuePtrs[i] = sys.Write(payload)
	}
	memtable, err := sys.Build(qei.KindSkipList, keys, valuePtrs)
	if err != nil {
		panic(err)
	}
	fmt.Printf("memtable ready: %d items, 100B keys / 900B values\n", items)

	// Random gets.
	var hits int
	var totalLatency uint64
	const gets = 200
	for i := 0; i < gets; i++ {
		k := keys[rng.Intn(items)]
		res, err := sys.Query(memtable, k)
		if err != nil {
			panic(err)
		}
		if res.Found {
			hits++
			totalLatency += res.Latency
		}
	}
	fmt.Printf("%d gets, %d hits, avg latency %.1f cycles\n",
		gets, hits, float64(totalLatency)/float64(hits))

	// Range-adjacent misses: probe keys not in the table.
	misses := 0
	for i := 0; i < 50; i++ {
		k := make([]byte, 100)
		rng.Read(k)
		res, err := sys.Query(memtable, k)
		if err != nil {
			panic(err)
		}
		if !res.Found {
			misses++
		}
	}
	fmt.Printf("50 random probes: %d correctly reported absent\n", misses)

	// Exception path: a header pointing into unmapped memory. The
	// accelerator transitions the query to its EXCEPTION state and
	// reports the fault to software through the result queue; the
	// process is not killed and the store keeps serving.
	bad := qei.Table{Kind: qei.KindSkipList, KeyLen: 100}
	_ = bad // a zero Table has a NULL header — query it via a corrupt copy
	res, err := sys.Query(qei.Table{}, keys[0])
	if err == nil && res.Err == nil {
		panic("corrupt header did not fault")
	}
	fmt.Println("query against corrupt header: fault reported to software, store still live")

	// Prove the store is still live.
	res, err = sys.Query(memtable, keys[0])
	if err != nil || !res.Found {
		panic("store unusable after exception")
	}
	fmt.Println("post-exception get verified")

	st := sys.Stats()
	fmt.Printf("accelerator: %d queries, %d exceptions, %d remote compares (100B keys compare near-data)\n",
		st.Queries, st.Exceptions, st.RemoteCompares)
}
