// Quickstart: build a cuckoo hash table in the simulated machine, query
// it through the QEI accelerator, and print per-query latencies and
// accelerator statistics.
package main

import (
	"fmt"
	"math/rand"

	"qei"
)

func main() {
	// A system is one simulated 24-core chip with a QEI accelerator
	// attached under the paper's proposed Core-integrated scheme.
	sys := qei.NewSystem(qei.CoreIntegrated)

	// 4096 random 16-byte keys (the shape of TCP/IP flow tuples).
	rng := rand.New(rand.NewSource(7))
	keys := make([][]byte, 4096)
	values := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = make([]byte, 16)
		rng.Read(keys[i])
		values[i] = uint64(i)*10 + 1
	}

	table, err := sys.Build(qei.KindCuckoo, keys, values)
	if err != nil {
		panic(err)
	}
	fmt.Printf("built %s table, header at %#x\n", table.Kind, table.HeaderAddr())

	// Blocking QUERY_B lookups.
	var totalLatency uint64
	for i := 0; i < 32; i++ {
		res, err := sys.Query(table, keys[rng.Intn(len(keys))])
		if err != nil {
			panic(err)
		}
		if !res.Found {
			panic("present key not found")
		}
		totalLatency += res.Latency
	}
	fmt.Printf("32 blocking queries: avg latency %.1f cycles\n", float64(totalLatency)/32)

	// A miss.
	res, err := sys.Query(table, make([]byte, 16))
	if err != nil {
		panic(err)
	}
	fmt.Printf("absent key: found=%v (latency %d cycles)\n", res.Found, res.Latency)

	// Non-blocking QUERY_NB: issue a burst, then collect.
	handles := make([]qei.AsyncHandle, 10)
	for i := range handles {
		h, err := sys.QueryAsync(table, keys[i])
		if err != nil {
			panic(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		r, err := sys.Wait(h)
		if err != nil {
			panic(err)
		}
		if !r.Found || r.Value != values[i] {
			panic("async result mismatch")
		}
	}
	fmt.Println("10 non-blocking queries completed and verified")

	st := sys.Stats()
	fmt.Printf("accelerator: %d queries, %d CFA transitions, %d cachelines, %d remote compares\n",
		st.Queries, st.Transitions, st.MemLines, st.RemoteCompares)
}
