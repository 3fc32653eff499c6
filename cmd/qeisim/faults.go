package main

import (
	"fmt"

	"qei"
)

// runFaultSmoke is the -faults mode: a standalone chaos smoke that
// drives a replayable fault schedule through every built-in structure
// kind via the public API and checks the architectural contract — no
// panic escapes the System and every blocking query resolves to exactly
// one of {accelerator result, architectural fault, fallback result}.
// It exits non-zero (via fail) on any unresolved query.
func runFaultSmoke(spec string) {
	fs, err := qei.ParseFaultSpec(spec)
	if err != nil {
		fail("bad -faults spec: %v", err)
	}
	sys := qei.NewSystem(qei.CoreIntegrated,
		qei.WithMetrics(),
		qei.WithFaultInjection(fs),
		qei.WithQueryCycleBudget(2_000_000),
		qei.WithFallback(qei.FallbackPolicy{AfterFaults: 2}))

	keys, vals := smokeKeys(48, 16)
	absent, _ := smokeKeys(8, 17) // distinct stream: misses by construction

	var ok, faulted, fellBack, queries int
	classify := func(label string, res qei.Result, err error) {
		queries++
		if err != nil {
			fail("%s query did not resolve: %v", label, err)
		}
		switch {
		case res.FellBack:
			fellBack++
		case res.Err != nil:
			faulted++
		default:
			ok++
		}
	}

	for _, kind := range []qei.StructKind{qei.KindLinkedList, qei.KindCuckoo, qei.KindSkipList, qei.KindBST} {
		table, err := sys.Build(kind, keys, vals)
		if err != nil {
			fail("build %s: %v", kind, err)
		}
		for _, k := range keys {
			res, err := sys.Query(table, k)
			classify(kind.String(), res, err)
		}
		for _, k := range absent {
			res, err := sys.Query(table, k)
			classify(kind.String(), res, err)
		}
	}

	trie, err := sys.Build(qei.KindTrie,
		[][]byte{[]byte("fault"), []byte("inject"), []byte("chaos")},
		[]uint64{1, 2, 3})
	if err != nil {
		fail("build trie: %v", err)
	}
	for _, in := range [][]byte{
		[]byte("chaos smoke injects faults into the walk"),
		[]byte("clean input"),
	} {
		res, err := sys.Scan(trie, in)
		classify("trie", res, err)
	}

	if ok+faulted+fellBack != queries {
		fail("outcome classes overlap: %d+%d+%d != %d", ok, faulted, fellBack, queries)
	}
	st := sys.Stats()
	fmt.Printf("fault smoke  %s\n", fs)
	fmt.Printf("queries      %d (%d ok, %d faulted, %d fell back)\n", queries, ok, faulted, fellBack)
	fmt.Printf("injection    %d faults injected, %d retries, %d timeouts, %d exceptions\n",
		sys.FaultsInjected(), st.Retries, st.Timeouts, st.Exceptions)
	fmt.Printf("fallback     %d software re-executions\n", sys.Fallbacks())
}

// smokeKeys generates n deterministic fixed-length keys with distinct
// values, seeded by stream.
func smokeKeys(n, stream int) ([][]byte, []uint64) {
	keys := make([][]byte, n)
	vals := make([]uint64, n)
	for i := range keys {
		k := make([]byte, 16)
		x := uint64(i+1) * 0x9E3779B97F4A7C15 >> 1
		x ^= uint64(stream) * 0xA24BAED4963EE407
		for j := range k {
			k[j] = byte(x >> (uint(j%8) * 8))
			if j == 7 {
				x *= 0xD6E8FEB86659FD93
			}
		}
		keys[i] = k
		vals[i] = uint64(i + 1)
	}
	return keys, vals
}
