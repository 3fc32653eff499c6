// NFV router: the DPDK-style motivating scenario from the paper's
// introduction — a virtual switch classifying packets with tuple-space
// search over several flow tables, accelerated with non-blocking
// QUERY_NB bursts (Sec. VII-B).
//
// Each incoming packet carries a 16-byte 5-tuple-like header; the
// classifier must probe every tuple table because it cannot know which
// rule set a flow matches. The probes are independent, so a burst of
// packets times the tuple count can be in flight at once.
package main

import (
	"errors"
	"fmt"
	"math/rand"

	"qei"
)

const (
	tuples       = 8
	flowsPerT    = 2048
	packetBurst  = 16
	totalPackets = 256
)

func main() {
	sys := qei.NewSystem(qei.CoreIntegrated)
	rng := rand.New(rand.NewSource(99))

	// Build one flow table per tuple. Each flow lives in exactly one
	// table (its matching rule's tuple).
	tables := make([]qei.Table, tuples)
	flows := make([][][]byte, tuples)
	actions := make([][]uint64, tuples)
	for t := 0; t < tuples; t++ {
		keys := make([][]byte, flowsPerT)
		vals := make([]uint64, flowsPerT)
		for i := range keys {
			keys[i] = make([]byte, 16)
			rng.Read(keys[i])
			vals[i] = uint64(t)<<32 | uint64(i) | 1 // action id
		}
		tb, err := sys.Build(qei.KindCuckoo, keys, vals)
		if err != nil {
			panic(err)
		}
		tables[t] = tb
		flows[t] = keys
		actions[t] = vals
	}
	fmt.Printf("classifier ready: %d tuple tables x %d flows\n", tuples, flowsPerT)

	type packet struct {
		header []byte
		owner  int // tuple whose table holds the flow
		idx    int
	}

	classified := 0
	var totalCycles uint64
	start := sys.Now()

	for sent := 0; sent < totalPackets; sent += packetBurst {
		// Receive a burst.
		burst := make([]packet, packetBurst)
		for i := range burst {
			t := rng.Intn(tuples)
			k := rng.Intn(flowsPerT)
			burst[i] = packet{header: flows[t][k], owner: t, idx: k}
		}

		// Issue the burst's probes non-blocking, up to the QST bound.
		// burst x tuples exceeds the QST, so the issue loop runs List 2's
		// drain-and-reissue: on ErrQSTFull, retire the oldest outstanding
		// probe and retry.
		type probe struct{ pkt, tup int }
		handles := make([][]qei.AsyncHandle, len(burst))
		results := make([][]qei.Result, len(burst))
		var fifo []probe
		drain := func() {
			pr := fifo[0]
			fifo = fifo[1:]
			r, err := sys.Wait(handles[pr.pkt][pr.tup])
			if err != nil {
				panic(err)
			}
			results[pr.pkt][pr.tup] = r
		}
		for i, p := range burst {
			handles[i] = make([]qei.AsyncHandle, tuples)
			results[i] = make([]qei.Result, tuples)
			for t := 0; t < tuples; t++ {
				h, err := sys.QueryAsync(tables[t], p.header)
				for errors.Is(err, qei.ErrQSTFull) {
					drain()
					h, err = sys.QueryAsync(tables[t], p.header)
				}
				if err != nil {
					panic(err)
				}
				handles[i][t] = h
				fifo = append(fifo, probe{i, t})
			}
		}
		for len(fifo) > 0 {
			drain()
		}

		// Pick each packet's action from the retired probes.
		for i, p := range burst {
			var matched uint64
			for t := 0; t < tuples; t++ {
				if r := results[i][t]; r.Found {
					if t != p.owner {
						panic("matched in the wrong tuple table")
					}
					matched = r.Value
				}
			}
			want := actions[p.owner][p.idx]
			if matched != want {
				panic(fmt.Sprintf("packet %d: action %#x, want %#x", i, matched, want))
			}
			classified++
		}
	}
	totalCycles = sys.Now() - start

	fmt.Printf("classified %d packets (%d probes) in %d cycles — %.1f cycles/packet\n",
		classified, classified*tuples, totalCycles, float64(totalCycles)/float64(classified))
	st := sys.Stats()
	fmt.Printf("accelerator occupancy %.2f entries, %d remote compares\n",
		st.Occupancy, st.RemoteCompares)
}
