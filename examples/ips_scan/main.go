// IPS scan: the Snort-style intrusion-prevention scenario — a keyword
// dictionary compiled into an Aho-Corasick trie, scanning packet
// payloads for malicious literals (Sec. VI-B). One accelerated query
// scans a whole payload; the match list streams back to software.
package main

import (
	"fmt"
	"math/rand"

	"qei"
)

func main() {
	sys := qei.NewSystem(qei.CoreIntegrated)
	rng := rand.New(rand.NewSource(11))

	// A dictionary of suspicious literals plus random filler keywords
	// (real rule sets mix short tokens and long signatures).
	signatures := [][]byte{
		[]byte("etc/passwd"), []byte("cmd.exe"), []byte("SELECT *"),
		[]byte("../../"), []byte("<script>"), []byte("eval("),
	}
	values := make([]uint64, 0, len(signatures)+2000)
	dict := make([][]byte, 0, len(signatures)+2000)
	for i, s := range signatures {
		dict = append(dict, s)
		values = append(values, uint64(i)+1)
	}
	for len(dict) < 2006 {
		w := make([]byte, 4+rng.Intn(10))
		for i := range w {
			w[i] = byte('a' + rng.Intn(26))
		}
		dict = append(dict, w)
		values = append(values, uint64(len(dict)))
	}
	trie, err := sys.Build(qei.KindTrie, dict, values)
	if err != nil {
		panic(err)
	}
	fmt.Printf("IPS ready: %d keywords compiled into an Aho-Corasick trie\n", len(dict))

	// Benign traffic.
	benign := make([]byte, 1024)
	for i := range benign {
		benign[i] = byte('A' + rng.Intn(26))
	}
	res, err := sys.Scan(trie, benign)
	if err != nil {
		panic(err)
	}
	fmt.Printf("benign 1KB payload: %d matches, scanned in %d cycles (%.1f cycles/byte)\n",
		len(res.Matches), res.Latency, float64(res.Latency)/1024)

	// Malicious request.
	attack := []byte("GET /download?file=../../etc/passwd&run=cmd.exe HTTP/1.1")
	res, err = sys.Scan(trie, attack)
	if err != nil {
		panic(err)
	}
	fmt.Printf("attack payload: %d signature hits:", len(res.Matches))
	for _, m := range res.Matches {
		if int(m) <= len(signatures) {
			fmt.Printf(" %q", signatures[m-1])
		}
	}
	fmt.Println()
	if len(res.Matches) < 3 {
		panic("planted signatures not all detected")
	}

	// Throughput sweep: scan a batch of mixed payloads.
	var totalBytes int
	start := sys.Now()
	for i := 0; i < 24; i++ {
		p := make([]byte, 512)
		for j := range p {
			p[j] = byte('a' + rng.Intn(26))
		}
		if i%4 == 0 { // plant a signature in every 4th payload
			sig := signatures[rng.Intn(len(signatures))]
			copy(p[rng.Intn(len(p)-len(sig)):], sig)
		}
		if _, err := sys.Scan(trie, p); err != nil {
			panic(err)
		}
		totalBytes += len(p)
	}
	cycles := sys.Now() - start
	fmt.Printf("scanned %d bytes of traffic in %d cycles (%.2f cycles/byte)\n",
		totalBytes, cycles, float64(cycles)/float64(totalBytes))

	st := sys.Stats()
	fmt.Printf("accelerator: %d scans, %d CFA transitions, %d cachelines fetched\n",
		st.Queries, st.Transitions, st.MemLines)
}
