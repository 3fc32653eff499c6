package workload

import (
	"fmt"
	"math/rand"

	"qei/internal/dstruct"
	"qei/internal/machine"
	"qei/internal/mem"
)

// genUniqueKeys produces n distinct keyLen-byte keys and values from a
// deterministic seed.
func genUniqueKeys(n, keyLen int, seed int64) ([][]byte, []uint64) {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	keys := make([][]byte, 0, n)
	vals := make([]uint64, 0, n)
	for len(keys) < n {
		k := make([]byte, keyLen)
		rng.Read(k)
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		keys = append(keys, k)
		vals = append(vals, rng.Uint64()|1)
	}
	return keys, vals
}

// stageKeys writes the probe keys into simulated memory (the
// application's request buffers) and returns their addresses.
func stageKeys(m *machine.Machine, keys [][]byte) []mem.VAddr {
	addrs := make([]mem.VAddr, len(keys))
	for i, k := range keys {
		a := m.AS.AllocLines(uint64(len(k)))
		m.AS.MustWrite(a, k)
		addrs[i] = a
	}
	return addrs
}

// DPDK is the L3 Forwarding Information Base benchmark (Sec. VI-B): an
// optimized cuckoo hash table with 16-byte keys modeling TCP/IP headers;
// every request is one packet lookup that hits.
type DPDK struct {
	Keys    int   // table population
	Queries int   // packets
	Seed    int64 // layout/stream seed
}

// DefaultDPDK sizes the table like the paper's FIB experiments.
func DefaultDPDK() DPDK { return DPDK{Keys: 16384, Queries: 2000, Seed: 101} }

// SmallDPDK is a fast configuration for unit tests.
func SmallDPDK() DPDK { return DPDK{Keys: 1024, Queries: 200, Seed: 101} }

func (d DPDK) Name() string { return "DPDK" }

// Build lays out the FIB and the packet stream.
func (d DPDK) Build(m *machine.Machine) (*Plan, error) {
	keys, vals := genUniqueKeys(d.Keys, 16, d.Seed)
	table := dstruct.BuildCuckoo(m.AS, uint64(d.Keys/2), 8, uint64(d.Seed), keys, vals)
	rng := rand.New(rand.NewSource(d.Seed + 1))
	// 2x queries: the first half is the warmup stream, disjointly drawn.
	n := 2 * d.Queries
	probeKeys := make([][]byte, n)
	want := make([]int, n)
	for i := range probeKeys {
		j := rng.Intn(len(keys))
		probeKeys[i] = keys[j]
		want[i] = j
	}
	addrs := stageKeys(m, probeKeys)
	plan := &Plan{
		Name: d.Name(),
		// Packet RX/parse/TX around each lookup: header parsing, checksum
		// and descriptor work. Calibrated so queries are ~40% of time.
		NonROIOps:       1500,
		NonROILoadEvery: 8,
		Scratch:         m.AS.AllocLines(4096),
		scratchSize:     4096,
	}
	for i := 0; i < n; i++ {
		req := Request{Probes: []Probe{{
			Header:    table.HeaderAddr,
			Key:       addrs[i],
			WantFound: true,
			WantValue: vals[want[i]],
		}}}
		plan.add(i < d.Queries, req)
	}
	return plan, nil
}

// readKeyAt fetches a probe's key bytes back out of simulated memory
// into buf, growing it as needed: p.KeyLen bytes, or the header's key
// length when p.KeyLen is 0.
func readKeyAt(m *machine.Machine, p Probe, buf *[]byte) []byte {
	n := int(p.KeyLen)
	if n == 0 {
		h, err := dstruct.ReadHeader(m.AS, p.Header)
		if err != nil {
			return nil
		}
		n = int(h.KeyLen)
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	k := (*buf)[:n]
	m.AS.MustRead(p.Key, k)
	return k
}

// add appends req to the warmup stream or, once the warmup half is
// drawn, to the measured stream.
func (p *Plan) add(warmup bool, req Request) {
	if warmup {
		p.WarmupRequests = append(p.WarmupRequests, req)
	} else {
		p.Requests = append(p.Requests, req)
	}
}

// JVM is the garbage-collection benchmark (Sec. VI-B): the live-object
// tree dumped from a running database, queried during the mark phase.
// Nodes carry an object payload so each visit costs multiple lines; the
// paper measures ≈39.9 memory accesses per query on this workload.
type JVM struct {
	Objects int
	Queries int
	Seed    int64
}

// DefaultJVM approximates the Derby object-tree dump.
func DefaultJVM() JVM { return JVM{Objects: 50000, Queries: 1500, Seed: 202} }

// SmallJVM is a fast configuration for unit tests.
func SmallJVM() JVM { return JVM{Objects: 4000, Queries: 200, Seed: 202} }

func (j JVM) Name() string { return "JVM" }

// Build lays out the object tree and the mark-phase query stream.
func (j JVM) Build(m *machine.Machine) (*Plan, error) {
	keys, vals := genUniqueKeys(j.Objects, 8, j.Seed)
	tree := dstruct.BuildBST(m.AS, j.Seed, 128, keys, vals)
	rng := rand.New(rand.NewSource(j.Seed + 1))
	n := 2 * j.Queries
	probeKeys := make([][]byte, n)
	want := make([]int, n)
	for i := range probeKeys {
		k := rng.Intn(len(keys))
		probeKeys[i] = keys[k]
		want[i] = k
	}
	addrs := stageKeys(m, probeKeys)
	plan := &Plan{
		Name: j.Name(),
		// Mutator work interleaved between GC mark queries (allocation,
		// barriers, application progress) plus mark bookkeeping.
		NonROIOps:       11000,
		NonROILoadEvery: 10,
		Scratch:         m.AS.AllocLines(4096),
		scratchSize:     4096,
	}
	for i := 0; i < n; i++ {
		req := Request{Probes: []Probe{{
			Header:    tree.HeaderAddr,
			Key:       addrs[i],
			WantFound: true,
			WantValue: vals[want[i]],
		}}}
		plan.add(i < j.Queries, req)
	}
	return plan, nil
}

// RocksDB is the persistent key-value store benchmark (Sec. VI-B): the
// in-memory memtable (a skip list) populated with 10 K items of 100 B
// keys and 900 B values, then queried randomly (db_bench-style).
type RocksDB struct {
	Items   int
	Queries int
	Seed    int64
}

// DefaultRocksDB matches the paper's 10 K-item db_bench setup.
func DefaultRocksDB() RocksDB { return RocksDB{Items: 10000, Queries: 1000, Seed: 303} }

// SmallRocksDB is a fast configuration for unit tests.
func SmallRocksDB() RocksDB { return RocksDB{Items: 1500, Queries: 150, Seed: 303} }

func (r RocksDB) Name() string { return "RocksDB" }

// Build lays out the memtable and the get() stream.
func (r RocksDB) Build(m *machine.Machine) (*Plan, error) {
	keys, vals := genUniqueKeys(r.Items, 100, r.Seed)
	// 900 B values live in their own allocations; the skip list stores
	// pointers to them, as RocksDB stores handles.
	valPtrs := make([]uint64, len(vals))
	for i := range vals {
		va := m.AS.AllocLines(900)
		valPtrs[i] = uint64(va)
	}
	table := dstruct.BuildSkipList(m.AS, r.Seed, keys, valPtrs)
	rng := rand.New(rand.NewSource(r.Seed + 1))
	n := 2 * r.Queries
	probeKeys := make([][]byte, n)
	want := make([]int, n)
	for i := range probeKeys {
		k := rng.Intn(len(keys))
		probeKeys[i] = keys[k]
		want[i] = k
	}
	addrs := stageKeys(m, probeKeys)
	plan := &Plan{
		Name: r.Name(),
		// The paper singles RocksDB out: its seek loop carries a lot of
		// other work (key preprocessing, memcpy, thread management), so
		// the core's ROB fills before much query parallelism is exposed.
		NonROIOps:       23000,
		NonROILoadEvery: 6,
		Scratch:         m.AS.AllocLines(8192),
		scratchSize:     8192,
	}
	for i := 0; i < n; i++ {
		req := Request{Probes: []Probe{{
			Header:    table.HeaderAddr,
			Key:       addrs[i],
			WantFound: true,
			WantValue: valPtrs[want[i]],
		}}}
		plan.add(i < r.Queries, req)
	}
	return plan, nil
}

// Snort is the intrusion-prevention benchmark (Sec. VI-B): a ~40 K
// keyword dictionary compiled into an Aho-Corasick trie; each request
// scans a 1 KB payload.
type Snort struct {
	Keywords   int
	PayloadLen int
	Queries    int
	Seed       int64
}

// DefaultSnort matches the paper's dictionary and payload sizes.
func DefaultSnort() Snort {
	return Snort{Keywords: 40000, PayloadLen: 1024, Queries: 12, Seed: 404}
}

// SmallSnort is a fast configuration for unit tests.
func SmallSnort() Snort {
	return Snort{Keywords: 2000, PayloadLen: 512, Queries: 8, Seed: 404}
}

func (s Snort) Name() string { return "Snort" }

// Build compiles the dictionary and synthesizes payloads that mix
// innocuous bytes with planted keywords.
func (s Snort) Build(m *machine.Machine) (*Plan, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	seen := map[string]bool{}
	var kws [][]byte
	var vals []uint64
	for len(kws) < s.Keywords {
		l := 4 + rng.Intn(12)
		w := make([]byte, l)
		for i := range w {
			w[i] = byte('a' + rng.Intn(26))
		}
		if seen[string(w)] {
			continue
		}
		seen[string(w)] = true
		kws = append(kws, w)
		vals = append(vals, uint64(len(kws)))
	}
	trie := dstruct.BuildTrie(m.AS, kws, vals)

	plan := &Plan{
		Name: s.Name(),
		// Per-payload packet handling around the scan: decode,
		// preprocessing, and rule evaluation scale with payload size.
		NonROIOps:       s.PayloadLen * 1000,
		NonROILoadEvery: 8,
		Scratch:         m.AS.AllocLines(8192),
		scratchSize:     8192,
	}

	for qi := 0; qi < 2*s.Queries; qi++ {
		payload := make([]byte, s.PayloadLen)
		for i := range payload {
			payload[i] = byte('a' + rng.Intn(26))
		}
		// Plant a couple of dictionary keywords.
		for p := 0; p < 2; p++ {
			w := kws[rng.Intn(len(kws))]
			pos := rng.Intn(len(payload) - len(w))
			copy(payload[pos:], w)
		}
		ref, err := dstruct.ScanTrieRef(m.AS, trie.HeaderAddr, payload)
		if err != nil {
			return nil, err
		}
		var wantVal uint64
		if len(ref) > 0 {
			wantVal = ref[len(ref)-1]
		}
		addr := m.AS.AllocLines(uint64(len(payload)))
		m.AS.MustWrite(addr, payload)
		req := Request{Probes: []Probe{{
			Header:    trie.HeaderAddr,
			Key:       addr,
			KeyLen:    uint32(len(payload)),
			WantFound: len(ref) > 0,
			WantValue: wantVal,
		}}}
		plan.add(qi < s.Queries, req)
	}
	return plan, nil
}

// FLANN is the similarity-search benchmark (Sec. VI-B): locality-
// sensitive hashing over 12 hash tables with 20-byte keys; each query
// probes every table (the probes are independent — ideal QEI MLP).
type FLANN struct {
	Items   int // total items spread over the tables
	Tables  int
	Queries int
	Seed    int64
}

// DefaultFLANN matches the paper's 100 K-item, 12-table LSH setup.
func DefaultFLANN() FLANN { return FLANN{Items: 100000, Tables: 12, Queries: 300, Seed: 505} }

// SmallFLANN is a fast configuration for unit tests.
func SmallFLANN() FLANN { return FLANN{Items: 6000, Tables: 12, Queries: 60, Seed: 505} }

func (f FLANN) Name() string { return "FLANN" }

// Build populates the table group and the query stream. Each LSH table
// indexes the dataset under a different hash seed; a query key is
// present in a subset of tables (modelling bucket collisions).
func (f FLANN) Build(m *machine.Machine) (*Plan, error) {
	perTable := f.Items / f.Tables
	if perTable == 0 {
		return nil, fmt.Errorf("workload: FLANN needs at least %d items", f.Tables)
	}
	keys, vals := genUniqueKeys(perTable, 20, f.Seed)
	headers := make([]mem.VAddr, f.Tables)
	// Which tables contain each key: all of them here (the same dataset
	// hashed 12 ways), so probes hit in every table.
	for t := 0; t < f.Tables; t++ {
		ht := dstruct.BuildHashTable(m.AS, uint64(perTable/2), uint64(f.Seed)+uint64(t)*7919, keys, vals)
		headers[t] = ht.HeaderAddr
	}
	rng := rand.New(rand.NewSource(f.Seed + 1))
	plan := &Plan{
		Name: f.Name(),
		// Feature extraction and exact-distance verification of the
		// candidates gathered from the 12 probes.
		NonROIOps:       57000,
		NonROILoadEvery: 7,
		Scratch:         m.AS.AllocLines(8192),
		scratchSize:     8192,
	}
	for qi := 0; qi < 2*f.Queries; qi++ {
		k := rng.Intn(len(keys))
		addr := stageKeys(m, [][]byte{keys[k]})[0]
		probes := make([]Probe, f.Tables)
		for t := 0; t < f.Tables; t++ {
			probes[t] = Probe{
				Header:    headers[t],
				Key:       addr,
				WantFound: true,
				WantValue: vals[k],
			}
		}
		plan.add(qi < f.Queries, Request{Probes: probes})
	}
	return plan, nil
}

// TupleSpace is the tuple-space-search workload of Sec. VII-B: a packet
// classifier probing T independent cuckoo tables per key. Queries to
// different tuples are independent, so QUERY_NB exposes T-way
// parallelism per key.
type TupleSpace struct {
	Tuples  int // 5, 10, or 15 in Fig. 10
	Keys    int // per-table population
	Queries int
	Seed    int64
}

// DefaultTupleSpace returns the workload with the given tuple count.
func DefaultTupleSpace(tuples int) TupleSpace {
	return TupleSpace{Tuples: tuples, Keys: 4096, Queries: 600, Seed: 606}
}

// SmallTupleSpace is a fast configuration for unit tests.
func SmallTupleSpace(tuples int) TupleSpace {
	return TupleSpace{Tuples: tuples, Keys: 512, Queries: 96, Seed: 606}
}

func (t TupleSpace) Name() string { return fmt.Sprintf("TupleSpace-%d", t.Tuples) }

// Build lays out the tuple tables. Each key is inserted into exactly one
// tuple's table (its matching rule); the classifier must probe all of
// them.
func (t TupleSpace) Build(m *machine.Machine) (*Plan, error) {
	keys, vals := genUniqueKeys(t.Keys*t.Tuples, 16, t.Seed)
	headers := make([]mem.VAddr, t.Tuples)
	for ti := 0; ti < t.Tuples; ti++ {
		ks := keys[ti*t.Keys : (ti+1)*t.Keys]
		vs := vals[ti*t.Keys : (ti+1)*t.Keys]
		ck := dstruct.BuildCuckoo(m.AS, uint64(t.Keys/2), 8, uint64(t.Seed)+uint64(ti), ks, vs)
		headers[ti] = ck.HeaderAddr
	}
	rng := rand.New(rand.NewSource(t.Seed + 1))
	plan := &Plan{
		Name:            t.Name(),
		NonROIOps:       100,
		NonROILoadEvery: 8,
		Scratch:         m.AS.AllocLines(4096),
		scratchSize:     4096,
	}
	for qi := 0; qi < 2*t.Queries; qi++ {
		owner := rng.Intn(t.Tuples)
		ki := rng.Intn(t.Keys)
		keyIdx := owner*t.Keys + ki
		addr := stageKeys(m, [][]byte{keys[keyIdx]})[0]
		probes := make([]Probe, t.Tuples)
		for ti := 0; ti < t.Tuples; ti++ {
			probes[ti] = Probe{
				Header:    headers[ti],
				Key:       addr,
				WantFound: ti == owner,
			}
			if ti == owner {
				probes[ti].WantValue = vals[keyIdx]
			}
		}
		plan.add(qi < t.Queries, Request{Probes: probes})
	}
	return plan, nil
}

// All returns the five paper benchmarks at full scale.
func All() []Benchmark {
	return []Benchmark{DefaultDPDK(), DefaultJVM(), DefaultRocksDB(), DefaultSnort(), DefaultFLANN()}
}

// AllSmall returns the five benchmarks at test scale.
func AllSmall() []Benchmark {
	return []Benchmark{SmallDPDK(), SmallJVM(), SmallRocksDB(), SmallSnort(), SmallFLANN()}
}
