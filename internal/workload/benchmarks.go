package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"qei/internal/dstruct"
	"qei/internal/machine"
	"qei/internal/mem"
)

// GenUniqueKeys produces n distinct keyLen-byte keys and values from a
// deterministic seed.
func GenUniqueKeys(n, keyLen int, seed int64) ([][]byte, []uint64) {
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

// stageKey writes a probe key into simulated memory (the application's
// request buffers) and returns its address.
func stageKey(m *machine.Machine, k []byte) mem.VAddr {
	a := m.AS.AllocLines(uint64(len(k)))
	m.AS.MustWrite(a, k)
	return a
}

// newPlan returns shape with its scratch area allocated:
// shape.scratchSize bytes of cache-resident application state.
func newPlan(m *machine.Machine, shape Plan) *Plan {
	shape.Scratch = m.AS.AllocLines(shape.scratchSize)
	return &shape
}

// uniformPlan builds the stream of a benchmark whose every request is
// one lookup of a present key drawn uniformly from keys (keys[j] maps
// to want[j]): 2*queries draws from seed, the first half the warmup
// stream. The probe keys are staged before the plan's scratch area is
// allocated.
func uniformPlan(m *machine.Machine, shape Plan, header mem.VAddr, keys [][]byte, want []uint64, queries int, seed int64) *Plan {
	rng := rand.New(rand.NewSource(seed))
	probes := make([]Probe, 2*queries)
	for i := range probes {
		j := rng.Intn(len(keys))
		probes[i] = Probe{Header: header, Key: stageKey(m, keys[j]), WantFound: true, WantValue: want[j]}
	}
	plan := newPlan(m, shape)
	for i, p := range probes {
		plan.add(i < queries, Request{Probes: []Probe{p}})
	}
	return plan
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
	keys, vals := GenUniqueKeys(d.Keys, 16, d.Seed)
	table := dstruct.BuildCuckoo(m.AS, uint64(d.Keys/2), 8, uint64(d.Seed), keys, vals)
	return uniformPlan(m, Plan{
		Name: d.Name(),
		// Packet RX/parse/TX around each lookup: header parsing, checksum
		// and descriptor work. Calibrated so queries are ~40% of time.
		NonROIOps:       1500,
		NonROILoadEvery: 8,
		scratchSize:     4096,
	}, table.HeaderAddr, keys, vals, d.Queries, d.Seed+1), nil
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
	keys, vals := GenUniqueKeys(j.Objects, 8, j.Seed)
	tree := dstruct.BuildBST(m.AS, j.Seed, 128, keys, vals)
	return uniformPlan(m, Plan{
		Name: j.Name(),
		// Mutator work interleaved between GC mark queries (allocation,
		// barriers, application progress) plus mark bookkeeping.
		NonROIOps:       11000,
		NonROILoadEvery: 10,
		scratchSize:     4096,
	}, tree.HeaderAddr, keys, vals, j.Queries, j.Seed+1), nil
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
	keys, vals := GenUniqueKeys(r.Items, 100, r.Seed)
	// 900 B values live in their own allocations; the skip list stores
	// pointers to them, as RocksDB stores handles.
	valPtrs := make([]uint64, len(vals))
	for i := range vals {
		va := m.AS.AllocLines(900)
		valPtrs[i] = uint64(va)
	}
	table := dstruct.BuildSkipList(m.AS, r.Seed, keys, valPtrs)
	return uniformPlan(m, Plan{
		Name: r.Name(),
		// The paper singles RocksDB out: its seek loop carries a lot of
		// other work (key preprocessing, memcpy, thread management), so
		// the core's ROB fills before much query parallelism is exposed.
		NonROIOps:       23000,
		NonROILoadEvery: 6,
		scratchSize:     8192,
	}, table.HeaderAddr, keys, valPtrs, r.Queries, r.Seed+1), nil
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

	plan := newPlan(m, Plan{
		Name: s.Name(),
		// Per-payload packet handling around the scan: decode,
		// preprocessing, and rule evaluation scale with payload size.
		NonROIOps:       s.PayloadLen * 1000,
		NonROILoadEvery: 8,
		scratchSize:     8192,
	})

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
		addr := stageKey(m, payload)
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
	keys, vals := GenUniqueKeys(perTable, 20, f.Seed)
	headers := make([]mem.VAddr, f.Tables)
	// Which tables contain each key: all of them here (the same dataset
	// hashed 12 ways), so probes hit in every table.
	for t := 0; t < f.Tables; t++ {
		ht := dstruct.BuildHashTable(m.AS, uint64(perTable/2), uint64(f.Seed)+uint64(t)*7919, keys, vals)
		headers[t] = ht.HeaderAddr
	}
	rng := rand.New(rand.NewSource(f.Seed + 1))
	plan := newPlan(m, Plan{
		Name: f.Name(),
		// Feature extraction and exact-distance verification of the
		// candidates gathered from the 12 probes.
		NonROIOps:       57000,
		NonROILoadEvery: 7,
		scratchSize:     8192,
	})
	for qi := 0; qi < 2*f.Queries; qi++ {
		k := rng.Intn(len(keys))
		addr := stageKey(m, keys[k])
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
	keys, vals := GenUniqueKeys(t.Keys*t.Tuples, 16, t.Seed)
	headers := make([]mem.VAddr, t.Tuples)
	for ti := 0; ti < t.Tuples; ti++ {
		ks := keys[ti*t.Keys : (ti+1)*t.Keys]
		vs := vals[ti*t.Keys : (ti+1)*t.Keys]
		ck := dstruct.BuildCuckoo(m.AS, uint64(t.Keys/2), 8, uint64(t.Seed)+uint64(ti), ks, vs)
		headers[ti] = ck.HeaderAddr
	}
	rng := rand.New(rand.NewSource(t.Seed + 1))
	plan := newPlan(m, Plan{
		Name:            t.Name(),
		NonROIOps:       100,
		NonROILoadEvery: 8,
		scratchSize:     4096,
	})
	for qi := 0; qi < 2*t.Queries; qi++ {
		owner := rng.Intn(t.Tuples)
		ki := rng.Intn(t.Keys)
		keyIdx := owner*t.Keys + ki
		addr := stageKey(m, keys[keyIdx])
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

// catalogue is the one table from a benchmark's command-line name to its
// full- and small-scale instances: the five applications of Sec. VI-B,
// then tuple-space search (Sec. VII-B) at 5, 10 and 15 tuples.
var catalogue = []struct {
	name        string
	full, small Benchmark
}{
	{"dpdk", DefaultDPDK(), SmallDPDK()},
	{"jvm", DefaultJVM(), SmallJVM()},
	{"rocksdb", DefaultRocksDB(), SmallRocksDB()},
	{"snort", DefaultSnort(), SmallSnort()},
	{"flann", DefaultFLANN(), SmallFLANN()},
	{"tuple5", DefaultTupleSpace(5), SmallTupleSpace(5)},
	{"tuple10", DefaultTupleSpace(10), SmallTupleSpace(10)},
	{"tuple15", DefaultTupleSpace(15), SmallTupleSpace(15)},
}

// Names lists the catalogue's benchmark names in table order.
func Names() []string {
	names := make([]string, len(catalogue))
	for i, e := range catalogue {
		names[i] = e.name
	}
	return names
}

// Lookup resolves a catalogue name to its paper-scale benchmark when
// full is set, else to its small, fast one. An unknown name is an error
// that lists the known names.
func Lookup(name string, full bool) (Benchmark, error) {
	for _, e := range catalogue {
		if e.name == name {
			if full {
				return e.full, nil
			}
			return e.small, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(Names(), ", "))
}

// All returns the five paper benchmarks at full scale.
func All() []Benchmark {
	return []Benchmark{DefaultDPDK(), DefaultJVM(), DefaultRocksDB(), DefaultSnort(), DefaultFLANN()}
}

// AllSmall returns the five benchmarks at test scale.
func AllSmall() []Benchmark {
	return []Benchmark{SmallDPDK(), SmallJVM(), SmallRocksDB(), SmallSnort(), SmallFLANN()}
}
