package baseline

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"qei/internal/dstruct"
	"qei/internal/isa"
	"qei/internal/mem"
)

func newAS() *mem.AddressSpace {
	return mem.NewAddressSpace(mem.NewPhysical())
}

// query runs one query on a fresh Querier, so the returned trace owns
// its storage.
func query(as *mem.AddressSpace, headerAddr mem.VAddr, key []byte) (Result, error) {
	var q Querier
	return q.Query(as, headerAddr, key)
}

func genKeys(n, keyLen int, seed int64) ([][]byte, []uint64) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
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
		vals = append(vals, uint64(len(keys))*31+5)
	}
	return keys, vals
}

func TestLinkedListMatchesReference(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(40, 16, 1)
	l := dstruct.BuildLinkedList(as, keys, vals)
	for i, k := range keys {
		r, err := query(as, l.HeaderAddr, k)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Found || r.Value != vals[i] {
			t.Fatalf("key %d: %+v want %d", i, r, vals[i])
		}
		if len(r.Trace) == 0 {
			t.Fatal("no trace emitted")
		}
	}
	r, err := query(as, l.HeaderAddr, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	if r.Found {
		t.Fatal("absent key found")
	}
	// A full miss walks all nodes: trace must reflect ~40 node loads.
	if r.Trace.Loads() < 40 {
		t.Fatalf("miss trace has %d loads, want >= 40", r.Trace.Loads())
	}
}

func TestLinkedListTraceGrowsWithPosition(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(30, 16, 2)
	l := dstruct.BuildLinkedList(as, keys, vals)
	r0, _ := query(as, l.HeaderAddr, keys[0])
	r29, _ := query(as, l.HeaderAddr, keys[29])
	if len(r29.Trace) <= len(r0.Trace) {
		t.Fatalf("tail query trace (%d ops) not longer than head query (%d ops)",
			len(r29.Trace), len(r0.Trace))
	}
}

func TestHashTableMatchesReference(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(300, 16, 3)
	ht := dstruct.BuildHashTable(as, 64, 9, keys, vals)
	for i, k := range keys {
		r, err := query(as, ht.HeaderAddr, k)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Found || r.Value != vals[i] {
			t.Fatalf("key %d: %+v want %d", i, r, vals[i])
		}
	}
}

func TestCuckooMatchesReference(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(1000, 16, 4)
	c := dstruct.BuildCuckoo(as, 512, 4, 11, keys, vals)
	for i, k := range keys {
		r, err := query(as, c.HeaderAddr, k)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Found || r.Value != vals[i] {
			t.Fatalf("key %d: %+v want %d", i, r, vals[i])
		}
	}
	r, _ := query(as, c.HeaderAddr, make([]byte, 16))
	if r.Found {
		t.Fatal("absent key found")
	}
}

func TestCuckooBoundedWork(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(1000, 16, 5)
	c := dstruct.BuildCuckoo(as, 512, 4, 11, keys, vals)
	// Hash-table queries have a small, fixed number of memory accesses
	// (Sec. VII-A); with 16 B keys and 4-entry buckets a probe is ~2
	// lines per bucket.
	for _, k := range keys[:50] {
		r, _ := query(as, c.HeaderAddr, k)
		if n := r.Trace.Loads(); n > 12 {
			t.Fatalf("cuckoo query loaded %d lines, want bounded (<=12)", n)
		}
	}
}

func TestSkipListMatchesReference(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(500, 32, 6)
	sl := dstruct.BuildSkipList(as, 77, keys, vals)
	for i, k := range keys {
		r, err := query(as, sl.HeaderAddr, k)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Found || r.Value != vals[i] {
			t.Fatalf("key %d: found=%v value=%d want %d", i, r.Found, r.Value, vals[i])
		}
	}
	r, _ := query(as, sl.HeaderAddr, bytes.Repeat([]byte{0xff}, 32))
	if r.Found {
		t.Fatal("absent key found")
	}
}

func TestSkipListLogarithmicWork(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(1000, 32, 7)
	sl := dstruct.BuildSkipList(as, 13, keys, vals)
	total := 0
	for _, k := range keys[:100] {
		r, _ := query(as, sl.HeaderAddr, k)
		total += r.Trace.Loads()
	}
	avg := float64(total) / 100
	// log4(1000) ≈ 5 levels of real work + level scans; expect tens of
	// loads, far below the 1000 a linear scan would need.
	if avg > 150 {
		t.Fatalf("skip list averages %.1f loads/query — not logarithmic", avg)
	}
	if avg < 10 {
		t.Fatalf("skip list averages %.1f loads/query — implausibly low", avg)
	}
}

func TestBSTMatchesReference(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(600, 8, 8)
	b := dstruct.BuildBST(as, 3, 64, keys, vals)
	for i, k := range keys {
		r, err := query(as, b.HeaderAddr, k)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Found || r.Value != vals[i] {
			t.Fatalf("key %d: found=%v value=%d want %d", i, r.Found, r.Value, vals[i])
		}
	}
}

func TestBSTQueryHasDeepDependentChain(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(4000, 8, 9)
	b := dstruct.BuildBST(as, 5, 64, keys, vals)
	// JVM calibration target: tens of memory accesses per query.
	total := 0
	for _, k := range keys[:200] {
		r, _ := query(as, b.HeaderAddr, k)
		total += r.Trace.Loads()
	}
	avg := float64(total) / 200
	if avg < 15 || avg > 80 {
		t.Fatalf("BST averages %.1f loads/query, want tree-depth-ish (15..80)", avg)
	}
}

func TestScanTrieMatchesReference(t *testing.T) {
	as := newAS()
	kws := [][]byte{[]byte("attack"), []byte("root"), []byte("passwd"), []byte("admin")}
	tr := dstruct.BuildTrie(as, kws, []uint64{1, 2, 3, 4})
	input := []byte("GET /rootkit?admin=1&x=passwd HTTP/1.1")
	want, err := dstruct.ScanTrieRef(as, tr.HeaderAddr, input)
	if err != nil {
		t.Fatal(err)
	}
	got, err := query(as, tr.HeaderAddr, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Matches) != len(want) {
		t.Fatalf("matches = %v, reference = %v", got.Matches, want)
	}
	for i := range want {
		if got.Matches[i] != want[i] {
			t.Fatalf("match %d = %d, want %d", i, got.Matches[i], want[i])
		}
	}
	if !got.Found || got.Value != want[len(want)-1] {
		t.Fatalf("found=%v value=%d, want the last match %d", got.Found, got.Value, want[len(want)-1])
	}
	// At least one automaton transition, hence one state load, per byte.
	if n := got.Trace.Loads(); n < len(input) {
		t.Fatalf("trace loads = %d, want >= input length %d", n, len(input))
	}
}

func TestHundredsOfDynamicInstructions(t *testing.T) {
	// Sec. II-A: "each query operation can easily generate hundreds of
	// dynamic instructions". Check the pointer-chasing structures.
	as := newAS()
	keys, vals := genKeys(10000, 32, 10)
	sl := dstruct.BuildSkipList(as, 3, keys, vals)
	r, _ := query(as, sl.HeaderAddr, keys[7000])
	if len(r.Trace) < 100 {
		t.Fatalf("skip list query = %d dynamic ops, want hundreds", len(r.Trace))
	}
}

func TestUnknownHeaderTypeRejected(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(5, 16, 11)
	l := dstruct.BuildLinkedList(as, keys, vals)
	h, err := dstruct.ReadHeader(as, l.HeaderAddr)
	if err != nil {
		t.Fatal(err)
	}
	h.Type = 9 // no built-in structure has this code
	hdr := dstruct.WriteHeader(as, h)
	if _, err := query(as, hdr, keys[0]); !errors.Is(err, ErrNoWalker) {
		t.Fatalf("type code 9: err = %v, want ErrNoWalker", err)
	}
}

func TestTraceHasRealAddresses(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(20, 16, 12)
	l := dstruct.BuildLinkedList(as, keys, vals)
	r, _ := query(as, l.HeaderAddr, keys[10])
	for _, op := range r.Trace {
		if op.Kind == isa.Load && op.Addr == 0 && op.Size > 1 {
			t.Fatal("load with NULL address in trace")
		}
		if op.Kind == isa.Load {
			if _, err := as.Translate(op.Addr); err != nil {
				t.Fatalf("trace load at unmapped address %#x", uint64(op.Addr))
			}
		}
	}
}

// BenchmarkQuery measures one software query per built-in structure on a
// warmed Querier: its prefix cache is filled and its buffers have grown,
// so allocs/op is the steady state of a long-running caller.
// queryCase is one built-in structure with a probe key (the trie's is a
// scan input with three matches).
type queryCase struct {
	name   string
	header mem.VAddr
	key    []byte
}

func queryCases(as *mem.AddressSpace) []queryCase {
	keys, vals := genKeys(1024, 16, 13)
	kws := [][]byte{[]byte("attack"), []byte("root"), []byte("passwd"), []byte("admin")}
	return []queryCase{
		{"linkedlist", dstruct.BuildLinkedList(as, keys[:64], vals[:64]).HeaderAddr, keys[32]},
		{"hashtable", dstruct.BuildHashTable(as, 256, 9, keys, vals).HeaderAddr, keys[7]},
		{"cuckoo", dstruct.BuildCuckoo(as, 512, 4, 11, keys, vals).HeaderAddr, keys[7]},
		{"skiplist", dstruct.BuildSkipList(as, 77, keys, vals).HeaderAddr, keys[7]},
		{"bst", dstruct.BuildBST(as, 3, 64, keys, vals).HeaderAddr, keys[7]},
		{"trie", dstruct.BuildTrie(as, kws, []uint64{1, 2, 3, 4}).HeaderAddr, []byte("GET /rootkit?admin=1&x=passwd HTTP/1.1")},
		{"btree", dstruct.BuildBTree(as, 16, keys, vals).HeaderAddr, keys[7]},
	}
}

// TestQueryAllocatesNothing pins the software walker: a warmed Querier
// answers every built-in type code, the trie scan's matches included,
// without a host allocation.
func TestQueryAllocatesNothing(t *testing.T) {
	as := newAS()
	for _, c := range queryCases(as) {
		var q Querier
		run := func() {
			if _, err := q.Query(as, c.header, c.key); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if got := testing.AllocsPerRun(100, run); got != 0 {
			t.Errorf("%s: %v allocs per warmed query, want 0", c.name, got)
		}
	}
}

func BenchmarkQuery(b *testing.B) {
	as := newAS()
	for _, c := range queryCases(as) {
		b.Run(c.name, func(b *testing.B) {
			var q Querier
			if _, err := q.Query(as, c.header, c.key); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Query(as, c.header, c.key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
