package dstruct

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"qei/internal/mem"
)

func newAS() *mem.AddressSpace {
	return mem.NewAddressSpace(mem.NewPhysical())
}

// keepGC is a Reclaimer that allocates straight from the address space
// and records what updates retire, reclaiming nothing.
type keepGC struct {
	*mem.AddressSpace
	retired []mem.Extent
}

func (g *keepGC) Retire(e mem.Extent) { g.retired = append(g.retired, e) }

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
		vals = append(vals, uint64(len(keys))*1000+7)
	}
	return keys, vals
}

func TestHeaderRoundTrip(t *testing.T) {
	as := newAS()
	h := Header{
		Root: 0x123456, Type: TypeCuckoo, Subtype: 8, KeyLen: 16,
		Flags: 0xf00d, Size: 42, Aux: 1024, Aux2: 0xdeadbeef,
	}
	addr := WriteHeader(as, h)
	got, err := ReadHeader(as, addr)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header round trip: got %+v want %+v", got, h)
	}
}

func TestHeaderIsOneCacheline(t *testing.T) {
	if HeaderSize != 64 {
		t.Fatalf("HeaderSize = %d, want 64 (Fig. 4: single cacheline)", HeaderSize)
	}
}

func TestHashDeterministicAndSeeded(t *testing.T) {
	k := []byte("hello world key!")
	if Hash(k, 1) != Hash(k, 1) {
		t.Fatal("Hash not deterministic")
	}
	if Hash(k, 1) == Hash(k, 2) {
		t.Fatal("seed does not affect Hash")
	}
	// Spread check: bucket distribution over 256 buckets shouldn't have
	// any empty quarter with 10k keys.
	counts := make([]int, 4)
	for i := 0; i < 10000; i++ {
		counts[Hash([]byte(fmt.Sprintf("key-%d", i)), 0)&3]++
	}
	for q, c := range counts {
		if c < 2000 || c > 3000 {
			t.Fatalf("hash quarter %d has %d of 10000", q, c)
		}
	}
}

func TestLinkedListQuery(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(50, 16, 1)
	l := BuildLinkedList(as, keys, vals)
	for i, k := range keys {
		v, found, err := QueryLinkedListRef(as, l.HeaderAddr, k)
		if err != nil {
			t.Fatal(err)
		}
		if !found || v != vals[i] {
			t.Fatalf("key %d: found=%v v=%d want %d", i, found, v, vals[i])
		}
	}
	if _, found, _ := QueryLinkedListRef(as, l.HeaderAddr, make([]byte, 16)); found {
		t.Fatal("absent key reported found")
	}
}

func TestLinkedListPreservesOrder(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(10, 8, 2)
	l := BuildLinkedList(as, keys, vals)
	node := l.Head
	for i := 0; i < len(keys); i++ {
		k, err := ListKey(as, node, l.KeyLen)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(k, keys[i]) {
			t.Fatalf("node %d holds wrong key", i)
		}
		node, err = ListNext(as, node)
		if err != nil {
			t.Fatal(err)
		}
	}
	if node != 0 {
		t.Fatal("list does not end in NULL")
	}
}

func TestHashTableQuery(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(500, 16, 3)
	ht := BuildHashTable(as, 128, 99, keys, vals)
	for i, k := range keys {
		v, found, err := QueryHashTableRef(as, ht.HeaderAddr, k)
		if err != nil {
			t.Fatal(err)
		}
		if !found || v != vals[i] {
			t.Fatalf("key %d: found=%v v=%d want %d", i, found, v, vals[i])
		}
	}
	absent := make([]byte, 16)
	if _, found, _ := QueryHashTableRef(as, ht.HeaderAddr, absent); found {
		t.Fatal("absent key reported found")
	}
}

func TestHashTableBucketsPowerOfTwo(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(10, 8, 4)
	ht := BuildHashTable(as, 100, 0, keys, vals)
	if ht.NBuckets != 128 {
		t.Fatalf("NBuckets = %d, want 128", ht.NBuckets)
	}
}

func TestCuckooQuery(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(2000, 16, 5)
	// 1024 buckets x 4 entries = 4096 slots for 2000 keys (~49% load).
	c := BuildCuckoo(as, 1024, 4, 7, keys, vals)
	if c.Len != 2000 {
		t.Fatalf("inserted %d keys", c.Len)
	}
	for i, k := range keys {
		v, found, err := QueryCuckooRef(as, c.HeaderAddr, k)
		if err != nil {
			t.Fatal(err)
		}
		if !found || v != vals[i] {
			t.Fatalf("key %d: found=%v v=%d want %d", i, found, v, vals[i])
		}
	}
	if _, found, _ := QueryCuckooRef(as, c.HeaderAddr, make([]byte, 16)); found {
		t.Fatal("absent key reported found")
	}
}

func TestCuckooUpdateInPlace(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(10, 16, 6)
	c := BuildCuckoo(as, 64, 4, 7, keys, vals)
	_ = c
	// Rebuild with same key twice: second insert must update, not dup.
	as2 := newAS()
	k := keys[0]
	c2 := BuildCuckoo(as2, 64, 4, 7, [][]byte{k, k}, []uint64{11, 22})
	v, found, err := QueryCuckooRef(as2, c2.HeaderAddr, k)
	if err != nil || !found {
		t.Fatalf("lookup failed: %v %v", found, err)
	}
	if v != 22 {
		t.Fatalf("duplicate insert returned %d, want updated value 22", v)
	}
}

func TestCuckooKicksUnderPressure(t *testing.T) {
	as := newAS()
	// 64 slots, 56 keys (~88% load): kicks must occur and all keys remain
	// findable.
	keys, vals := genKeys(56, 16, 7)
	c := BuildCuckoo(as, 16, 4, 3, keys, vals)
	for i, k := range keys {
		v, found, err := QueryCuckooRef(as, c.HeaderAddr, k)
		if err != nil || !found || v != vals[i] {
			t.Fatalf("key %d lost after kicks: found=%v v=%d err=%v", i, found, v, err)
		}
	}
}

func TestSkipListQuery(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(1000, 32, 8)
	sl := BuildSkipList(as, 42, keys, vals)
	for i, k := range keys {
		v, found, err := QuerySkipListRef(as, sl.HeaderAddr, k)
		if err != nil {
			t.Fatal(err)
		}
		if !found || v != vals[i] {
			t.Fatalf("key %d: found=%v v=%d want %d", i, found, v, vals[i])
		}
	}
	absent := bytes.Repeat([]byte{0xff}, 32)
	if _, found, _ := QuerySkipListRef(as, sl.HeaderAddr, absent); found {
		t.Fatal("absent key reported found")
	}
}

func TestSkipListSortedAtLevelZero(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(200, 16, 9)
	sl := BuildSkipList(as, 1, keys, vals)
	node := sl.Head
	var prev []byte
	count := 0
	for {
		nextU, err := as.ReadU64(SkipNextSlot(node, 0))
		if err != nil {
			t.Fatal(err)
		}
		if nextU == 0 {
			break
		}
		node = mem.VAddr(nextU)
		h, err := SkipHeight(as, node)
		if err != nil {
			t.Fatal(err)
		}
		k, err := as.ReadU64(SkipKeyAddr(node, h)) // peek first 8 bytes
		_ = k
		full := make([]byte, 16)
		as.MustRead(SkipKeyAddr(node, h), full)
		if prev != nil && bytes.Compare(prev, full) >= 0 {
			t.Fatal("level-0 chain not strictly sorted")
		}
		prev = full
		count++
	}
	if count != 200 {
		t.Fatalf("level-0 chain has %d nodes, want 200", count)
	}
}

func TestSkipListHeightsWithinBound(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(500, 16, 10)
	sl := BuildSkipList(as, 3, keys, vals)
	node := sl.Head
	for {
		nextU, err := as.ReadU64(SkipNextSlot(node, 0))
		if err != nil {
			t.Fatal(err)
		}
		if nextU == 0 {
			break
		}
		node = mem.VAddr(nextU)
		h, err := SkipHeight(as, node)
		if err != nil {
			t.Fatal(err)
		}
		if h < 1 || h > SkipMaxLevel {
			t.Fatalf("node height %d out of range", h)
		}
	}
}

func TestBSTQuery(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(800, 8, 11)
	b := BuildBST(as, 13, 64, keys, vals)
	for i, k := range keys {
		v, found, err := QueryBSTRef(as, b.HeaderAddr, k)
		if err != nil {
			t.Fatal(err)
		}
		if !found || v != vals[i] {
			t.Fatalf("key %d: found=%v v=%d want %d", i, found, v, vals[i])
		}
	}
	if _, found, _ := QueryBSTRef(as, b.HeaderAddr, make([]byte, 8)); found {
		t.Fatal("absent key reported found")
	}
}

func TestBSTDepthStats(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(1000, 8, 12)
	b := BuildBST(as, 17, 64, keys, vals)
	nodes, maxDepth, avgDepth, err := BSTDepthStats(as, b.HeaderAddr)
	if err != nil {
		t.Fatal(err)
	}
	if nodes != 1000 {
		t.Fatalf("nodes = %d, want 1000", nodes)
	}
	// Random insertion: expected depth ~ 2 ln n ≈ 13.8, max ~ 4.3 ln n.
	if avgDepth < 8 || avgDepth > 20 {
		t.Fatalf("avgDepth = %.1f, outside random-BST expectations", avgDepth)
	}
	if maxDepth < int(avgDepth) {
		t.Fatalf("maxDepth %d < avgDepth %.1f", maxDepth, avgDepth)
	}
}

func TestTrieScan(t *testing.T) {
	as := newAS()
	kws := [][]byte{[]byte("he"), []byte("she"), []byte("his"), []byte("hers")}
	tr := BuildTrie(as, kws, []uint64{1, 2, 3, 4})
	matches, err := ScanTrieRef(as, tr.HeaderAddr, []byte("ushers"))
	if err != nil {
		t.Fatal(err)
	}
	// "ushers": she@3 (and he via fail output), hers@6.
	if len(matches) < 2 {
		t.Fatalf("matches = %v, want at least [she-ish, hers]", matches)
	}
	has := func(v uint64) bool {
		for _, m := range matches {
			if m == v {
				return true
			}
		}
		return false
	}
	if !has(2) && !has(1) {
		t.Fatalf("matches = %v missing she/he", matches)
	}
	if !has(4) {
		t.Fatalf("matches = %v missing hers", matches)
	}
}

func TestTrieNoMatch(t *testing.T) {
	as := newAS()
	tr := BuildTrie(as, [][]byte{[]byte("needle")}, []uint64{9})
	matches, err := ScanTrieRef(as, tr.HeaderAddr, []byte("plain haystack text"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("unexpected matches %v", matches)
	}
}

func TestTrieStatesCount(t *testing.T) {
	as := newAS()
	tr := BuildTrie(as, [][]byte{[]byte("ab"), []byte("ac")}, []uint64{1, 2})
	// root + a + b + c = 4 states.
	if tr.States != 4 {
		t.Fatalf("States = %d, want 4", tr.States)
	}
}

func TestTrieFindEdgeSortedEarlyExit(t *testing.T) {
	as := newAS()
	tr := BuildTrie(as, [][]byte{[]byte("az"), []byte("aa"), []byte("am")}, []uint64{1, 2, 3})
	// Root's child 'a' has edges a, m, z sorted; probing 'b' should stop
	// after seeing 'm' (2 probes).
	child, _, err := TrieFindEdge(as, tr.Root, 'a')
	if err != nil || child == 0 {
		t.Fatalf("edge a missing: %v", err)
	}
	_, probes, err := TrieFindEdge(as, child, 'b')
	if err != nil {
		t.Fatal(err)
	}
	if probes != 2 {
		t.Fatalf("probes for absent 'b' = %d, want 2 (early exit at 'm')", probes)
	}
}

// Property: for random key sets, every structure agrees with a Go map.
func TestPropertyAllStructuresMatchMap(t *testing.T) {
	f := func(seed int64) bool {
		n := 100 + int(uint64(seed)%100)
		keys, vals := genKeys(n, 16, seed)
		ref := map[string]uint64{}
		for i, k := range keys {
			ref[string(k)] = vals[i]
		}
		as := newAS()
		ht := BuildHashTable(as, uint64(n/4), 5, keys, vals)
		ck := BuildCuckoo(as, uint64(n), 4, 5, keys, vals)
		sl := BuildSkipList(as, seed, keys, vals)
		bt := BuildBST(as, seed, 32, keys, vals)
		for _, k := range keys {
			want := ref[string(k)]
			if v, ok, _ := QueryHashTableRef(as, ht.HeaderAddr, k); !ok || v != want {
				return false
			}
			if v, ok, _ := QueryCuckooRef(as, ck.HeaderAddr, k); !ok || v != want {
				return false
			}
			if v, ok, _ := QuerySkipListRef(as, sl.HeaderAddr, k); !ok || v != want {
				return false
			}
			if v, ok, _ := QueryBSTRef(as, bt.HeaderAddr, k); !ok || v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: trie scan agrees with a naive substring matcher for single-
// keyword dictionaries.
func TestPropertyTrieVsNaive(t *testing.T) {
	f := func(kw, input []byte) bool {
		if len(kw) == 0 || len(kw) > 8 {
			return true
		}
		as := newAS()
		tr := BuildTrie(as, [][]byte{kw}, []uint64{77})
		matches, err := ScanTrieRef(as, tr.HeaderAddr, input)
		if err != nil {
			return false
		}
		naive := 0
		for i := 0; i+len(kw) <= len(input); i++ {
			if bytes.Equal(input[i:i+len(kw)], kw) {
				naive++
			}
		}
		return len(matches) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BSTDepthStats walks the whole tree and returns node count, max depth,
// and average depth — used to validate the "≈39.9 memory accesses per
// query" calibration of the JVM workload.
func BSTDepthStats(as *mem.AddressSpace, headerAddr mem.VAddr) (nodes int, maxDepth int, avgDepth float64, err error) {
	h, err := ReadHeader(as, headerAddr)
	if err != nil {
		return 0, 0, 0, err
	}
	var sumDepth int
	type frame struct {
		node  mem.VAddr
		depth int
	}
	stack := []frame{{h.Root, 1}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.node == 0 {
			continue
		}
		nodes++
		sumDepth += f.depth
		if f.depth > maxDepth {
			maxDepth = f.depth
		}
		lu, err := as.ReadU64(BSTChildSlot(f.node, false))
		if err != nil {
			return 0, 0, 0, err
		}
		ru, err := as.ReadU64(BSTChildSlot(f.node, true))
		if err != nil {
			return 0, 0, 0, err
		}
		stack = append(stack, frame{mem.VAddr(lu), f.depth + 1}, frame{mem.VAddr(ru), f.depth + 1})
	}
	if nodes > 0 {
		avgDepth = float64(sumDepth) / float64(nodes)
	}
	return nodes, maxDepth, avgDepth, nil
}
